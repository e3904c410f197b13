#!/usr/bin/env python3
"""Self-test of the benchmark harness; exits 0 when every check holds.

Run from the repository root:

    python3 bench/selftest.py

It runs the whole harness, untraced and traced, on the bundled ``iv``
example (14 constraints) and on the inline CHSH graph (24 facets), shows
that the gate rejects a tampered expected count, digest or status count,
and that span self times are non-negative and never exceed the enclosing
span. It also checks that the metric names match BENCHMARK.json, and
that op times are scaled by the speed units nearest the op.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import run

EPS = 1e-9
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def main() -> int:
    sys.path.insert(0, run.SRC)
    import obscon

    import gate
    import spans
    import speed
    from workloads import CHSH, FOUR_KINDS, IV, Expected, Workload

    iv = Workload("iv", "self-test", IV, False, FOUR_KINDS, 12, 3,
                  Expected(14, 12, 2, 4, 0, None))
    chsh = Workload("chsh", "self-test", CHSH, False, FOUR_KINDS, 12, 3, None)

    # the whole harness, both modes, on small inputs
    for workload in (iv, chsh):
        for traced in (False, True):
            out = run.run(workload, seed=0, seconds=0, traced=traced)
            expect(out["correct"] and out["failed"] == 0,
                   f"{workload.name} {'traced' if traced else 'untraced'} run passes the gate")
            with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
                spec = json.load(fh)
            names = {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
            expect(set(out["metrics"]) == names,
                   f"{workload.name} {'per-layer' if traced else 'end-to-end'} "
                   "metrics match BENCHMARK.json")

    dag = obscon.parse_graph(CHSH.text())
    result = obscon.derive_all(dag)
    expect(gate.derivation_counts(result)["inequalities"] == 24, "CHSH has 24 facets")

    dag = obscon.parse_graph(IV.text())
    result = obscon.derive_all(dag)
    payload = json.dumps(obscon.constraints.result_to_json(result, dag), indent=2)
    pinned = replace(iv.expected, digest=gate.derivation_digest(result))
    expect(not gate.check_derivation(result, payload, pinned), "iv passes with its pins")
    for field in ("total", "inequalities", "equalities", "flagged", "ci"):
        tampered = replace(pinned, **{field: getattr(pinned, field) + 1})
        expect(bool(gate.check_derivation(result, payload, tampered)),
               f"gate fails on a tampered expected {field} count")
    tampered = replace(pinned, digest="0" * 64)
    expect(bool(gate.check_derivation(result, payload, tampered)),
           "gate fails on a tampered digest")

    # the oracle against evaluate on a known violator of the IV inequalities
    violator = {(0, 0, 1): Fraction(1, 2), (1, 0, 0): Fraction(1, 2)}
    csv_text = "Z,X,Y,prob\n0,0,1,1/2\n1,0,0,1/2\n"
    zero = gate.tolerance_for(False)
    oracle = gate.expected_statuses(result, IV, violator, zero)
    report = obscon.constraints.report_to_json(
        obscon.evaluate(result, dag, obscon.parse_table(csv_text, dag)))
    expect(oracle["violated"] > 0 and not gate.check_report(report, oracle, "violator", zero),
           "oracle and evaluate agree on the IV violator")
    tampered_status = oracle + Counter({"satisfied": 1})
    expect(bool(gate.check_report(report, tampered_status, "violator", zero)),
           "gate fails on a tampered status count")

    # self times from a traced derive op and check op
    tracer = spans.Tracer()
    runner = run.Runner(iv, tracer)
    _, (dag, result, _) = runner.timed(runner.derive, traced=True)
    runner.timed(runner.check, dag, result, csv_text, traced=True)
    n = len(tracer.name)
    children = spans.child_times(tracer)
    selfs = [tracer.end[k] - tracer.start[k] - children[k] for k in range(n)]
    expect(min(selfs) >= -EPS, "every self time is non-negative")
    expect(all(children[k] <= tracer.end[k] - tracer.start[k] + EPS for k in range(n)),
           "child spans never cover more than the enclosing span")
    roots = [k for k in range(n) if tracer.parent[k] < 0] + [n]
    sums_ok = all(
        abs(sum(selfs[root:stop]) - (tracer.end[root] - tracer.start[root])) < 1e-6
        for root, stop in zip(roots, roots[1:])
    )
    expect(sums_ok, "self times within an op sum to the op's span")
    profiles = spans.op_profiles(tracer)
    expect([p["op"] for p in profiles] == ["op.derive", "op.check"]
           and profiles[0]["counts"].get("polyhedra.facets") == 12,
           "op profiles: one derive op with 12 facets, one check op")

    # speed scaling: units at t = 0..99 s, at the reference speed until t = 50,
    # then at half of it
    sampler = speed.Sampler()
    sampler.samples = [(float(t), speed.UNIT_S * (1 if t < 50 else 2)) for t in range(100)]
    expect(abs(sampler.scaled(60.0, 99.0, 1.0) - 0.5) < EPS,
           "a long op is scaled by the units timed while it ran")
    expect(abs(sampler.scaled(10.4, 10.5, 1.0) - 1.0) < EPS,
           "a short op is scaled by the units nearest it")
    expect(speed.unit() == speed.EXPECTED, "the speed unit gives its pinned output")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
