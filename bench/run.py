#!/usr/bin/env python3
"""obscon benchmark: derive and check ops on seeded inputs, gated and timed.

Run from the repository root:

    python3 bench/run.py --workload i3322 --seed 1 --seconds 30 --trace 0

A derive op does what ``obscon derive`` does (parse, derive, result to JSON,
``json.dumps(indent=2)``). A check op does the library check path
(``parse_table``, ``evaluate``, ``report_to_json``) against the first
derivation of the run. Every op's output goes through the gate in
``gate.py``; an exception or a mismatch counts as a failed op.

A run is a fixed number of rounds; each makes one derive op and its share
of the workload's fixed number of check ops (and, untraced, of the fresh
interpreters that time ``import obscon``). Derive ops then fill what is
left of ``--seconds``. With ``--trace 0`` the last stdout line holds the
end-to-end metrics: each time is an op's CPU time scaled to a reference
machine speed by the sampler in ``speed.py``. With ``--trace 1`` derive ops
alternate traced and untraced, every check op is traced, and the line holds
the per-layer metrics, in unscaled wall time. Human-readable notes go to
stderr. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(BENCH_DIR, "traces")

SETUP_SAMPLES = 15
TAIL_LADDER = (99, 95, 90, 75, 50)
MIB = 1024 * 1024

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.process_time()\n"
    "import obscon\n"
    "print(time.process_time() - t)\n"
)


def setup_sample() -> tuple[float, float, float]:
    """CPU time to import obscon in a fresh interpreter, as (start, end, CPU
    seconds), the interpreter's start and end on the ``perf_counter`` clock."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return start, time.perf_counter(), float(proc.stdout.split()[-1])


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """Highest ladder percentile with at least ten samples beyond it.

    Nearest rank: the p-th percentile of n sorted samples is the one at rank
    ceil(p * n / 100), so n - rank samples lie beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = -(-pct * n // 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 50, statistics.median(ordered)


class Runner:
    def __init__(self, workload, tracer, before_op=None):
        import obscon
        from obscon.constraints import report_to_json, result_to_json
        from spans import NoTracer

        self.obscon = obscon
        self.report_to_json = report_to_json
        self.result_to_json = result_to_json
        self.workload = workload
        self.options = obscon.DeriveOptions(merge=workload.merge)
        self.tracer = tracer
        self.before_op = before_op  # runs before each op, outside its timing
        self.untraced = NoTracer()
        self.attempted = 0

    def derive(self, tr):
        text = self.workload.graph.text()
        with tr.span("op.derive"):
            with tr.span("graph.parse"):
                dag = self.obscon.parse_graph(text)
            with tr.span("constraints.derive"):
                result = self.obscon.derive_all(dag, self.options)
            with tr.span("constraints.serialize"):
                doc = self.result_to_json(result, dag)
                with tr.span("json.dumps"):
                    payload = json.dumps(doc, indent=2)
        return dag, result, payload

    def check(self, tr, dag, result, csv_text):
        with tr.span("op.check"):
            with tr.span("tables.parse"):
                table = self.obscon.parse_table(csv_text, dag)
            with tr.span("constraints.evaluate"):
                report = self.obscon.evaluate(result, dag, table)
            with tr.span("constraints.report_json"):
                doc = self.report_to_json(report)
        return doc

    def timed(self, op, *args, traced=False):
        """Run one op; returns ((start, end, CPU seconds), output), or None
        when it failed. Start and end are on the ``perf_counter`` clock."""
        self.attempted += 1
        # the op's garbage collections then walk only the op's own objects,
        # as in a fresh `obscon` process, not the tables this run holds
        gc.collect()
        gc.freeze()
        if self.before_op:
            self.before_op()
        try:
            if traced:
                with self.tracer.installed():
                    t0, c0 = time.perf_counter(), time.process_time()
                    out = op(self.tracer, *args)
                    c1, t1 = time.process_time(), time.perf_counter()
            else:
                t0, c0 = time.perf_counter(), time.process_time()
                out = op(self.untraced, *args)
                c1, t1 = time.process_time(), time.perf_counter()
        except Exception as exc:  # a failed op is counted, and the run goes on
            self.fail(f"{op.__name__} raised {type(exc).__name__}: {exc}")
            return None
        finally:
            gc.unfreeze()
        return (t0, t1, c1 - c0), out

    def fail(self, message: str) -> None:
        print(f"FAILED: {message}", file=sys.stderr)


def run(workload, seed: int, seconds: float, traced: bool):
    import gate
    from spans import Tracer, layer_metrics, op_profiles
    from speed import UNIT_S, Sampler

    tracer = Tracer() if traced else None
    sampler = Sampler()
    runner = Runner(workload, tracer, None if traced else sampler.tick)
    tables = workload.tables(seed)
    rounds = workload.rounds

    # (start, end, CPU seconds) per op; derive ops keyed by traced
    derive_times = {True: [], False: []}
    check_times = []
    setup_times = []
    reference = None  # (dag, result, payload) of the first derive op
    failed_ops = 0

    def derive_once(trace_this):
        nonlocal reference, failed_ops
        done = runner.timed(runner.derive, traced=trace_this)
        if done is None:
            failed_ops += 1
            return None
        timing, (dag, result, payload) = done
        problems = gate.check_derivation(result, payload, workload.expected)
        if reference is not None and payload != reference[2]:
            problems.append("JSON differs from the run's first derive op")
        for problem in problems:
            runner.fail(f"derive: {problem}")
        failed_ops += bool(problems)
        derive_times[trace_this].append(timing)
        if reference is None and not problems:
            reference = (dag, result, payload)
        return timing[1] - timing[0]

    def check_once(table, expected):
        nonlocal failed_ops
        dag, result, _ = reference
        done = runner.timed(runner.check, dag, result, table.csv, traced=traced)
        if done is None:
            failed_ops += 1
            return
        timing, doc = done
        problems = gate.check_report(doc, expected, table.kind,
                                     gate.tolerance_for(table.decimal))
        for problem in problems:
            runner.fail(f"check: {problem}")
        failed_ops += bool(problems)
        check_times.append(timing)

    if not traced:
        setup_sample()  # warm-up: it may write the bytecode cache
    with contextlib.nullcontext() if traced else sampler:
        # Derive ops, check ops and set-up samples are spread over the whole
        # run, so that each median sees the machine's speed over all of it.
        start = time.perf_counter()
        expectations = []
        last = 0.0
        for r in range(rounds):
            # traced runs alternate, so that the trace overhead is measured
            last = derive_once(traced and r % 2 == 0) or last
            if reference is not None:
                if not expectations:
                    expectations = [
                        gate.expected_statuses(reference[1], workload.graph, t.probs,
                                               gate.tolerance_for(t.decimal))
                        for t in tables
                    ]
                for i in range(r, len(tables), rounds):
                    check_once(tables[i], expectations[i])
            if not traced:
                for _ in range(r, SETUP_SAMPLES, rounds):
                    sampler.tick()
                    setup_times.append(setup_sample())
        n_derives = rounds
        # fill the rest of the window with derive ops that fit in it
        while time.perf_counter() - start + last <= seconds:
            last = derive_once(traced and n_derives % 2 == 0) or last
            n_derives += 1
        if not traced:
            sampler.tick()  # units just after the last op

    attempted = runner.attempted
    correct = failed_ops == 0 and bool(check_times) and bool(derive_times[traced])
    times = walls if traced else sampler.scale
    checks = times(check_times)
    pct, tail = tail_percentile(checks) if checks else (0, 0.0)
    print(f"{workload.name} seed {seed}: {n_derives} derive ops, {len(checks)} check "
          f"ops (tail = p{pct} of {len(checks)} samples), {failed_ops} failed; "
          f"derive seconds {' '.join(f'{t:.3f}' for t in times(derive_times[traced]))}",
          file=sys.stderr)

    if traced:
        profiles = op_profiles(tracer)
        metrics = layer_metrics(profiles, walls(derive_times[False] or derive_times[True]))
        metrics["check.ops"] = {"value": len(checks), "unit": "count"}
        metrics["check.tail_percentile"] = {"value": pct, "unit": "pct"}
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(os.path.join(TRACE_DIR, f"{workload.name}.trace"),
                     {"workload": workload.name, "seed": seed})
    else:
        units = [u for _, u in sampler.samples]
        print(f"speed sampler: {len(units)} units, median {_median(units) * 1e3:.3f} ms "
              f"({UNIT_S * 1e3:.3f} ms at the reference speed); unscaled wall "
              f"derive_s {_median(walls(derive_times[False])):.3f}, "
              f"check_ms_p50 {_median(walls(check_times)) * 1000:.2f}", file=sys.stderr)
        payload = reference[2] if reference else ""
        metrics = {
            "derive_s": {"value": _median(times(derive_times[False])), "unit": "s"},
            "check_ms_p50": {"value": _median(checks) * 1000, "unit": "ms"},
            "check_ms_tail": {"value": tail * 1000, "unit": "ms"},
            "json_mib": {"value": len(payload.encode()) / MIB, "unit": "MiB"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB"},
            "setup_s": {"value": _median(times(setup_times)), "unit": "s"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed_ops,
            "metrics": metrics}


def walls(timings):
    """The unscaled wall times of (start, end, CPU seconds) timings."""
    return [end - start for start, end, _ in timings]


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="draws the check ops' tables")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--graph-seed", type=int, default=None,
                        help="sparse14 only: another graph structure (outputs not pinned)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "obscon", "__init__.py")):
        print(f"error: obscon sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import obscon

    if not os.path.abspath(obscon.__file__).startswith(SRC + os.sep):
        print(f"error: imported obscon from {obscon.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, sparse14_for

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.graph_seed is not None:
        if args.workload != "sparse14":
            print("error: --graph-seed applies to sparse14 only", file=sys.stderr)
            return 2
        workload = sparse14_for(args.graph_seed)
    outcome = run(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
