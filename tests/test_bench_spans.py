"""The bench harness's calls into obscon keep working.

The tracer's wrapped names stay bound in the modules that call them, and the
bench's derive and check ops pass its own output gate on a small workload.
"""

import importlib.util
import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entry", load_bench("spans").WRAPPED,
                         ids=lambda e: f"{e[0].__name__}.{e[1]}")
def test_wrapped_names_are_bound(entry):
    owner, attr, _span = entry
    assert callable(getattr(owner, attr))


# the gate's digest of the IV derivation (bench/gate.py derivation_digest)
IV_DIGEST = "c1e275bdb1d2fcad41990a853462bab4adb9dfeaea14078cab4d17fc388d5327"


def test_bench_ops_pass_the_gate(monkeypatch):
    # run.py imports its sibling modules by name; write no bytecode under bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH_DIR)
    run = load_bench("run")
    import gate
    from workloads import FOUR_KINDS, IV, Expected, Workload

    workload = Workload("iv", "self-test", IV, False, FOUR_KINDS, 4, 1,
                        Expected(14, 12, 2, 4, 0, IV_DIGEST))
    runner = run.Runner(workload, tracer=None)
    dag, result, payload = runner.derive(runner.untraced)
    assert gate.check_derivation(result, payload, workload.expected) == []

    table = workload.tables(seed=0)[2]  # a sparse table: some rows are not evaluable
    tolerance = gate.tolerance_for(table.decimal)
    expected = gate.expected_statuses(result, workload.graph, table.probs, tolerance)
    doc = runner.check(runner.untraced, dag, result, table.csv)
    assert gate.check_report(doc, expected, table.kind, tolerance) == []
