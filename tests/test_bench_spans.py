"""The bench harness's calls into obscon keep working.

The tracer's wrapped names stay bound in the modules that call them, and the
bench's derive and check ops pass its own output gate on a small workload
and on each benchmark workload. Deriving a benchmark workload's graph
builds no ``Fraction``: the exact core runs on ints.
"""

import importlib.util
import os
import sys
from fractions import Fraction

import pytest

import obscon

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


@pytest.mark.parametrize("name", ["i3322", "sparse14", "mixed_check"])
def test_benchmark_workload_ops_pass_the_gate(monkeypatch, name):
    # one derive op against the workload's pinned counts and digest, then
    # one check op per table kind against the gate's status oracle
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH_DIR)
    run = load_bench("run")
    import gate
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    runner = run.Runner(workload, tracer=None)
    dag, result, payload = runner.derive(runner.untraced)
    assert gate.check_derivation(result, payload, workload.expected) == []

    tables = {table.kind: table for table in reversed(workload.tables(seed=0))}
    assert sorted(tables) == sorted(workload.table_kinds)
    for table in tables.values():
        tolerance = gate.tolerance_for(table.decimal)
        expected = gate.expected_statuses(result, workload.graph, table.probs, tolerance)
        doc = runner.check(runner.untraced, dag, result, table.csv)
        assert gate.check_report(doc, expected, table.kind, tolerance) == [], table.kind


@pytest.mark.parametrize("name", ["i3322", "sparse14", "mixed_check"])
def test_benchmark_workload_derive_builds_no_fraction(monkeypatch, name):
    # the exact core runs on ints: deriving a workload's graph, merged where
    # the workload merges, constructs no Fraction
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH_DIR)
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    dag = obscon.parse_graph(workload.graph.text())
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    result = obscon.derive_all(dag, obscon.DeriveOptions(merge=workload.merge))
    assert built == []
    assert result.constraints_total == workload.expected.total


def test_bench_selftest_passes(monkeypatch, tmp_path):
    # the self-test runs the traced ops too, whose hooks read the systems and
    # HReps; bytecode and traces go nowhere under bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")  # the setup-sample interpreters
    monkeypatch.syspath_prepend(BENCH_DIR)
    import run
    import selftest

    monkeypatch.setattr(run, "TRACE_DIR", str(tmp_path))
    affinity = os.sched_getaffinity(0)  # the speed sampler pins this process
    try:
        assert selftest.main() == 0
    finally:
        os.sched_setaffinity(0, affinity)
    assert sorted(os.listdir(tmp_path)) == ["chsh.trace", "iv.trace"]
