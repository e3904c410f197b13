import json
import math
import random
import sys
from fractions import Fraction
from itertools import compress, product

import pytest

import obscon.constraints
import obscon.graph
import obscon.independence
from obscon import (
    ConditionsError,
    DeriveOptions,
    District,
    GraphStructureError,
    HiddenDag,
    HRep,
    Variable,
    VRep,
    d_separated,
    derive_all,
    evaluate,
    flag_nontrivial,
    parse_graph,
    render,
    v_to_h,
)
from obscon.constraints import (
    Constraint,
    ConstraintStatus,
    report_to_json,
    result_to_json,
)
from obscon.polyhedra import extreme_rays, simplex_product_hrep
from obscon.response import (
    ColumnLimitError,
    Configuration,
    FunctionalSystem,
    build_functional_system,
    district_shape,
    star_probability,
    star_scaled,
)
from obscon.tables import TableError, parse_table
from obscon.transform import merge_district_latents, normalize

from obscon.fixtures import FIXTURE_GRAPHS

from conftest import BELL_CHSH, BELL_I3322
from test_bench_spans import BENCH_DIR
from oracles import (
    coeff_vector,
    decimal_csv,
    evaluate_by_scan,
    hrep_from_rows,
    multiply,
    positive_simplex_point,
    random_dag,
    simplex_product_extreme_points,
    sparse_dag,
    structural_model_table,
    system_matrix,
    table_from_dict,
)


IV_VIOLATOR = """\
Z,X,Y,prob
0,0,1,1/2
1,0,0,1/2
"""


def iv_result(graphs):
    return derive_all(graphs["iv"])


def test_flag_iv(graphs):
    result = iv_result(graphs)
    record = result.districts[1]
    flagged = [c for c in record.constraints if c.flagged]
    assert len(flagged) == 4
    assert all(c.relation == "<=" for c in flagged)
    assert all(c.witness is not None for c in flagged)
    unflagged_eq = [c for c in record.constraints if c.relation == "="]
    assert all(not c.flagged for c in unflagged_eq)


def test_flag_axioms_never_flagged():
    # plain nonnegativity rows are implied by the simplex itself
    h = hrep_from_rows(
        [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 1, 1), 1)], []
    )
    ineq_flags, eq_flags = flag_nontrivial(h, [3])
    assert all(not f for f, _ in ineq_flags)
    assert eq_flags == []


def test_flag_block_sum_rows_unflagged():
    h = hrep_from_rows([], [((1, 1, -0, 0), 1), ((0, 0, 1, 1), 1)])
    _, eq_flags = flag_nontrivial(h, [2, 2])
    assert all(not f for f, _ in eq_flags)


def test_flag_never_marks_axiom_shaped_rows(graphs):
    # single +/-1 coefficient with rhs 0, and block-sum rows, are probability
    # axioms; across all bundled fixtures they must come back unflagged
    from obscon.fixtures import FIXTURE_GRAPHS

    for name in ("iv", "iv_sequential", "frontdoor", "nested_pair_left",
                 "nested_pair_right", "mixed_cdegree", "triangle"):
        dag = parse_graph(FIXTURE_GRAPHS[name])
        merge = any(d.c_degree > 1 for d in dag.districts())
        result = derive_all(dag, DeriveOptions(merge=merge))
        for record in result.districts:
            if record.skipped:
                continue
            blocks = record.block_sizes
            offsets = []
            start = 0
            for size in blocks:
                offsets.append((start, start + size))
                start += size
            for c in record.constraints:
                vec = coeff_vector(c, record.system.n_rows)
                nonzero = [v for v in vec if v != 0]
                if c.relation == "<=" and c.rhs == 0 and nonzero == [-1]:
                    assert not c.flagged
                if c.relation == "=" and all(
                    len(set(vec[lo:hi])) == 1 for lo, hi in offsets
                ):
                    assert not c.flagged


def test_flag_block_pure_equalities_unflagged(graphs):
    result = iv_result(graphs)
    record = result.districts[1]
    for c in record.constraints:
        if c.relation != "=":
            continue
        vec = coeff_vector(c, record.system.n_rows)
        lo, hi = (0, 4) if any(vec[:4]) else (4, 8)
        if all(vec[i] == vec[lo] for i in range(lo, hi)) and not any(
            vec[i] for i in range(len(vec)) if not lo <= i < hi
        ):
            assert not c.flagged


def test_flag_dimension_mismatch(graphs):
    result = iv_result(graphs)
    record = result.districts[1]
    with pytest.raises(ValueError):
        flag_nontrivial(record.hrep, [4])


def test_flag_witness_violates(graphs):
    result = iv_result(graphs)
    record = result.districts[1]
    points = simplex_product_extreme_points(record.block_sizes)
    for constraint in record.constraints:
        if not constraint.flagged:
            continue
        point = points[constraint.witness]
        value = sum(
            coeff * point[row] for row, coeff in constraint.terms
        )
        if constraint.relation == "<=":
            assert value > constraint.rhs
        else:
            assert value != constraint.rhs


@pytest.mark.parametrize("block_sizes", [(2, 3, 1), (1, 4), (3, 2), (2, 2, 2)])
def test_flag_nontrivial_matches_a_vertex_scan(block_sizes):
    # the witness is the first vertex (first block fastest) at the row's max,
    # or, for an equality whose max is its rhs, the first vertex at its min
    rng = random.Random(sum(block_sizes) * 10 + len(block_sizes))
    points = simplex_product_extreme_points(block_sizes)
    dim = sum(block_sizes)

    def values(coeffs):
        return [int(sum(c * x for c, x in zip(coeffs, point))) for point in points]

    ineq, eq = [], []
    for _ in range(40):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(dim))
        low, high = min(values(coeffs)), max(values(coeffs))
        ineq.append((coeffs, rng.randint(low - 1, high + 1)))
        eq.append((coeffs, rng.choice((low, high, high, rng.randint(low - 1, high + 1)))))
    for _ in range(5):  # constant on each block, so on every vertex
        coeffs = tuple(c for size in block_sizes for c in [rng.randint(-3, 3)] * size)
        eq += [(coeffs, values(coeffs)[0]), (coeffs, values(coeffs)[0] + 1)]

    def scan(coeffs, rhs, equality):
        seen = values(coeffs)
        if max(seen) > rhs or (equality and max(seen) != rhs):
            return True, seen.index(max(seen))
        if equality and min(seen) != rhs:
            return True, seen.index(min(seen))
        return False, None

    ineq_flags, eq_flags = flag_nontrivial(HRep(tuple(ineq), tuple(eq)), block_sizes)
    assert ineq_flags == [scan(c, rhs, False) for c, rhs in ineq]
    assert eq_flags == [scan(c, rhs, True) for c, rhs in eq]
    # every branch is met: unflagged rows, and equalities flagged at their min
    assert {f for f, _ in ineq_flags} == {f for f, _ in eq_flags} == {True, False}
    assert any(max(values(c)) == rhs != min(values(c)) for c, rhs in eq)


def test_derive_requires_conditions():
    dag = parse_graph(
        "var Z 2\nvar X 2\nvar Y 2\nlatent U1\nlatent U2\n"
        "edge Z U2\nedge U2 U1\nedge U1 X\nedge U1 Y\nedge Z X\n"
    )
    with pytest.raises(ConditionsError, match="normalize"):
        derive_all(dag)


def test_derive_requires_merge_for_high_c_degree(graphs):
    with pytest.raises(ConditionsError, match="merge"):
        derive_all(graphs["triangle"])


def test_derive_merged_flagged_metadata(graphs):
    result = derive_all(graphs["triangle"], DeriveOptions(merge=True))
    assert result.merged
    assert result.meta["complete"] is False
    assert result.flagged_count == 0


@pytest.mark.parametrize("cap, complete", [(0, False), (3, True), (None, True)])
def test_derive_complete_under_ci_cap(graphs, cap, complete):
    # iv_sequential has five observed variables, so a separator has at most
    # three; a cap of 0 drops its one CI statement
    dag = graphs["iv_sequential"]
    result = derive_all(dag, DeriveOptions(max_ci_size=cap))
    assert len(dag.observed_names()) == 5
    assert len(result.ci_statements) == (0 if cap == 0 else 1)
    assert result.meta["complete"] is complete


def test_derive_skips_parentless_singletons(graphs):
    result = iv_result(graphs)
    by_members = {r.members: r for r in result.districts}
    assert by_members[("Z",)].skipped
    assert not by_members[("X", "Y")].skipped
    assert result.summary() == "14 constraints, 12 inequalities, 2 equalities, 4 flagged"


def test_derive_keeps_singletons_with_parents(graphs):
    result = derive_all(graphs["frontdoor"])
    by_members = {r.members: r for r in result.districts}
    assert not by_members[("M",)].skipped
    assert all(not c.flagged for c in by_members[("M",)].constraints)


def test_render_star_iv(graphs):
    result = iv_result(graphs)
    record = result.districts[1]
    texts = {render(c, record.system, graphs["iv"], "star") for c in record.constraints}
    assert "P*(X=0,Y=1|Z=0) + P*(X=0,Y=0|Z=1) <= 1" in texts


def test_render_observable_iv(graphs):
    result = iv_result(graphs)
    record = result.districts[1]
    flagged = [c for c in record.constraints if c.flagged]
    target = next(
        c for c in flagged
        if render(c, record.system, graphs["iv"], "star")
        == "P*(X=0,Y=1|Z=0) + P*(X=0,Y=0|Z=1) <= 1"
    )
    text = render(target, record.system, graphs["iv"], "observable")
    # conditioning sets print in canonical (declaration) order
    assert text == (
        "P(X=0|Z=0)*P(Y=1|Z=0,X=0) + P(X=0|Z=1)*P(Y=0|Z=1,X=0) <= 1"
    )


def test_render_modes_agree_numerically(graphs):
    # evaluating the observable product factor by factor matches the star
    # probability for any table
    dag = graphs["frontdoor"]
    rng = random.Random(3)
    table = table_from_dict(dag, structural_model_table(dag, rng))
    result = derive_all(dag)
    districts = {d.members: d for d in dag.districts()}
    for record in result.districts:
        if record.skipped:
            continue
        from obscon.response import star_factors

        for w1, w2 in record.system.row_labels:
            values = dict(w1.items)
            values.update(w2.items)
            product = Fraction(1)
            for member, cond in star_factors(dag, record.members):
                given = {n: values[n] for n in cond}
                product *= table.prob({**given, member: values[member]}) / table.prob(given)
            assert product == star_probability(
                table, dag, districts[record.members], w1, w2
            )


def test_evaluate_model_table_consistent(graphs):
    dag = graphs["iv"]
    result = derive_all(dag)
    rng = random.Random(101)
    for _ in range(10):
        table = table_from_dict(dag, structural_model_table(dag, rng))
        report = evaluate(result, dag, table)
        assert not report.falsified
        assert all(s.status == "satisfied" for s in report.constraint_statuses)


def test_evaluate_violator_margin_one(graphs):
    dag = graphs["iv"]
    table = parse_table(IV_VIOLATOR, dag)
    report = evaluate(derive_all(dag), dag, table)
    assert report.falsified
    violated = [s for s in report.constraint_statuses if s.status == "violated"]
    texts = {s.text: s.margin for s in violated}
    assert texts["P*(X=0,Y=1|Z=0) + P*(X=0,Y=0|Z=1) <= 1"] == 1


def test_evaluate_wolfe_on_merged_triangle(graphs):
    dag = graphs["triangle"]
    result = derive_all(dag, DeriveOptions(merge=True))
    table = table_from_dict(dag, {
        (0, 0, 0): Fraction(1, 2),
        (1, 1, 1): Fraction(1, 2),
    })
    report = evaluate(result, dag, table)
    # the distribution is known to be outside the three-latent model, but the
    # merged derivation is incomplete and cannot witness that
    assert not report.falsified


def test_evaluate_not_evaluable(graphs):
    dag = graphs["iv"]
    table = table_from_dict(dag, {(0, 0, 0): Fraction(1)})
    report = evaluate(derive_all(dag), dag, table)
    assert any(s.status == "not_evaluable" for s in report.constraint_statuses)
    assert not report.falsified


def test_evaluate_ci_violation(graphs):
    dag = graphs["iv_sequential"]
    result = derive_all(dag)
    # V4 copies V1 while V3 is independent noise, so conditioning on V3
    # cannot break the V1-V4 dependence
    probs = {}
    for v1 in (0, 1):
        for v3 in (0, 1):
            probs[(v1, v1, v3, v1, v1)] = Fraction(1, 4)
    table = table_from_dict(dag, probs)
    report = evaluate(result, dag, table)
    assert any(s.status == "violated" for s in report.ci_statuses)
    assert report.falsified


def test_evaluate_tolerance(graphs):
    dag = graphs["iv"]
    result = derive_all(dag)
    table = parse_table(IV_VIOLATOR, dag)
    loose = evaluate(result, dag, table, tolerance=Fraction(2))
    assert not loose.falsified


def test_evaluate_rejects_negative_tolerance(graphs):
    # a negative tolerance would report the CI statements' zero margins violated
    dag = graphs["mixed_cdegree"]
    result = derive_all(dag, DeriveOptions(merge=True))
    configs = list(product(*(range(dag.cardinality(n)) for n in dag.observed_names())))
    table = table_from_dict(dag, {c: Fraction(1, len(configs)) for c in configs})
    assert not evaluate(result, dag, table, Fraction(0)).falsified
    with pytest.raises(ValueError, match="tolerance"):
        evaluate(result, dag, table, Fraction(-1, 100))


@pytest.mark.parametrize("tolerance, kind", [(1e-9, "float"), ("1/10", "str"), (True, "bool")])
def test_evaluate_rejects_a_tolerance_of_another_type(graphs, tolerance, kind):
    # only None, an int or a Fraction: a float has no exact numerator, and
    # True is no tolerance of 1
    dag = graphs["iv"]
    result = derive_all(dag)
    table = parse_table(IV_VIOLATOR, dag)
    with pytest.raises(TypeError, match=f"tolerance must be an int or a Fraction, not {kind}$"):
        evaluate(result, dag, table, tolerance)


# two roots feeding one child: the CI statement A _||_ B has an empty given
TWO_ROOTS = "var A 2\nvar B 3\nvar Y 2\nedge A Y\nedge B Y\n"


def _random_tables(dag, rng):
    """(kind, table) pairs: a model table, dense and sparse random tables,
    a rounded model table read from decimals, and a dense table whose
    weights exceed 2**64."""
    configs = list(product(*(range(dag.cardinality(n)) for n in dag.observed_names())))
    model = structural_model_table(dag, rng)
    dense_w = {c: rng.randint(1, 997) for c in configs}
    support = rng.sample(configs, rng.randint(2, 3))
    sparse_w = {c: rng.randint(1, 9) for c in support}
    yield "structural", table_from_dict(dag, model)
    for kind, weights in (("dense", dense_w), ("sparse", sparse_w)):
        total = sum(weights.values())
        yield kind, table_from_dict(
            dag, {c: Fraction(w, total) for c, w in weights.items()})
    yield "decimal", parse_table(decimal_csv(dag, model), dag)
    wide_w = {c: rng.randint(2 ** 64, 2 ** 65) for c in configs}
    total = sum(wide_w.values())
    yield "wide", table_from_dict(dag, {c: Fraction(w, total) for c, w in wide_w.items()})


SCAN_GRAPHS = {
    **{name: text for name, text in FIXTURE_GRAPHS.items() if name != "bell_tripartite"},
    "two_roots": TWO_ROOTS,
    "i3322": BELL_I3322,
}


@pytest.mark.parametrize("name", sorted(SCAN_GRAPHS))
def test_evaluate_matches_scan_reference(name):
    # bell_tripartite is left out: its derivation alone takes 8-10 s. I3322's
    # dense tables satisfy every row, so only its sparse tables are asserted on
    dag = parse_graph(SCAN_GRAPHS[name])
    merge = any(d.c_degree > 1 for d in dag.districts())
    result = derive_all(dag, DeriveOptions(merge=merge))
    rng = random.Random(f"scan-{name}")
    statuses = {}
    for _ in range(2):
        for kind, table in _random_tables(dag, rng):
            for tolerance in (Fraction(1, 50), None):
                fast = evaluate(result, dag, table, tolerance)
                slow = evaluate_by_scan(result, dag, table, tolerance)
                assert fast == slow, (name, kind, tolerance)
                assert json.dumps(report_to_json(fast)) == json.dumps(report_to_json(slow))
            statuses.setdefault(kind, set()).update(
                s.status for s in fast.constraint_statuses)
            if kind == "decimal":
                assert fast.tolerance == Fraction(1, 10 ** 9)
            if kind == "wide":  # no fixed-width integer could hold these
                assert max(max(star_scaled(table, plan.stars)[1])
                           for plan in result.check_plans) > 2 ** 64
            if kind == "sparse":  # the mask marks the rows star_probability cannot read
                for plan in result.check_plans:
                    record = result.districts[plan.district_index]
                    district = District(record.members, ())
                    _, scaled, missing = star_scaled(table, plan.stars)
                    unread = [star_probability(table, dag, district, w1, w2) is None
                              for w1, w2 in record.system.row_labels]
                    assert missing == sum(1 << row for row, none in enumerate(unread) if none)
                    assert not any(compress(scaled, unread))
    assert set(statuses) == {"structural", "dense", "sparse", "decimal", "wide"}
    assert statuses["structural"] == {"satisfied"}
    if name != "triangle":  # its star terms are unconditional marginals
        assert "not_evaluable" in statuses["sparse"]
    if name == "two_roots":
        assert [s.statement.given for s in fast.ci_statuses] == [()]


def _split_tables(dag, rng):
    """Two random tables, one on the configurations where the first observed
    variable is 0 and one where it is not, so their star terms with that
    variable in a conditioning set are evaluable in one table only."""
    configs = list(product(*(range(dag.cardinality(n)) for n in dag.observed_names())))
    tables = []
    for support in ([c for c in configs if c[0] == 0], [c for c in configs if c[0] != 0]):
        weights = {c: rng.randint(1, 9) for c in support}
        total = sum(weights.values())
        tables.append(table_from_dict(
            dag, {c: Fraction(w, total) for c, w in weights.items()}))
    return tables


@pytest.mark.parametrize("name", ["iv", "mixed_cdegree"])
def test_check_plan_is_built_once_and_reused(name, monkeypatch):
    dag = parse_graph(FIXTURE_GRAPHS[name])
    options = DeriveOptions(merge=name == "mixed_cdegree")
    result = derive_all(dag, options)
    documents = [json.dumps(result_to_json(result, dag, texts=texts)) for texts in (False, True)]
    built = []

    def counted(*args):
        built.append(args[0])
        return check_plan(*args)

    check_plan = obscon.constraints._check_plan
    monkeypatch.setattr(obscon.constraints, "_check_plan", counted)
    rng = random.Random(f"reuse-{name}")
    table_a, table_b = _split_tables(dag, rng)
    model = table_from_dict(dag, structural_model_table(dag, rng))
    if name == "iv":
        violator = parse_table(IV_VIOLATOR, dag)
    else:
        configs = list(product(*(range(dag.cardinality(n)) for n in dag.observed_names())))
        weights = {c: rng.randint(1, 997) for c in configs}
        total = sum(weights.values())
        violator = table_from_dict(dag, {c: Fraction(w, total) for c, w in weights.items()})
    tables = (table_a, table_b, table_a, model, violator, model)
    reports = [evaluate(result, dag, table) for table in tables]
    derived = [index for index, record in enumerate(result.districts) if record.system]
    assert built == derived
    for table, report in zip(tables, reports):
        fresh = evaluate(derive_all(dag, options), dag, table)
        assert report == fresh
        assert json.dumps(report_to_json(report)) == json.dumps(report_to_json(fresh))
        assert report.lines() == fresh.lines()
    unevaluable = [
        {k for k, s in enumerate(report.constraint_statuses) if s.status == "not_evaluable"}
        for report in reports
    ]
    assert unevaluable[0] and unevaluable[1] and unevaluable[0] != unevaluable[1]
    assert unevaluable[2] == unevaluable[0]
    # the records a model table shares are not changed by a violating table
    assert {s.status for s in reports[3].constraint_statuses} == {"satisfied"}
    assert any(s.status == "violated" for s in reports[4].constraint_statuses)
    assert reports[5] == reports[3]
    assert documents == [
        json.dumps(result_to_json(result, dag, texts=texts)) for texts in (False, True)
    ]


@pytest.mark.parametrize("name", ["frontdoor", "mixed_cdegree"])
def test_conditions_are_checked_once_per_graph(name, monkeypatch):
    checked = []

    def counted(dag):
        checked.append(dag)
        return check(dag)

    check = obscon.graph._check_conditions
    monkeypatch.setattr(obscon.graph, "_check_conditions", counted)
    dag = parse_graph(FIXTURE_GRAPHS[name])
    result = derive_all(dag, DeriveOptions(merge=name == "mixed_cdegree"))
    for texts in (False, True):
        result_to_json(result, dag, texts=texts)
    touched = [dag] + ([result.derived_graph] if result.merged else [])
    assert sorted(map(id, checked)) == sorted(map(id, touched))


def test_constraint_status_contract(graphs):
    # tests/oracles.py and callers build statuses positionally; the names and
    # their order are part of the interface, and a status cannot be changed
    assert ConstraintStatus._fields == (
        "district_index", "constraint", "text", "status", "margin")
    constraint = Constraint(((0, 1), (2, -1)), "<=", 0, True, 3)
    status = ConstraintStatus(1, constraint, "P*(a) - P*(b) <= 0", "violated", Fraction(1, 3))
    assert (status.district_index, status.constraint, status.text, status.status,
            status.margin) == (1, constraint, "P*(a) - P*(b) <= 0", "violated", Fraction(1, 3))
    assert status == ConstraintStatus(
        district_index=1, constraint=constraint, text="P*(a) - P*(b) <= 0",
        status="violated", margin=Fraction(1, 3))
    for field in ConstraintStatus._fields:
        with pytest.raises(AttributeError):
            setattr(status, field, None)
    assert hash(status) == hash(ConstraintStatus(*status))
    dag = graphs["iv"]
    report = evaluate(derive_all(dag), dag, parse_table(IV_VIOLATOR, dag))
    assert all(type(s) is ConstraintStatus for s in report.constraint_statuses)


def test_table_parse_and_errors(graphs):
    dag = graphs["iv"]
    with pytest.raises(TableError, match="header"):
        parse_table("X,Z,Y,prob\n0,0,0,1\n", dag)
    with pytest.raises(TableError, match="sum"):
        parse_table("Z,X,Y,prob\n0,0,0,1/2\n", dag)
    with pytest.raises(TableError, match="duplicate"):
        parse_table("Z,X,Y,prob\n0,0,0,1/2\n0,0,0,1/2\n", dag)
    with pytest.raises(TableError, match="range"):
        parse_table("Z,X,Y,prob\n0,0,5,1\n", dag)
    with pytest.raises(TableError):
        parse_table("Z,X,Y,prob\n0,0,0,nope\n", dag)


def test_table_decimal_source_sets_tolerance(graphs):
    dag = graphs["iv"]
    table = parse_table("Z,X,Y,prob\n0,0,0,0.5\n1,0,0,0.5\n", dag)
    assert table.decimal_source
    report = evaluate(derive_all(dag), dag, table)
    assert report.tolerance == Fraction(1, 10 ** 9)
    exact = parse_table("Z,X,Y,prob\n0,0,0,1/2\n1,0,0,1/2\n", dag)
    assert not exact.decimal_source
    report = evaluate(derive_all(dag), dag, exact)
    assert report.tolerance == 0


def test_json_outputs_are_stable(graphs):
    dag = graphs["iv"]
    first = json.dumps(result_to_json(derive_all(dag), dag), indent=2)
    second = json.dumps(result_to_json(derive_all(dag), dag), indent=2)
    assert first == second
    payload = json.loads(first)
    assert payload["summary"]["total"] == 14
    # B is not written: the graph and the members fix it
    assert list(payload["districts"][1]["system"]) == ["members", "external_parents",
                                                       "row_labels"]


def dense_from_json(payload, entry):
    """A district's dense HRep and B, rebuilt from its schema-3 JSON entry:
    B from the document's ``derived_graph`` and the entry's ``members`` alone."""
    dag = parse_graph(payload["derived_graph"])
    (district,) = [d for d in dag.districts() if list(d.members) == entry["members"]]
    names, shape = district_shape(dag, district)
    assert list(names) == entry["system"]["members"] + entry["system"]["external_parents"]
    _, col_outcomes = FunctionalSystem(names, shape).columns()
    n_rows, n1 = len(entry["system"]["row_labels"]), entry["block_sizes"][0]
    ineq, eq = [], []
    for c in entry["constraints"]:
        vec = [0] * n_rows
        for row, coeff in zip(c["rows"], c["coeffs"], strict=True):
            vec[row] = coeff
        (ineq if c["relation"] == "<=" else eq).append((tuple(vec), c["rhs"]))
    matrix = [[0] * len(col_outcomes) for _ in range(n_rows)]
    for col, outcomes in enumerate(col_outcomes):
        for block, outcome in enumerate(outcomes):
            matrix[block * n1 + outcome][col] = 1
    return HRep(tuple(ineq), tuple(eq)), tuple(tuple(row) for row in matrix)


SCHEMA_GRAPHS = {
    **{name: text for name, text in FIXTURE_GRAPHS.items() if name != "bell_tripartite"},
    "chsh": BELL_CHSH,
    "i3322": BELL_I3322,
}


@pytest.mark.parametrize("name", sorted(SCHEMA_GRAPHS))
def test_schema2_json_loses_nothing(name):
    # schema 3 drops schema 2's col_labels and col_outcomes; B and the HRep
    # are rebuilt from the document alone
    dag = parse_graph(SCHEMA_GRAPHS[name])
    merge = any(d.c_degree > 1 for d in dag.districts())
    result = derive_all(dag, DeriveOptions(merge=merge))
    payload = json.loads(json.dumps(result_to_json(result, dag), indent=2))
    assert payload["schema"] == 3
    assert len(payload["districts"]) == len(result.districts)
    for record, entry in zip(result.districts, payload["districts"]):
        assert "hrep" not in entry
        if record.system is None:
            assert record.skipped and record.hrep is None
            assert entry["system"] is None and entry["constraints"] == []
            continue
        fs = record.system
        assert not record.skipped
        assert entry["system"]["row_labels"] == [
            {"w1": w1.as_dict(), "w2": w2.as_dict()} for w1, w2 in fs.row_labels
        ]
        assert not {"matrix", "col_labels", "col_outcomes"} & set(entry["system"])
        assert all(not key.startswith("text_") for c in entry["constraints"] for key in c)
        hrep, matrix = dense_from_json(payload, entry)
        assert hrep == record.hrep
        assert matrix == system_matrix(fs)
        assert v_to_h(VRep(tuple(zip(*matrix)))) == hrep
        flags = [(c.flagged, c.witness) for c in record.constraints]
        assert [(c["flagged"], c["witness"]) for c in entry["constraints"]] == flags


def counting_v_to_h(monkeypatch):
    """Wrap both conversions that ``derive_all`` calls, ``v_to_h`` and the
    closed form ``simplex_product_hrep``, as ``obscon.constraints`` binds
    them; returns the list of calls in order, each ("v_to_h", the points)
    or ("simplex_product_hrep", the block sizes)."""
    calls = []

    def counted(v, **kwargs):
        calls.append(("v_to_h", v.points))
        return v_to_h(v, **kwargs)

    def closed(block_sizes):
        calls.append(("simplex_product_hrep", tuple(block_sizes)))
        return simplex_product_hrep(block_sizes)

    monkeypatch.setattr(obscon.constraints, "v_to_h", counted)
    monkeypatch.setattr(obscon.constraints, "simplex_product_hrep", closed)
    return calls


def is_full_product(system) -> bool:
    """Whether the columns are every vertex of the product of the block
    simplices; the vertices are listed only when the counts agree."""
    points = set(system.columns_as_points())
    return (len(points) == math.prod(system.block_sizes)
            and points == set(simplex_product_extreme_points(system.block_sizes)))


def expected_conversions(result) -> list:
    """The calls ``counting_v_to_h`` should see: one per distinct shape of
    the derived districts, in first-met order, by the closed form exactly
    for the full products and by ``v_to_h`` of the columns otherwise."""
    first = {}
    for record in result.districts:
        if record.skipped:
            continue
        shape = record.system.shape
        if shape not in first:
            first[shape] = (
                ("simplex_product_hrep", record.block_sizes)
                if is_full_product(record.system)
                else ("v_to_h", tuple(record.system.columns_as_points())))
    return list(first.values())


# sparse 18-variable DAGs whose 14 district systems repeat shapes; seed 0
# has a 256-column district whose conversion takes minutes, and seed 3 fails
# the structural conditions
REPEATED_SHAPE_SEEDS = (1, 2)


@pytest.mark.parametrize("seed", REPEATED_SHAPE_SEEDS)
def test_districts_of_one_shape_share_one_conversion(monkeypatch, seed):
    calls = counting_v_to_h(monkeypatch)
    result = derive_all(sparse_dag(random.Random(seed)), DeriveOptions(timings=True))
    derived = [r for r in result.districts if not r.skipped]
    shapes = [r.system.shape for r in derived]
    keys = [(tuple(r.system.columns_as_points()), r.block_sizes) for r in derived]
    assert len(calls) == len(set(calls)) == len(set(shapes)) < len(shapes)
    # each shape converted once, and v_to_h exactly for those not full products
    assert calls == expected_conversions(result)
    assert {route for route, _ in calls} == {"v_to_h", "simplex_product_hrep"}
    # measured, not assumed: the shapes and the column sets pair one to one
    assert len(set(keys)) == len(set(shapes)) == len(set(zip(shapes, keys)))
    assert result.meta["timings"]["conversions"] == len(calls)


def test_a_full_product_district_never_reaches_double_description(monkeypatch):
    # W's 256 response functions realize all 2 ** 8 combinations of its
    # outcomes over the 8 parent configurations
    text = ("var P0 2\nvar P1 2\nvar P2 2\nvar W 2\n"
            "edge P0 W\nedge P1 W\nedge P2 W\n")

    def refuse(*args, **kwargs):
        raise AssertionError("a full product reached v_to_h")

    monkeypatch.setattr(obscon.constraints, "v_to_h", refuse)
    result = derive_all(parse_graph(text))
    (record,) = [r for r in result.districts if not r.skipped]
    assert record.members == ("W",) and record.block_sizes == (2,) * 8
    relations = [c.relation for c in record.constraints]
    assert (relations.count("<="), relations.count("=")) == (16, 8)
    assert not any(c.flagged for c in record.constraints)
    assert record.hrep == v_to_h(VRep(tuple(record.system.columns_as_points())))


def test_the_full_product_rule_agrees_with_column_enumeration(monkeypatch):
    # the shape rule against the listed columns, on every multi-member
    # district that a derive would build: each fixture and bench graph,
    # merged where needed, and normalized random DAGs up to 4,096 columns
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH_DIR)
    from workloads import WORKLOADS

    graphs = {name: parse_graph(text) for name, text in FIXTURE_GRAPHS.items()}
    graphs.update((name, parse_graph(w.graph.text())) for name, w in WORKLOADS.items())
    rng = random.Random(7)
    graphs.update((f"random {k}", normalize(random_dag(rng))[0]) for k in range(400))
    verdicts = {}
    for name, dag in graphs.items():
        if any(d.c_degree > 1 for d in dag.districts()):
            dag, _ = merge_district_latents(dag)
        for district in dag.districts():
            if len(district.members) < 2:
                continue
            try:
                system = build_functional_system(dag, district, column_limit=4096)
            except ColumnLimitError:
                continue
            assert system.full_product == is_full_product(system), (name, district.members)
            verdicts[name, district.members] = system.full_product
    assert verdicts["triangle", ("V1", "V2", "V3")]
    # i3322 (A,B); sparse14 (V02,V05), (V03,V07), (V10,V14); mixed_check two
    workload = [full for (name, _), full in verdicts.items() if name in WORKLOADS]
    assert len(workload) == 6 and not any(workload)
    assert set(verdicts.values()) == {True, False}
    assert sum(name.startswith("random") for name, _ in verdicts) > 30


def test_timings_count_the_conversions_of_each_bench_workload(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH_DIR)
    from workloads import WORKLOADS

    got = {}
    for name, workload in WORKLOADS.items():
        options = DeriveOptions(merge=workload.merge, timings=True)
        result = derive_all(parse_graph(workload.graph.text()), options)
        derived = sum(not record.skipped for record in result.districts)
        got[name] = (result.meta["timings"]["conversions"], derived)
    assert got == {"sparse14": (3, 10), "i3322": (1, 1), "mixed_check": (2, 2)}


def test_each_derive_all_converts_again(monkeypatch):
    calls = counting_v_to_h(monkeypatch)
    dag = sparse_dag(random.Random(REPEATED_SHAPE_SEEDS[0]))
    first = derive_all(dag)
    converted = len(calls)
    second = derive_all(dag)
    assert len(calls) == 2 * converted and calls[:converted] == calls[converted:]
    assert calls[:converted] == expected_conversions(first)
    assert first == second


def test_every_record_matches_a_fresh_conversion_of_its_own_system(monkeypatch):
    # a reused conversion is the one a district's own columns would get
    calls = counting_v_to_h(monkeypatch)
    rng = random.Random(4242)
    dags = [random_dag(rng, exogenous_latents=exogenous)
            for exogenous in (False, True) for _ in range(50)]
    dags += [sparse_dag(random.Random(seed)) for seed in REPEATED_SHAPE_SEEDS]
    derived = 0
    for dag in dags:
        dag, _ = normalize(dag)
        done = len(calls)
        try:  # the limit keeps merged districts small: 21 random graphs go over it
            result = derive_all(dag, DeriveOptions(merge=True, column_limit=256))
        except ColumnLimitError:
            del calls[done:]
            continue
        for record in result.districts:
            if record.skipped:
                continue
            derived += 1
            fs = record.system
            fresh = v_to_h(VRep(tuple(fs.columns_as_points())))
            ineq_flags, eq_flags = flag_nontrivial(fresh, fs.block_sizes)
            assert record.hrep == fresh, dag.to_text()
            flags = [(c.flagged, c.witness) for c in record.constraints]
            assert flags == ineq_flags + eq_flags
    assert derived > 120 and len(calls) < derived


def counting(monkeypatch, module, name):
    """Wrap ``module.name``; returns the list of each call's arguments."""
    calls = []
    wrapped = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_repeated_shape_gets_the_system_a_fresh_build_gives(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH_DIR)
    from workloads import sparse_graph

    built = counting(monkeypatch, obscon.constraints, "build_functional_system")
    rng = random.Random(2002)
    dags = [random_dag(rng, exogenous_latents=exogenous)
            for exogenous in (False, True) for _ in range(100)]
    dags += [sparse_dag(random.Random(seed)) for seed in REPEATED_SHAPE_SEEDS]
    dags += [parse_graph(sparse_graph(seed).text()) for seed in range(5)]
    # M2's parents are (E, M1) and N2's are (N1, F): the same positions in
    # another order, so two shapes
    dags.append(parse_graph(
        "var E 2\nvar M1 2\nvar M2 2\nvar N1 2\nvar F 2\nvar N2 2\nlatent U1\nlatent U2\n"
        "edge E M2\nedge M1 M2\nedge N1 N2\nedge F N2\n"
        "edge U1 M1\nedge U1 M2\nedge U2 N1\nedge U2 N2\n"))
    reused = 0
    for dag in dags:
        dag, _ = normalize(dag)
        done = len(built)
        try:
            result = derive_all(dag, DeriveOptions(merge=True, column_limit=256))
        except ColumnLimitError:
            continue
        districts = {d.members: d for d in result.derived_graph.districts()}
        for record in result.districts:
            if record.skipped or record.members in [args[1].members for args in built[done:]]:
                continue
            reused += 1
            fresh = build_functional_system(result.derived_graph, districts[record.members], 256)
            for field in FunctionalSystem._fields + ("row_labels",):
                assert getattr(record.system, field) == getattr(fresh, field), (
                    dag.to_text(), record.members, field)
    assert reused > 70


# M2's parents are (E, M1) and N2's are (N1, F): the same positions in
# another order, so two shapes
TWO_SHAPES = (
    "var E 2\nvar M1 2\nvar M2 2\nvar N1 2\nvar F 2\nvar N2 2\nlatent U1\nlatent U2\n"
    "edge E M2\nedge M1 M2\nedge N1 N2\nedge F N2\n"
    "edge U1 M1\nedge U1 M2\nedge U2 N1\nedge U2 N2\n")


def test_district_shape_reads_positions_not_names():
    dag = parse_graph(TWO_SHAPES)
    shapes = {d.members: district_shape(dag, d) for d in dag.districts()}
    assert shapes == {
        ("E",): (("E",), (1, (2,), ((),), (0,))),
        ("M1", "M2"): (("M1", "M2", "E"), (2, (2, 2, 2), ((), (2, 0)), (0, 1))),
        ("N1", "N2"): (("N1", "N2", "F"), (2, (2, 2, 2), ((), (0, 2)), (0, 1))),
        ("F",): (("F",), (1, (2,), ((),), (0,))),
    }
    # {M1, M2} renamed in another graph: the same shape
    renamed = parse_graph("var P 3\nvar Q 2\nvar R 2\nvar S 2\nlatent V\n"
                          "edge Q S\nedge R S\nedge V R\nedge V S\n")
    (district,) = [d for d in renamed.districts() if len(d.members) > 1]
    assert district_shape(renamed, district) == (("R", "S", "Q"), shapes[("M1", "M2")][1])
    # declared in the other order, the members swap positions: another shape
    swapped = parse_graph("var S 2\nvar R 2\nvar Q 2\nlatent V\n"
                          "edge Q S\nedge R S\nedge V R\nedge V S\n")
    (district,) = [d for d in swapped.districts() if len(d.members) > 1]
    assert district_shape(swapped, district)[1] == (2, (2, 2, 2), ((1, 2), ()), (1, 0))


def test_each_shape_is_built_and_converted_once(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH_DIR)
    from workloads import WORKLOADS

    built = counting(monkeypatch, obscon.constraints, "build_functional_system")
    converted = counting_v_to_h(monkeypatch)
    rng = random.Random(2525)
    dags = [random_dag(rng, exogenous_latents=exogenous)
            for exogenous in (False, True) for _ in range(50)]
    dags += [sparse_dag(random.Random(seed)) for seed in REPEATED_SHAPE_SEEDS]
    dags.append(parse_graph(WORKLOADS["sparse14"].graph.text()))
    derived = repeated = closed = 0
    for dag in dags:
        dag, _ = normalize(dag)
        del built[:], converted[:]
        try:  # at 256 columns, one of these graphs takes 45 s to convert
            result = derive_all(dag, DeriveOptions(merge=True, column_limit=64, timings=True))
        except ColumnLimitError:
            continue
        shapes = [record.system.shape for record in result.districts if not record.skipped]
        first = list(dict.fromkeys(shapes))
        assert [district_shape(result.derived_graph, args[1])[1] for args in built] == first
        assert len(converted) == result.meta["timings"]["conversions"] == len(first)
        assert converted == expected_conversions(result)
        closed += sum(route == "simplex_product_hrep" for route, _ in converted)
        derived += len(shapes)
        repeated += len(shapes) - len(first)
    assert derived > 100 and repeated > 25
    assert closed > 50 and derived - repeated - closed > 5  # both routes are taken


def test_sparse14_derives_each_moral_graph_and_shape_once(monkeypatch):
    # 91 observed pairs have 58 distinct ancestral sets; 10 districts, 3 shapes
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH_DIR)
    from workloads import WORKLOADS

    moral = counting(monkeypatch, obscon.independence, "_moral")
    built = counting(monkeypatch, obscon.constraints, "build_functional_system")
    dag = parse_graph(WORKLOADS["sparse14"].graph.text())
    for _ in range(2):
        del moral[:], built[:]
        result = derive_all(dag)
        assert (len(moral), len(built)) == (58, 3)
        assert sum(not record.skipped for record in result.districts) == 10


def test_evaluate_reuses_the_derived_graph(graphs, monkeypatch):
    # the merged working graph is kept on the result, never parsed back from
    # text by evaluate or by result_to_json
    dag = graphs["mixed_cdegree"]
    result = derive_all(dag, DeriveOptions(merge=True))
    assert result.derived_graph != dag
    assert result.derived_graph_text == result.derived_graph.to_text()

    def refuse(text):
        raise AssertionError("evaluate parsed a graph")

    monkeypatch.setattr(obscon.constraints, "parse_graph", refuse)
    rng = random.Random(5)
    table = table_from_dict(dag, structural_model_table(dag, rng))
    report = evaluate(result, dag, table)
    assert not report.falsified
    assert {s.district_index for s in report.constraint_statuses} == {
        index for index, record in enumerate(result.districts) if record.constraints
    }
    assert result_to_json(result, dag, texts=True)["derived_graph"] == result.derived_graph_text


def test_report_json(graphs):
    dag = graphs["iv"]
    table = parse_table(IV_VIOLATOR, dag)
    report = evaluate(derive_all(dag), dag, table)
    payload = report_to_json(report)
    assert payload["falsified"] is True
    assert any(entry["status"] == "violated" for entry in payload["constraints"])


def test_star_probability_matches_push_through(graphs):
    # the stated consistency oracle: push a response distribution through B,
    # build the joint, and read the star terms back exactly
    dag = graphs["iv"]
    result = derive_all(dag)
    record, district = result.districts[1], dag.districts()[1]
    fs = record.system
    rng = random.Random(7)
    r = positive_simplex_point(rng, fs.n_cols)
    pushed = multiply(fs, r)
    pz = positive_simplex_point(rng, 2)
    probs = {}
    for row, (w1, w2) in enumerate(fs.row_labels):
        z = w2["Z"]
        probs[(z, w1["X"], w1["Y"])] = pushed[row] * pz[z]
    table = table_from_dict(dag, probs)
    for row, (w1, w2) in enumerate(fs.row_labels):
        assert star_probability(table, dag, district, w1, w2) == pushed[row]


IV = parse_graph(FIXTURE_GRAPHS["iv"])
# fails C1: the latent U2 has the latent parent U1
NESTED = parse_graph("var A 2\nvar B 2\nlatent U1\nlatent U2\nedge U1 U2\nedge U2 A\nedge U1 B\n")
# IV's variables, but X takes three values
IV_X3 = parse_graph(FIXTURE_GRAPHS["iv"].replace("var X 2", "var X 3"))


def _iv_row():
    record = derive_all(IV).districts[1]
    return record.constraints[0], record.system


@pytest.mark.parametrize("call, expected", [
    (lambda: HiddenDag([Variable("A", "observed", 2), Variable("A", "latent")], []),
     GraphStructureError("duplicate variable name 'A'")),
    (lambda: IV == "x", False),
    (lambda: IV.cardinality("U"), ValueError("latent variable 'U' has no cardinality")),
    (lambda: IV.observed_ancestors(["U"]), ValueError("'U' is not an observed variable")),
    (lambda: d_separated(IV, [], ["Y"], ["X"]), True),
    (lambda: render(*_iv_row(), None, "latex"), ValueError("unknown mode 'latex'")),
    (lambda: render(*_iv_row(), None, "observable"),
     ValueError("observable mode needs the graph")),
    (lambda: evaluate(derive_all(IV), IV, parse_table("A,B,prob\n0,0,1\n", NESTED)),
     ValueError("table variables do not match the graph")),
    (lambda: evaluate(derive_all(IV), IV,
                      parse_table("Z,X,Y,prob\n0,0,0,1/2\n0,2,0,1/2\n", IV_X3)),
     ValueError("table cardinalities do not match the graph")),
    (lambda: extreme_rays([]), ValueError("no constraint rows")),
    (lambda: build_functional_system(NESTED, NESTED.districts()[0]),
     ValueError("graph violates the structural conditions; normalize it first")),
], ids=["duplicate-name", "eq-other-type", "latent-cardinality", "latent-ancestors",
        "empty-side-separated", "unknown-render-mode", "observable-without-graph",
        "table-of-other-variables", "table-of-other-cardinalities", "no-rows",
        "build-failing-conditions"])
def test_library_checks(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as info:
            call()
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)
    else:
        assert call() is expected
