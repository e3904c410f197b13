import json
import random
from fractions import Fraction
from itertools import product

import pytest

import obscon.constraints
import obscon.graph
from obscon import (
    ConditionsError,
    DeriveOptions,
    HRep,
    JointTable,
    VRep,
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
from obscon.response import Configuration, star_probability
from obscon.tables import TableError, parse_table

from obscon.fixtures import FIXTURE_GRAPHS

from conftest import BELL_CHSH, BELL_I3322
from oracles import (
    coeff_vector,
    evaluate_by_scan,
    multiply,
    positive_simplex_point,
    simplex_product_extreme_points,
    structural_model_table,
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
    h = HRep.from_rows(
        [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 1, 1), 1)], []
    )
    ineq_flags, eq_flags = flag_nontrivial(h, [3])
    assert all(not f for f, _ in ineq_flags)
    assert eq_flags == []


def test_flag_block_sum_rows_unflagged():
    h = HRep.from_rows([], [((1, 1, -0, 0), 1), ((0, 0, 1, 1), 1)])
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
    table = JointTable.from_dict(dag, structural_model_table(dag, rng))
    result = derive_all(dag)
    for record in result.districts:
        if record.skipped:
            continue
        from obscon.response import star_factors

        for w1, w2 in record.system.row_labels:
            values = dict(w1.items)
            values.update(w2.items)
            product = Fraction(1)
            for member, cond in star_factors(dag, record.system.district):
                product *= table.conditional(
                    {member: values[member]}, {n: values[n] for n in cond}
                )
            assert product == star_probability(
                table, dag, record.system.district, w1, w2
            )


def test_evaluate_model_table_consistent(graphs):
    dag = graphs["iv"]
    result = derive_all(dag)
    rng = random.Random(101)
    for _ in range(10):
        table = JointTable.from_dict(dag, structural_model_table(dag, rng))
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
    table = JointTable.from_dict(dag, {
        (0, 0, 0): Fraction(1, 2),
        (1, 1, 1): Fraction(1, 2),
    })
    report = evaluate(result, dag, table)
    # the distribution is known to be outside the three-latent model, but the
    # merged derivation is incomplete and cannot witness that
    assert not report.falsified


def test_evaluate_not_evaluable(graphs):
    dag = graphs["iv"]
    table = JointTable.from_dict(dag, {(0, 0, 0): Fraction(1)})
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
    table = JointTable.from_dict(dag, probs)
    report = evaluate(result, dag, table)
    assert any(s.status == "violated" for s in report.ci_statuses)
    assert report.falsified


def test_evaluate_tolerance(graphs):
    dag = graphs["iv"]
    result = derive_all(dag)
    table = parse_table(IV_VIOLATOR, dag)
    loose = evaluate(result, dag, table, tolerance=Fraction(2))
    assert not loose.falsified


# two roots feeding one child: the CI statement A _||_ B has an empty given
TWO_ROOTS = "var A 2\nvar B 3\nvar Y 2\nedge A Y\nedge B Y\n"


def _decimal_csv(dag, probs, places=12):
    """``probs`` rounded to ``places`` decimals (the largest entry absorbs the
    rounding) and written as a decimal CSV table."""
    unit = Fraction(1, 10 ** places)
    rounded = {k: round(p / unit) * unit for k, p in probs.items()}
    top = max(rounded, key=rounded.get)
    rounded[top] += 1 - sum(rounded.values())
    lines = [",".join(dag.observed_names()) + ",prob"]
    for config, p in sorted(rounded.items()):
        if p:
            digits = f"{p.numerator * 10 ** places // p.denominator:0{places + 1}d}"
            lines.append(",".join(map(str, config))
                         + f",{digits[:-places]}.{digits[-places:]}")
    return "\n".join(lines) + "\n"


def _random_tables(dag, rng):
    """(kind, table) pairs: a model table, dense and sparse random tables,
    and a rounded model table read from decimals."""
    configs = list(product(*(range(dag.cardinality(n)) for n in dag.observed_names())))
    model = structural_model_table(dag, rng)
    dense_w = {c: rng.randint(1, 997) for c in configs}
    support = rng.sample(configs, rng.randint(2, 3))
    sparse_w = {c: rng.randint(1, 9) for c in support}
    yield "structural", JointTable.from_dict(dag, model)
    for kind, weights in (("dense", dense_w), ("sparse", sparse_w)):
        total = sum(weights.values())
        yield kind, JointTable.from_dict(
            dag, {c: Fraction(w, total) for c, w in weights.items()})
    yield "decimal", parse_table(_decimal_csv(dag, model), dag)


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
    assert set(statuses) == {"structural", "dense", "sparse", "decimal"}
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
        tables.append(JointTable.from_dict(
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
    table_a, table_b = _split_tables(dag, random.Random(f"reuse-{name}"))
    reports = [evaluate(result, dag, table) for table in (table_a, table_b, table_a)]
    derived = [index for index, record in enumerate(result.districts) if record.system]
    assert built == derived
    for table, report in zip((table_a, table_b, table_a), reports):
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
    # the first four columns of B realize row 0 of block 0
    outcomes = payload["districts"][1]["system"]["col_outcomes"]
    assert [column[0] for column in outcomes[:4]] == [0, 0, 0, 0]


def dense_from_json(entry):
    """A district's dense HRep and B, rebuilt from its schema-2 JSON entry."""
    system = entry["system"]
    n_rows, n_cols = len(system["row_labels"]), len(system["col_outcomes"])
    ineq, eq = [], []
    for c in entry["constraints"]:
        vec = [0] * n_rows
        for row, coeff in zip(c["rows"], c["coeffs"], strict=True):
            vec[row] = coeff
        (ineq if c["relation"] == "<=" else eq).append((tuple(vec), c["rhs"]))
    n1 = n_rows // len(system["col_outcomes"][0])
    matrix = [[0] * n_cols for _ in range(n_rows)]
    for col, outcomes in enumerate(system["col_outcomes"]):
        for block, outcome in enumerate(outcomes):
            matrix[block * n1 + outcome][col] = 1
    return HRep(tuple(ineq), tuple(eq)), tuple(tuple(row) for row in matrix)


SCHEMA2_GRAPHS = {
    **{name: text for name, text in FIXTURE_GRAPHS.items() if name != "bell_tripartite"},
    "chsh": BELL_CHSH,
    "i3322": BELL_I3322,
}


@pytest.mark.parametrize("name", sorted(SCHEMA2_GRAPHS))
def test_schema2_json_loses_nothing(name):
    dag = parse_graph(SCHEMA2_GRAPHS[name])
    merge = any(d.c_degree > 1 for d in dag.districts())
    result = derive_all(dag, DeriveOptions(merge=merge))
    payload = json.loads(json.dumps(result_to_json(result, dag), indent=2))
    assert payload["schema"] == 2
    assert len(payload["districts"]) == len(result.districts)
    for record, entry in zip(result.districts, payload["districts"]):
        assert "hrep" not in entry
        if record.system is None:
            assert record.skipped and record.hrep is None
            assert entry["system"] is None and entry["constraints"] == []
            continue
        fs = record.system
        assert not record.skipped
        assert record.hrep == v_to_h(VRep(tuple(fs.columns_as_points())))
        assert "matrix" not in entry["system"]
        assert entry["system"]["row_labels"] == [
            {"w1": w1.as_dict(), "w2": w2.as_dict()} for w1, w2 in fs.row_labels
        ]
        assert entry["system"]["col_labels"] == [list(c) for c in fs.col_labels]
        assert all(not key.startswith("text_") for c in entry["constraints"] for key in c)
        hrep, matrix = dense_from_json(entry)
        assert hrep == record.hrep
        assert matrix == fs.matrix
        flags = [(c.flagged, c.witness) for c in record.constraints]
        assert [(c["flagged"], c["witness"]) for c in entry["constraints"]] == flags


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
    table = JointTable.from_dict(dag, structural_model_table(dag, rng))
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


def test_star_vector_matches_push_through(graphs):
    # the stated consistency oracle: push a response distribution through B,
    # build the joint, and read the star terms back exactly
    dag = graphs["iv"]
    result = derive_all(dag)
    record = result.districts[1]
    fs = record.system
    rng = random.Random(7)
    r = positive_simplex_point(rng, fs.n_cols)
    pushed = multiply(fs, r)
    pz = positive_simplex_point(rng, 2)
    probs = {}
    for row, (w1, w2) in enumerate(fs.row_labels):
        z = w2["Z"]
        probs[(z, w1["X"], w1["Y"])] = pushed[row] * pz[z]
    table = JointTable.from_dict(dag, probs)
    for row, (w1, w2) in enumerate(fs.row_labels):
        assert star_probability(table, dag, fs.district, w1, w2) == pushed[row]
