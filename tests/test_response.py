import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from obscon import (
    build_functional_system,
    eval_response,
    parse_graph,
    response_levels,
    star_probability,
)
from obscon.fixtures import FIXTURE_GRAPHS
from obscon.response import Configuration, enumerate_configs
from obscon.tables import JointTable

from conftest import BELL_I3322

from oracles import (
    compatible_responses,
    encode_response,
    multiply,
    positive_simplex_point,
)

# the published 8x16 system for the binary instrumental-variable district
IV_B_MATRIX = [
    [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1],
    [1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1],
]

# the corresponding (x, y, z) row labels, in order
IV_ROW_TABLE = [
    (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
    (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1),
]


def iv_district(graphs):
    dag = graphs["iv"]
    return dag, dag.districts()[1]


def test_response_levels_iv(graphs):
    dag = graphs["iv"]
    spec_x = response_levels(dag, "X")
    assert spec_x.level_count == 4
    assert spec_x.parent_order == ("Z",)
    spec_z = response_levels(dag, "Z")
    assert spec_z.level_count == 2
    assert spec_z.parent_order == ()


def test_response_levels_ternary_two_parents():
    dag = parse_graph(
        "var A 2\nvar B 2\nvar W 3\nedge A W\nedge B W\n"
    )
    assert response_levels(dag, "W").level_count == 3 ** 4


def test_eval_response_constant_zero(graphs):
    spec = response_levels(graphs["iv"], "X")
    for z in (0, 1):
        assert eval_response(spec, 0, {"Z": z}) == 0


def test_eval_response_identity_level(graphs):
    spec = response_levels(graphs["iv"], "X")
    level = encode_response(spec, [0, 1])
    assert eval_response(spec, level, {"Z": 0}) == 0
    assert eval_response(spec, level, {"Z": 1}) == 1


def test_eval_response_parentless(graphs):
    spec = response_levels(graphs["iv"], "Z")
    assert eval_response(spec, 1, {}) == 1
    assert eval_response(spec, 0, {}) == 0


def test_eval_response_range_errors(graphs):
    spec = response_levels(graphs["iv"], "X")
    with pytest.raises(ValueError):
        eval_response(spec, 4, {"Z": 0})
    with pytest.raises(KeyError):
        eval_response(spec, 0, {})


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_response_enccode_decode_round_trip(data):
    card = data.draw(st.integers(min_value=2, max_value=3))
    n_parents = data.draw(st.integers(min_value=0, max_value=2))
    lines = [f"var P{i} 2\n" for i in range(n_parents)]
    lines.append(f"var W {card}\n")
    lines += [f"edge P{i} W\n" for i in range(n_parents)]
    dag = parse_graph("".join(lines))
    spec = response_levels(dag, "W")
    level = data.draw(st.integers(min_value=0, max_value=spec.level_count - 1))
    outputs = [
        eval_response(spec, level, cfg)
        for cfg in sorted(
            enumerate_configs(spec.parent_order, spec.parent_cards),
            key=spec.config_index,
        )
    ]
    assert encode_response(spec, outputs) == level


def test_compatible_responses_first_row(graphs):
    dag, district = iv_district(graphs)
    w1 = Configuration.make(("X", "Y"), (0, 0))
    w2 = Configuration.make(("Z",), (0,))
    assert compatible_responses(dag, district, w1, w2) == {0, 1, 2, 3}


def test_compatible_responses_singleton(graphs):
    dag = graphs["iv"]
    district = dag.districts()[0]
    w1 = Configuration.make(("Z",), (0,))
    w2 = Configuration.make((), ())
    assert compatible_responses(dag, district, w1, w2) == {0}


def test_compatible_responses_partition(graphs):
    dag, district = iv_district(graphs)
    for z in (0, 1):
        w2 = Configuration.make(("Z",), (z,))
        seen = []
        for y in (0, 1):
            for x in (0, 1):
                w1 = Configuration.make(("X", "Y"), (x, y))
                seen.append(compatible_responses(dag, district, w1, w2))
        union = set().union(*seen)
        assert union == set(range(16))
        assert sum(len(s) for s in seen) == 16


def test_build_functional_system_iv_golden(graphs):
    dag, district = iv_district(graphs)
    fs = build_functional_system(dag, district)
    assert [list(row) for row in fs.matrix] == IV_B_MATRIX
    labels = [
        (w1["X"], w1["Y"], w2["Z"]) for w1, w2 in fs.row_labels
    ]
    assert labels == IV_ROW_TABLE


def test_build_functional_system_singleton_identity(graphs):
    dag = graphs["iv"]
    fs = build_functional_system(dag, dag.districts()[0])
    assert fs.matrix == ((1, 0), (0, 1))


def test_build_functional_system_block_sums(graphs):
    dag = graphs["iv_sequential"]
    districts = {d.members: d for d in dag.districts()}
    fs = build_functional_system(dag, districts[("V2", "V3")])
    assert fs.n_rows == 8 and fs.n_cols == 16
    for block in fs.row_blocks:
        for col in range(fs.n_cols):
            assert sum(fs.matrix[r][col] for r in block) == 1


def test_build_functional_system_rejects_high_c_degree(graphs):
    dag = graphs["triangle"]
    with pytest.raises(ValueError, match="c-degree"):
        build_functional_system(dag, dag.districts()[0])


def test_build_functional_system_cost_guard(graphs):
    from obscon import ColumnLimitError

    # the guard names the district's full column count, not a partial product
    for name, members, columns in (("iv", ("X", "Y"), 16),
                                   ("bell_tripartite", ("V1", "V2", "V3"), 64)):
        dag = graphs[name]
        district = next(d for d in dag.districts() if d.members == members)
        with pytest.raises(ColumnLimitError) as info:
            build_functional_system(dag, district, column_limit=10)
        assert info.value.estimate == columns


# pinned SHA-256 of repr((col_labels, col_outcomes)) of the district system
@pytest.mark.parametrize("text, n_blocks, digest", [
    pytest.param(FIXTURE_GRAPHS["bell_tripartite"], 8,
                 "78894e8786f7917cd7d012e03d8dc562b9c07cde8188e68e5f6732494b2a4b8b",
                 id="bell_tripartite"),
    pytest.param(BELL_I3322, 9,
                 "54403c58807ef756a8757032c8d5b12aae39c86f0bec9173c6cde6cb637aa97e",
                 id="i3322"),
])
def test_build_functional_system_wide_column_order(text, n_blocks, digest):
    dag = parse_graph(text)
    (district,) = [d for d in dag.districts() if len(d.members) > 1]
    fs = build_functional_system(dag, district)
    assert fs.n_cols == 64 and len(fs.col_outcomes[0]) == n_blocks
    blob = repr((fs.col_labels, fs.col_outcomes)).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_column_count_formula(graphs):
    for name in ("iv", "iv_sequential", "frontdoor", "nested_pair_right"):
        dag = graphs[name]
        for district in dag.districts():
            fs = build_functional_system(dag, district)
            expected = 1
            for m in district.members:
                expected *= response_levels(dag, m).level_count
            assert fs.n_cols == expected


def test_star_probability_iv(graphs):
    dag, district = iv_district(graphs)
    rng = random.Random(3)
    probs = {}
    for z in (0, 1):
        pz = Fraction(1, 2)
        cell = positive_simplex_point(rng, 4)
        for i, (x, y) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
            probs[(z, x, y)] = pz * cell[i]
    table = JointTable.from_dict(dag, probs)
    for z in (0, 1):
        for x in (0, 1):
            for y in (0, 1):
                got = star_probability(
                    table, dag, district,
                    Configuration.make(("X", "Y"), (x, y)),
                    Configuration.make(("Z",), (z,)),
                )
                want = (
                    table.conditional({"Y": y}, {"X": x, "Z": z})
                    * table.conditional({"X": x}, {"Z": z})
                )
                assert got == want


def test_star_probability_frontdoor(graphs):
    dag = graphs["frontdoor"]
    district = dag.districts()[0]
    assert district.members == ("A", "Y")
    rng = random.Random(5)
    values = positive_simplex_point(rng, 8)
    probs = {}
    i = 0
    for a in (0, 1):
        for m in (0, 1):
            for y in (0, 1):
                probs[(a, m, y)] = values[i]
                i += 1
    table = JointTable.from_dict(dag, probs)
    got = star_probability(
        table, dag, district,
        Configuration.make(("A", "Y"), (0, 0)),
        Configuration.make(("M",), (1,)),
    )
    want = table.prob({"A": 0}) * table.conditional({"Y": 0}, {"A": 0, "M": 1})
    assert got == want


def test_star_probability_independent_instrument(graphs):
    # when X is independent of Z, the interventional term is the plain joint
    dag, district = iv_district(graphs)
    rng = random.Random(11)
    xy = positive_simplex_point(rng, 4)
    probs = {}
    for z in (0, 1):
        for i, (x, y) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
            probs[(z, x, y)] = Fraction(1, 2) * xy[i]
    table = JointTable.from_dict(dag, probs)
    for i, (x, y) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        for z in (0, 1):
            got = star_probability(
                table, dag, district,
                Configuration.make(("X", "Y"), (x, y)),
                Configuration.make(("Z",), (z,)),
            )
            assert got == xy[i]


def test_star_probability_indeterminate(graphs):
    dag, district = iv_district(graphs)
    table = JointTable.from_dict(dag, {(0, 0, 0): Fraction(1)})
    got = star_probability(
        table, dag, district,
        Configuration.make(("X", "Y"), (0, 0)),
        Configuration.make(("Z",), (1,)),
    )
    assert got is None


def test_push_through_matches_star(graphs):
    # generating a table from the response-function model and reading the
    # interventional terms back off it reproduces B r exactly
    rng = random.Random(17)
    for name in ("iv", "frontdoor", "nested_pair_right", "iv_sequential"):
        dag = graphs[name]
        systems = [build_functional_system(dag, d) for d in dag.districts()]
        rs = {
            fs.district.members: positive_simplex_point(rng, fs.n_cols)
            for fs in systems
        }
        pushed = {fs.district.members: multiply(fs, rs[fs.district.members]) for fs in systems}

        observed = dag.observed_names()
        probs = {}
        for config in enumerate_configs(observed, [dag.cardinality(w) for w in observed]):
            weight = Fraction(1)
            values = config.as_dict()
            for fs in systems:
                members = fs.district.members
                w1 = Configuration.make(members, tuple(values[m] for m in members))
                w2 = Configuration.make(
                    fs.w2_order, tuple(values[p] for p in fs.w2_order)
                )
                row = fs.row_labels.index((w1, w2))
                weight *= pushed[fs.district.members][row]
            probs[config.values()] = weight
        table = JointTable.from_dict(dag, probs)

        for fs in systems:
            expected = pushed[fs.district.members]
            for row, (w1, w2) in enumerate(fs.row_labels):
                got = star_probability(table, dag, fs.district, w1, w2)
                assert got == expected[row]
