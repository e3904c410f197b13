import random

import pytest
from hypothesis import given, settings, strategies as st

from obscon import (
    GraphParseError,
    parse_graph,
    validate_conditions,
)
from obscon.transform import normalize

from oracles import districts_by_search, random_dag


IV_TEXT = """\
# instrumental variable model
var Z 2
var X 2
var Y 2
latent U
edge Z X
edge X Y
edge U X
edge U Y
"""


def test_parse_iv():
    dag = parse_graph(IV_TEXT)
    assert dag.observed_names() == ("Z", "X", "Y")
    assert dag.latent_names() == ("U",)
    assert ("Z", "X") in dag.edges and ("U", "Y") in dag.edges


def test_parse_single_node():
    dag = parse_graph("var A 2\n")
    districts = dag.districts()
    assert len(districts) == 1
    assert districts[0].members == ("A",)
    assert districts[0].c_degree == 1


def test_parse_self_loop_rejected():
    with pytest.raises(GraphParseError):
        parse_graph("var X 2\nedge X X\n")


def test_parse_cycle_rejected():
    with pytest.raises(GraphParseError):
        parse_graph("var A 2\nvar B 2\nedge A B\nedge B A\n")


def test_parse_undeclared_endpoint():
    with pytest.raises(GraphParseError):
        parse_graph("var A 2\nedge A B\n")


def test_parse_error_carries_line_number():
    try:
        parse_graph("var A 2\nvar B\n")
    except GraphParseError as exc:
        assert exc.line == 2
        assert "line 2" in str(exc)
    else:
        pytest.fail("expected a parse error")


def test_parse_latent_with_cardinality_rejected():
    with pytest.raises(GraphParseError):
        parse_graph("latent U 3\n")


def test_parse_observed_needs_cardinality_ge_2():
    with pytest.raises(GraphParseError):
        parse_graph("var A 1\n")


def test_parse_duplicate_name():
    with pytest.raises(GraphParseError):
        parse_graph("var A 2\nvar A 2\n")


def test_observed_parents_iv():
    dag = parse_graph(IV_TEXT)
    assert dag.observed_parents({"X", "Y"}) == {"Z", "X"}
    assert dag.observed_parents({"Z"}) == frozenset()


def test_observed_parents_seven_var(graphs):
    assert graphs["seven_var"].observed_parents({"F"}) == {"D", "G"}


def test_observed_parents_unknown_id():
    dag = parse_graph(IV_TEXT)
    with pytest.raises(KeyError):
        dag.observed_parents({"Q"})
    with pytest.raises(ValueError):
        dag.observed_parents({"U"})


def test_observed_ancestors_iv():
    dag = parse_graph(IV_TEXT)
    assert dag.observed_ancestors({"Y"}) == {"X", "Z", "Y"}
    assert dag.observed_ancestors({"Z"}) == {"Z"}


def test_observed_ancestors_chain():
    dag = parse_graph("var V1 2\nvar V2 2\nvar V3 2\nedge V1 V2\nedge V2 V3\n")
    assert dag.observed_ancestors({"V3"}) == {"V1", "V2", "V3"}


def test_observed_ancestors_idempotent_and_monotone():
    rng = random.Random(7)
    for _ in range(30):
        dag = random_dag(rng)
        observed = dag.observed_names()
        s = {w for w in observed if rng.random() < 0.5}
        if not s:
            continue
        anc = dag.observed_ancestors(s)
        assert dag.observed_ancestors(anc) == anc
        bigger = anc | set(observed[:1])
        assert anc <= dag.observed_ancestors(bigger)


def test_districts_seven_var(graphs):
    districts = graphs["seven_var"].districts()
    as_sets = [set(d.members) for d in districts]
    assert as_sets == [{"A", "C", "E"}, {"B", "D", "F"}, {"G"}]
    assert [d.c_degree for d in districts] == [1, 2, 1]


def test_districts_iv():
    dag = parse_graph(IV_TEXT)
    districts = dag.districts()
    assert [d.members for d in districts] == [("Z",), ("X", "Y")]


def test_districts_latent_free():
    dag = parse_graph("var A 2\nvar B 2\nvar C 2\nedge A B\nedge B C\n")
    assert [d.members for d in dag.districts()] == [("A",), ("B",), ("C",)]


def test_districts_partition_property():
    rng = random.Random(11)
    for _ in range(40):
        dag = random_dag(rng, exogenous_latents=True)
        districts = dag.districts()
        members = [w for d in districts for w in d.members]
        assert sorted(members) == sorted(dag.observed_names())
        for u in dag.latent_names():
            ch = dag.observed_children(u)
            if not ch:
                continue
            homes = {i for i, d in enumerate(districts) if set(ch) & set(d.members)}
            assert len(homes) == 1


def test_districts_carry_the_latents_over_their_members():
    # graphs that fail the conditions too: nested latents, childless latents
    rng = random.Random(23)
    failing = 0
    for exogenous in (False, True):
        for _ in range(60):
            dag = random_dag(rng, exogenous_latents=exogenous)
            failing += not validate_conditions(dag).ok
            districts = dag.districts()
            firsts = [dag.index(d.members[0]) for d in districts]
            assert firsts == sorted(firsts)
            for d in districts:
                assert list(d.members) == sorted(d.members, key=dag.index)
                assert d.latents == tuple(
                    u for u in dag.latent_names()
                    if set(dag.observed_children(u)) & set(d.members)
                )
    assert failing


def test_districts_match_a_breadth_first_search():
    # graphs that fail the conditions too; a districts() that merges two
    # components, or lists a latent under the wrong one, fails here
    rng = random.Random(28)
    merged = 0
    for exogenous in (False, True):
        for _ in range(120):
            dag = random_dag(rng, exogenous_latents=exogenous)
            expected = districts_by_search(dag)
            assert dag.districts() == expected
            merged += any(len(d.members) > 1 for d in expected) and len(expected) > 1
    assert merged


def test_c_degree_examples(graphs):
    seven = graphs["seven_var"]
    by_members = {d.members: d for d in seven.districts()}
    assert by_members[("B", "D", "F")].c_degree == 2
    assert by_members[("G",)].c_degree == 1
    triangle = graphs["triangle"]
    (district,) = triangle.districts()
    assert district.c_degree == 3


def test_validate_conditions_c1():
    # latent chain: Z -> U2 -> U1 -> {X, Y}
    dag = parse_graph(
        "var Z 2\nvar X 2\nvar Y 2\nlatent U1\nlatent U2\n"
        "edge Z U2\nedge U2 U1\nedge U1 X\nedge U1 Y\nedge Z X\n"
    )
    report = validate_conditions(dag)
    assert not report.ok
    assert any(cond == "C1" and who == "U2" for cond, who, _ in report.violations)


def test_validate_conditions_c2_nested():
    dag = parse_graph(
        "var Z 2\nvar X 2\nvar Y 2\nlatent U1\nlatent U2\n"
        "edge U1 Z\nedge U1 X\nedge U1 Y\nedge U2 Z\nedge U2 X\n"
    )
    report = validate_conditions(dag)
    assert any(cond == "C2" and who == "U2" for cond, who, _ in report.violations)


def test_validate_conditions_iv_clean():
    assert validate_conditions(parse_graph(IV_TEXT)).ok


def test_validate_conditions_empty_after_normalize():
    rng = random.Random(23)
    for _ in range(40):
        dag = random_dag(rng)
        normalized, _ = normalize(dag)
        assert validate_conditions(normalized).ok


def test_topological_order_iv():
    assert parse_graph(IV_TEXT).topological_order() == ("U", "Z", "X", "Y")


def test_topological_order_disconnected():
    dag = parse_graph("var B 2\nvar A 2\n")
    assert dag.topological_order() == ("B", "A")


def test_topological_order_sequential(graphs):
    dag = graphs["iv_sequential"]
    order = dag.topological_order()
    assert order[:2] == ("U2", "U3")
    assert order[2:] == ("V1", "V2", "V3", "V4", "V5")


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_topological_order_respects_edges(seed):
    dag = random_dag(random.Random(seed))
    order = dag.topological_order()
    position = {name: i for i, name in enumerate(order)}
    for parent, child in dag.edges:
        assert position[parent] < position[child]


def test_to_text_round_trip(graphs):
    for dag in graphs.values():
        assert parse_graph(dag.to_text()) == dag
