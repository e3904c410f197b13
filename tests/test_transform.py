import hashlib
import itertools
import json
import random

import pytest

from obscon import (
    DeriveOptions,
    derive_all,
    evaluate,
    parse_graph,
    validate_conditions,
)
from obscon.transform import (
    RewriteError,
    absorb_nested_latents,
    exogenize,
    hlp_add_edge,
    merge_district_latents,
    normalize,
    replace_latent_with_edges,
    strong_face_split,
)

from oracles import random_dag, replay, structural_model_table, table_from_dict

EXOGENIZE_EXAMPLE = """\
var Z 2
var X 2
var Y 2
latent U1
latent U2
edge Z U2
edge U2 U1
edge U1 X
edge U1 Y
edge Z X
"""


def edge_set(dag):
    return set(dag.edges)


def latent_children(dag):
    return {u: frozenset(dag.observed_children(u)) for u in dag.latent_names()}


def test_exogenize_latent_chain_example():
    dag = parse_graph(EXOGENIZE_EXAMPLE)
    out, log = exogenize(dag)
    assert all(not out.parents(u) for u in out.latent_names())
    assert ("Z", "Y") in out.edges  # rerouted influence
    assert ("Z", "X") in out.edges
    assert log.steps
    # absorbing afterwards leaves a single latent over {X, Y}
    final, _ = absorb_nested_latents(out)
    assert latent_children(final) == {"U1": frozenset({"X", "Y"})}
    assert edge_set(final) == {("Z", "X"), ("Z", "Y"), ("U1", "X"), ("U1", "Y")}


def test_exogenize_fixpoint_on_clean_graph(graphs):
    out, log = exogenize(graphs["iv"])
    assert out == graphs["iv"]
    assert not log.steps


def test_exogenize_pure_latent_chain():
    dag = parse_graph(
        "var V 2\nvar W 2\nlatent U1\nlatent U2\n"
        "edge V U1\nedge U1 U2\nedge U2 W\n"
    )
    out, _ = exogenize(dag)
    assert ("V", "W") in out.edges
    assert all(not out.parents(u) for u in out.latent_names())


def test_absorb_nested_example():
    dag = parse_graph(
        "var Z 2\nvar X 2\nvar Y 2\nlatent U1\nlatent U2\n"
        "edge U1 Z\nedge U1 X\nedge U1 Y\nedge U2 Z\nedge U2 X\n"
    )
    out, log = absorb_nested_latents(dag)
    assert out.latent_names() == ("U1",)
    assert latent_children(out)["U1"] == frozenset({"Z", "X", "Y"})
    assert any(step.rule == "absorb" for step in log.steps)


def test_absorb_fixpoint(graphs):
    out, log = absorb_nested_latents(graphs["iv"])
    assert out == graphs["iv"] and not log.steps


def test_absorb_drops_single_child_latent():
    dag = parse_graph("var A 2\nvar B 2\nlatent U\nedge U A\nedge A B\n")
    out, _ = absorb_nested_latents(dag)
    assert out.latent_names() == ()


def test_normalize_idempotent():
    rng = random.Random(5)
    for _ in range(30):
        dag = random_dag(rng)
        once, _ = normalize(dag)
        twice, log = normalize(once)
        assert twice == once
        assert not log.steps
        assert validate_conditions(once).ok


def test_replay_reproduces_rewrites():
    rng = random.Random(9)
    for _ in range(20):
        dag = random_dag(rng)
        out, log = normalize(dag)
        assert replay(dag, log) == out
    dag = parse_graph(EXOGENIZE_EXAMPLE)
    out, log = normalize(dag)
    assert replay(dag, log) == out


def test_merge_district_latents_two_district(graphs):
    out, log = merge_district_latents(graphs["mixed_cdegree"])
    assert all(d.c_degree == 1 for d in out.districts())
    assert validate_conditions(out).ok
    children = latent_children(out)
    assert children.pop("U2") == frozenset({"V1", "V3", "V6"})
    (merged,) = children.values()
    assert merged == frozenset({"V2", "V4", "V5"})
    assert any(step.rule == "merge" for step in log.steps)
    assert replay(graphs["mixed_cdegree"], log) == out


def test_merge_district_latents_triangle(graphs):
    out, _ = merge_district_latents(graphs["triangle"])
    assert latent_children(out) == {"merge_1": frozenset({"V1", "V2", "V3"})}


def test_merge_no_op_on_c_degree_one(graphs):
    out, log = merge_district_latents(graphs["iv"])
    assert out == graphs["iv"] and not log.steps


def test_merge_soundness_on_unmerged_model(graphs):
    # distributions from the two-latent model satisfy the merged constraints
    dag = graphs["mixed_cdegree"]
    result = derive_all(dag, DeriveOptions(merge=True))
    rng = random.Random(31)
    for _ in range(5):
        table = table_from_dict(dag, structural_model_table(dag, rng))
        report = evaluate(result, dag, table)
        assert not report.falsified
        assert all(s.status == "satisfied" for s in report.constraint_statuses)


def test_replace_latent_with_edges_iv_family(graphs):
    left = graphs["iv_family_left"]
    out = replace_latent_with_edges(left, "U1", {"Z"}, {"X"})
    assert out.latent_names() == ("U2",)
    assert edge_set(out) == {("Z", "X"), ("X", "Y"), ("U2", "X"), ("U2", "Y")}


def test_replace_latent_precondition_error(graphs):
    # V1 is a parent of V2 but of neither V4 nor V5, so V2 cannot sit in c_set
    dag = graphs["mixed_cdegree"]
    with pytest.raises(RewriteError, match="bullet 3"):
        replace_latent_with_edges(dag, "U1", {"V2"}, {"V4"})


def test_replace_latent_vacuous_parents():
    dag = parse_graph("var A 2\nvar B 2\nlatent U\nedge U A\nedge U B\n")
    out = replace_latent_with_edges(dag, "U", {"A"}, {"B"})
    assert edge_set(out) == {("A", "B")}
    assert out.latent_names() == ()


def test_replace_latent_partition_checked(graphs):
    with pytest.raises(RewriteError, match="bullet 1"):
        replace_latent_with_edges(graphs["iv_family_left"], "U1", {"Z"}, {"Y"})


def test_hlp_add_edge_iv_family(graphs):
    out = hlp_add_edge(graphs["iv_family_left"], "Z", "X")
    assert out == graphs["iv_family_center"]


def test_hlp_add_edge_rejects_unshared_latent(graphs):
    # U2 points at Y but not at Z, so it is a parent of Y that Z lacks
    with pytest.raises(RewriteError) as info:
        hlp_add_edge(graphs["iv_family_center"], "Y", "Z")
    assert str(info.value) == "parent U2 of Y is not a parent of Z"


def test_hlp_add_edge_vacuous():
    dag = parse_graph(
        "var A 2\nvar B 2\nvar C 2\nlatent U\n"
        "edge U B\nedge U C\nedge A B\nedge A C\n"
    )
    out = hlp_add_edge(dag, "B", "C")
    assert ("B", "C") in out.edges


def test_strong_face_split_iv_family(graphs):
    out = strong_face_split(graphs["iv_family_center"], ["U1", "U2"])
    assert latent_children(out) == {"U2": frozenset({"X", "Y"})}
    assert edge_set(out) == {("Z", "X"), ("X", "Y"), ("U2", "X"), ("U2", "Y")}


def test_strong_face_split_shared_pair(graphs):
    out = strong_face_split(graphs["face_split_example"], ["U1", "U2"])
    children = sorted(latent_children(out).values(), key=sorted)
    assert children == [
        frozenset({"V1", "V2"}),
        frozenset({"V3", "V4"}),
        frozenset({"V4", "V5"}),
    ]
    observed_edges = {(p, c) for p, c in out.edges if not p.startswith("split")}
    assert observed_edges == {
        ("V3", "V1"), ("V4", "V1"), ("V5", "V1"),
        ("V3", "V2"), ("V4", "V2"), ("V5", "V2"),
    }


def test_strong_face_split_rename_only(graphs):
    out = strong_face_split(graphs["iv"], ["U"])
    assert latent_children(out) == {"split_1": frozenset({"X", "Y"})}
    observed_edges = {(p, c) for p, c in out.edges if p != "split_1"}
    assert observed_edges == {("Z", "X"), ("X", "Y")}


def test_iv_family_rewrites_share_constraint_set(graphs):
    # replace on the left graph and hlp+split on the left graph both land on
    # the plain IV model; derived constraints agree after canonicalization
    left = graphs["iv_family_left"]
    via_replace = replace_latent_with_edges(left, "U1", {"Z"}, {"X"})
    via_split = strong_face_split(hlp_add_edge(left, "Z", "X"), ["U1", "U2"])

    def canonical(dag):
        result = derive_all(dag)
        rows = set()
        for record in result.districts:
            if record.hrep is None:
                continue
            rows.add((record.members, record.hrep.ineq, record.hrep.eq))
        return rows, set(result.ci_statements)

    reference = canonical(graphs["iv"])
    assert canonical(via_replace) == reference
    assert canonical(via_split) == reference


# -- pinned rewrite outputs -----------------------------------------------------
#
# SHA-256 digests of the graph text, log lines and edits the rewrites produce
# on the fixtures, the conftest graphs and seeded random DAGs. A refactor of
# ``transform`` must leave every one of them unchanged.

PIN_NORMALIZE_MERGE = "6b52c83c45f04ce0e10d4c077aeeb6ce0e30aa203ef2e3aea2b953e067db3f65"
PIN_FACE_SPLIT_HLP = "d73d616647a0fe2b9a45f149803762e5dde028ec0dd10ab7b1ce852badcaf1da"


def pinned_graphs(graphs):
    named = [graphs[name] for name in sorted(graphs)]
    return named + [parse_graph(EXOGENIZE_EXAMPLE)]


def rewrite_record(dag, rewrite):
    """Output text, log lines and edits of one logged rewrite."""
    out, log = rewrite(dag)
    return out, [out.to_text(), log.lines(), [list(step.edits) for step in log.steps]]


def outcome(rewrite, *args):
    """Output text of one unlogged rewrite, or its error message."""
    try:
        return rewrite(*args).to_text()
    except RewriteError as exc:
        return f"error: {exc}"


def digest(records):
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def test_normalize_and_merge_outputs_pinned(graphs):
    rng = random.Random(2026)
    dags = pinned_graphs(graphs) + [random_dag(rng) for _ in range(200)]
    records = []
    for dag in dags:
        normal, record = rewrite_record(dag, normalize)
        records.append(record)
        records.append(rewrite_record(normal, merge_district_latents)[1])
    assert digest(records) == PIN_NORMALIZE_MERGE


def test_face_split_and_hlp_outputs_pinned(graphs):
    records = []
    for dag in pinned_graphs(graphs):
        normal, _ = normalize(dag)
        latents = normal.latent_names()
        for k in (1, 2):
            for chosen in itertools.combinations(latents, k):
                records.append(outcome(strong_face_split, normal, list(chosen)))
        for w1, w2 in itertools.permutations(normal.observed_names(), 2):
            records.append(outcome(hlp_add_edge, normal, w1, w2))
    assert digest(records) == PIN_FACE_SPLIT_HLP


# -- error branches and fresh names ---------------------------------------------


def test_absorb_requires_exogenous_latents():
    with pytest.raises(RewriteError, match="latent 'U1' has parents; exogenize first"):
        absorb_nested_latents(parse_graph(EXOGENIZE_EXAMPLE))


def test_hlp_add_edge_rejects_a_latent(graphs):
    with pytest.raises(RewriteError, match="'U' is not an observed variable"):
        hlp_add_edge(graphs["iv"], "U", "Y")


def test_replace_and_face_split_reject_an_observed_name(graphs):
    with pytest.raises(RewriteError, match="'X' is not a latent variable"):
        replace_latent_with_edges(graphs["iv"], "X", {"Y"}, {"Z"})
    with pytest.raises(RewriteError, match="'X' is not a latent variable"):
        strong_face_split(graphs["iv"], ["U", "X"])


def test_face_split_needs_a_latent(graphs):
    with pytest.raises(RewriteError, match="no latents given"):
        strong_face_split(graphs["iv"], [])


def test_merge_skips_a_declared_fresh_name(graphs):
    dag = parse_graph(graphs["triangle"].to_text() + "var merge_1 2\n")
    out, log = merge_district_latents(dag)
    assert latent_children(out) == {"merge_2": frozenset({"V1", "V2", "V3"})}
    assert log.lines() == [
        "merge: merged latents U1, U2, U3 of district {V1, V2, V3} into merge_2"
    ]


def test_face_split_skips_a_declared_fresh_name(graphs):
    dag = parse_graph(graphs["iv"].to_text() + "var split_1 2\n")
    out = strong_face_split(dag, ["U"])
    assert latent_children(out) == {"split_2": frozenset({"X", "Y"})}


@pytest.mark.parametrize("rule, rewrite", [
    ("merge_district_latents", merge_district_latents),
    ("replace_latent_with_edges", lambda dag: replace_latent_with_edges(dag, "U1", {"X"}, {"Y"})),
    ("hlp_add_edge", lambda dag: hlp_add_edge(dag, "X", "Y")),
    ("strong_face_split", lambda dag: strong_face_split(dag, ["U1"])),
], ids=["merge", "replace", "hlp", "face_split"])
def test_rewrites_name_the_failed_precondition(rule, rewrite):
    # U1 has a parent, so the graph is not in the normalized form
    with pytest.raises(RewriteError) as info:
        rewrite(parse_graph(EXOGENIZE_EXAMPLE))
    assert str(info.value) == (
        f"{rule} needs a graph satisfying the structural conditions; run normalize first"
    )
