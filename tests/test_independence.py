import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from obscon import d_separated, enumerate_ci, parse_graph
from obscon.independence import _bitgraph, _minimal_separators

from oracles import (
    enumerate_ci_exhaustive,
    minimal_separators_by_scan,
    path_d_separated,
    random_dag,
    sparse_dag,
)


def all_subsets(pool, cap=None):
    cap = len(pool) if cap is None else cap
    for size in range(cap + 1):
        yield from combinations(pool, size)


def test_d_separated_iv_open_path(graphs):
    assert not d_separated(graphs["iv"], {"Z"}, {"Y"}, set())


def test_d_separated_sequential(graphs):
    assert d_separated(graphs["iv_sequential"], {"V1", "V2"}, {"V4", "V5"}, {"V3"})
    assert not d_separated(graphs["iv_sequential"], {"V1"}, {"V4"}, set())


def test_d_separated_nested_pair(graphs):
    for side in ("nested_pair_left", "nested_pair_right"):
        assert d_separated(graphs[side], {"V1"}, {"V3"}, {"V2"})


def test_d_separated_collider_conditioning(graphs):
    # conditioning on the mediator opens the confounded path in the IV model
    assert not d_separated(graphs["iv"], {"Z"}, {"Y"}, {"X"})


def test_d_separated_rejects_overlap(graphs):
    with pytest.raises(ValueError):
        d_separated(graphs["iv"], {"Z"}, {"Z"}, set())
    with pytest.raises(ValueError):
        d_separated(graphs["iv"], {"Z"}, {"Y"}, {"U"})


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60, deadline=None)
def test_d_separated_symmetry(seed):
    rng = random.Random(seed)
    dag = random_dag(rng)
    observed = list(dag.observed_names())
    if len(observed) < 2:
        return
    rng.shuffle(observed)
    a, b = observed[0], observed[1]
    rest = observed[2:]
    z = {w for w in rest if rng.random() < 0.4}
    assert d_separated(dag, {a}, {b}, z) == d_separated(dag, {b}, {a}, z)


def test_d_separated_matches_path_oracle_small():
    rng = random.Random(2024)
    checked = 0
    for _ in range(60):
        dag = random_dag(rng)
        observed = dag.observed_names()
        for a, b in combinations(observed, 2):
            rest = [w for w in observed if w not in (a, b)]
            for z in all_subsets(rest):
                got = d_separated(dag, {a}, {b}, set(z))
                want = path_d_separated(dag, {a}, {b}, set(z))
                assert got == want, (dag.to_text(), a, b, z)
                checked += 1
    assert checked > 500


def test_enumerate_ci_bell(graphs):
    statements = enumerate_ci(graphs["bell_tripartite"])
    rendered = {s.render() for s in statements}
    # grouped per variable: the setting X is independent of everything on the
    # other two wings, and symmetrically for Y and Z (canonical orientation
    # puts the side with the smallest variable index on the left)
    assert rendered == {
        "X _||_ Y,Z,V2,V3",
        "X,Z,V1,V3 _||_ Y",
        "X,Y,V1,V2 _||_ Z",
    }


def test_enumerate_ci_complete_dag_empty():
    dag = parse_graph(
        "var A 2\nvar B 2\nvar C 2\nedge A B\nedge A C\nedge B C\n"
    )
    assert enumerate_ci(dag) == []


def test_enumerate_ci_frontdoor_empty(graphs):
    # exhaustive cross-check: no pair is separated by any conditioning set
    dag = graphs["frontdoor"]
    observed = dag.observed_names()
    for a, b in combinations(observed, 2):
        rest = [w for w in observed if w not in (a, b)]
        for z in all_subsets(rest):
            assert not d_separated(dag, {a}, {b}, set(z))
    assert enumerate_ci(dag) == []


def test_enumerate_ci_sequential_merged(graphs):
    statements = enumerate_ci(graphs["iv_sequential"])
    assert [s.render() for s in statements] == ["V1,V2 _||_ V4,V5 | V3"]


def test_enumerate_ci_nested_pair(graphs):
    for side in ("nested_pair_left", "nested_pair_right"):
        statements = enumerate_ci(graphs[side])
        assert [s.render() for s in statements] == ["V1 _||_ V3 | V2"]


def test_enumerate_ci_statements_verify():
    rng = random.Random(77)
    for _ in range(25):
        dag = random_dag(rng)
        for stmt in enumerate_ci(dag):
            assert d_separated(dag, set(stmt.lhs), set(stmt.rhs), set(stmt.given))


def test_enumerate_ci_condition_size_cap(graphs):
    # with no conditioning allowed, the sequential statement disappears
    capped = enumerate_ci(graphs["iv_sequential"], max_condition_size=0)
    assert all(not s.given for s in capped)


def test_ci_canonical_form(graphs):
    for stmt in enumerate_ci(graphs["bell_tripartite"]):
        dag = graphs["bell_tripartite"]
        assert dag.index(stmt.lhs[0]) <= dag.index(stmt.rhs[0])
        assert list(stmt.lhs) == list(dag.sort_observed(stmt.lhs))


@pytest.mark.parametrize("exogenous_latents", [False, True])
def test_enumerate_ci_matches_exhaustive_search(exogenous_latents):
    # latents with parents (exogenous_latents=False) put observed ancestors
    # behind latents, which a search over observed ancestors alone would miss
    rng = random.Random(5150 + exogenous_latents)
    for _ in range(200):
        dag = random_dag(rng, max_nodes=8, exogenous_latents=exogenous_latents)
        for cap in (None, 0, 1):
            assert enumerate_ci(dag, cap) == enumerate_ci_exhaustive(dag, cap), (
                dag.to_text(), cap)


def test_enumerate_ci_sparse_18_variables(sparse18):
    statements = enumerate_ci(sparse18)
    assert statements
    for stmt in statements:
        assert d_separated(sparse18, set(stmt.lhs), set(stmt.rhs), set(stmt.given))
    # a pair is separable at all iff the other observed variables in the
    # ancestor closure of the pair separate it; each such pair is covered
    observed = sparse18.observed_names()
    separable = set()
    for a, b in combinations(observed, 2):
        closure = sparse18.ancestors({a, b})
        rest = {w for w in observed if w in closure and w not in (a, b)}
        if d_separated(sparse18, {a}, {b}, rest):
            separable.add((min(a, b), max(a, b)))
    assert set().union(*(s.pairs() for s in statements)) == separable


def listed_separators(dag, a, b, cap):
    g = _bitgraph(dag)
    masks = _minimal_separators(g, g.index[a], g.index[b], cap)
    assert len(set(masks)) == len(masks)
    return {frozenset(g.names_of(m)) for m in masks}


@pytest.mark.parametrize("cap", [0, 2, None])
def test_minimal_separators_match_subset_scan(cap):
    rng = random.Random(1998)
    dags = [random_dag(rng, max_nodes=9, exogenous_latents=exogenous)
            for exogenous in (False, True) for _ in range(150)]
    dags += [sparse_dag(random.Random(seed)) for seed in (2, 3)]
    pairs = 0
    for dag in dags:
        observed = dag.observed_names()
        limit = max(0, len(observed) - 2) if cap is None else cap
        for a, b in combinations(observed, 2):
            want = set(minimal_separators_by_scan(dag, a, b, limit))
            assert listed_separators(dag, a, b, limit) == want, (dag.to_text(), a, b, limit)
            pairs += 1
    assert pairs > 1000


def test_minimal_separators_small_cases():
    # joined only through a latent: no observed set separates the pair
    confounded = parse_graph("var A 2\nvar B 2\nlatent U\nedge U A\nedge U B\n")
    assert listed_separators(confounded, "A", "B", 0) == set()
    # disconnected: the empty set separates
    apart = parse_graph("var A 2\nvar B 2\n")
    assert listed_separators(apart, "A", "B", 0) == {frozenset()}
    # the only separator, {C, D}, is over a cap of 1
    diamond = parse_graph(
        "var A 2\nvar C 2\nvar D 2\nvar B 2\n"
        "edge A C\nedge A D\nedge C B\nedge D B\n"
    )
    assert listed_separators(diamond, "A", "B", 2) == {frozenset("CD")}
    assert listed_separators(diamond, "A", "B", 1) == set()


def chain_into_confounded_pair(k):
    """V1 -> ... -> Vk -> A, B, with a latent U -> A, B: every subset of the
    chain is a candidate separator for (A, B), and none separates them."""
    chain = [f"V{i}" for i in range(1, k + 1)]
    lines = [f"var {v} 2" for v in chain] + ["var A 2", "var B 2", "latent U"]
    lines += [f"edge {p} {c}" for p, c in zip(chain, chain[1:])]
    lines += [f"edge {chain[-1]} A", f"edge {chain[-1]} B", "edge U A", "edge U B"]
    return parse_graph("\n".join(lines) + "\n")


def test_enumerate_ci_chain_into_confounded_pair():
    small = chain_into_confounded_pair(8)
    assert enumerate_ci(small) == enumerate_ci_exhaustive(small)

    # a scan over the chain's 2**24 subsets would take minutes
    dag = chain_into_confounded_pair(24)
    start = time.perf_counter()
    statements = enumerate_ci(dag)
    assert time.perf_counter() - start < 5
    assert statements
    for stmt in statements:
        assert ("A", "B") not in stmt.pairs()
        assert d_separated(dag, set(stmt.lhs), set(stmt.rhs), set(stmt.given))
