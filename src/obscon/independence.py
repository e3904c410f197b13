"""Conditional independence constraints implied by d-separation.

``d_separated`` runs the moralized-ancestral-graph test over the full graph
(latents included); ``enumerate_ci`` lists the pairwise separations with
minimal conditioning sets, merges them into maximal set-valued statements and
drops statements whose pairwise content another statement already covers.

The separator search works per observed pair (a, b) inside A = An({a, b}),
the ancestor closure through latents as well. Every inclusion-minimal
d-separator of a and b lies in A (Tian, Paz & Pearl, "Finding minimal
d-separators", 1998): if Z separates them, so does Z ∩ A, because the moral
graph of A is a subgraph of the moral graph of any ancestral superset. The
proof does not care whether the nodes are observed. So the candidates are
the observed members of A, and for each of them An({a, b} ∪ Z) = A: one moral
graph of A is built per pair and every candidate is a reachability test in
it. When a and b are adjacent in that graph, no candidate can separate them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple

from .graph import HiddenDag


class CIStatement(NamedTuple):
    """A statement lhs _||_ rhs | given over observed variables.

    Canonical form: all three parts sorted by canonical index and the side
    with the smallest index kept on the left.
    """

    lhs: tuple[str, ...]
    rhs: tuple[str, ...]
    given: tuple[str, ...]

    def render(self) -> str:
        text = f"{','.join(self.lhs)} _||_ {','.join(self.rhs)}"
        if self.given:
            text += f" | {','.join(self.given)}"
        return text

    def pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset(
            (min(a, b), max(a, b)) for a in self.lhs for b in self.rhs
        )

    def to_json(self) -> dict:
        return {"lhs": list(self.lhs), "rhs": list(self.rhs), "given": list(self.given)}


def make_statement(dag: HiddenDag, lhs, rhs, given) -> CIStatement:
    lhs = dag.sort_observed(lhs)
    rhs = dag.sort_observed(rhs)
    if dag.index(rhs[0]) < dag.index(lhs[0]):
        lhs, rhs = rhs, lhs
    return CIStatement(lhs, rhs, dag.sort_observed(given))


def d_separated(dag: HiddenDag, a: Iterable[str], b: Iterable[str], z: Iterable[str]) -> bool:
    """True iff every path between ``a`` and ``b`` is blocked given ``z``.

    ``a``, ``b`` and ``z`` must be disjoint sets of observed variables; paths
    run through the full graph, latents included.
    """
    a, b, z = set(a), set(b), set(z)
    for name in a | b | z:
        if not dag.is_observed(name):
            raise ValueError(f"{name!r} is not an observed variable")
    if a & b or a & z or b & z:
        raise ValueError("argument sets must be disjoint")
    if not a or not b:
        return True
    return _separated(_moral_graph(dag, dag.ancestors(a | b | z)), a, b, z)


def _moral_graph(dag: HiddenDag, ancestral: frozenset[str]) -> dict[str, set[str]]:
    """Moral graph of an ancestral set: skeleton edges plus married co-parents.

    ``ancestral`` must be closed under taking parents, so every parent of a
    member is a member.
    """
    adjacency: dict[str, set[str]] = {v: set() for v in ancestral}
    for child in ancestral:
        parents = dag.parents(child)
        for p in parents:
            adjacency[p].add(child)
            adjacency[child].add(p)
        for p, q in combinations(parents, 2):
            adjacency[p].add(q)
            adjacency[q].add(p)
    return adjacency


def _separated(adjacency: dict[str, set[str]], a, b, z) -> bool:
    """True iff removing ``z`` leaves no path from ``a`` to ``b``."""
    frontier = list(a)
    seen = set(a)
    while frontier:
        node = frontier.pop()
        for nxt in adjacency[node]:
            if nxt in z or nxt in seen:
                continue
            if nxt in b:
                return False
            seen.add(nxt)
            frontier.append(nxt)
    return True


def _minimal_separators(dag, wi, wj, cap):
    """Inclusion-minimal Z with wi _||_ wj | Z and |Z| <= cap, by size.

    Every candidate lies inside An({wi, wj}), so An({wi, wj} | Z) is that
    same set and one moral graph answers every test.
    """
    relevant = dag.ancestors((wi, wj))
    moral = _moral_graph(dag, relevant)
    if wj in moral[wi]:
        return []
    pool = [w for w in dag.observed_names() if w in relevant and w not in (wi, wj)]
    found: list[frozenset[str]] = []
    for size in range(0, min(cap, len(pool)) + 1):
        for z in combinations(pool, size):
            zset = frozenset(z)
            if any(prev <= zset for prev in found):
                continue
            if _separated(moral, (wi,), (wj,), zset):
                found.append(zset)
        # all supersets of a found separator are non-minimal, but other
        # separators of a larger size may still exist, so keep scanning
    return found


def enumerate_ci(dag: HiddenDag, max_condition_size: int | None = None) -> list[CIStatement]:
    """Non-redundant list of d-separation statements.

    Policy: per pair, keep only the inclusion-minimal conditioning sets; per
    (variable, conditioning set), merge right-hand sides to the maximal set;
    then drop statements whose pairwise content is covered by the rest.
    """
    observed = dag.observed_names()
    if max_condition_size is None:
        max_condition_size = max(0, len(observed) - 2)
    facts: dict[frozenset[str], set[tuple[str, str]]] = {}
    for wi, wj in combinations(observed, 2):
        for z in _minimal_separators(dag, wi, wj, max_condition_size):
            facts.setdefault(z, set()).add((min(wi, wj), max(wi, wj)))

    statements: list[CIStatement] = []
    for z, pairs in facts.items():
        partners: dict[str, frozenset[str]] = {}
        for wi, wj in pairs:
            partners.setdefault(wi, frozenset())
            partners.setdefault(wj, frozenset())
            partners[wi] |= {wj}
            partners[wj] |= {wi}
        merged = set()
        for var, rhs in partners.items():
            lhs = frozenset(v for v in partners if partners[v] == rhs)
            merged.add((lhs, rhs))
        for lhs, rhs in merged:
            statements.append(make_statement(dag, lhs, rhs, z))

    # greedy cover: keep a statement only if it contributes a new pair
    statements = sorted(
        set(statements),
        key=lambda s: (-len(s.pairs()), s.given, s.lhs, s.rhs),
    )
    all_pairs = {p for z in facts.values() for p in z}
    covered: set[tuple[str, str]] = set()
    kept = []
    for stmt in statements:
        fresh = stmt.pairs() - covered
        if fresh:
            kept.append(stmt)
            covered |= stmt.pairs()
    kept.sort(key=lambda s: (s.given, s.lhs, s.rhs))
    assert covered == all_pairs
    return kept
