"""Conditional independence constraints implied by d-separation.

``d_separated`` runs the moralized-ancestral-graph test over the full graph
(latents included); ``enumerate_ci`` lists the pairwise separations with
minimal conditioning sets, merges them into maximal set-valued statements and
drops statements whose pairwise content another statement already covers.
Both run on one kernel: a vertex set is an int bitmask over canonical variable
indices, a graph is a list of adjacency masks, and every search is a
component walk over masks.

The separator listing works per observed pair (a, b) inside A = An({a, b}),
the ancestor closure through latents as well. Every inclusion-minimal
d-separator of a and b lies in A (Tian, Paz & Pearl, "Finding minimal
d-separators", 1998): if Z separates them, so does Z ∩ A, because the moral
graph of A is a subgraph of the moral graph of any ancestral superset. For Z
inside A, An({a, b} ∪ Z) = A, so one moral graph M of A answers every test:
Z d-separates a and b iff removing Z cuts a from b in M.

*Latent elimination.* A latent is never conditioned on, so each latent of A
is removed from M after its neighbours are joined pairwise. A path through a
removed latent shortcuts to an edge between two of its neighbours, and each
such edge expands back into a path through the latent; so for every observed
Z, removing Z cuts a from b in the result H iff it does in M. The minimal
d-separators of the pair are then the minimal a,b-separators of H, and there
are none when a and b are adjacent in H.

*The listing* (Kloks & Kratsch, SIAM J. Comput. 27, 1998; van der Zander,
Liśkiewicz & Textor, AIJ 270, 2019) moves from separator to separator. Write
N(X) for the neighbours of X outside X, and N[X] for X ∪ N(X). S is a minimal
a,b-separator iff the components C_a of a and C_b of b in H − S are both
full: N(C_a) = N(C_b) = S. For a connected X that holds a and whose N[X]
misses b, let sep(X) = N(C), where C is b's component in H − N[X]: a minimal
separator with X on its a-side. The listing starts from the separator
closest to a, sep({a}), and moves from each listed S to sep(C_a ∪ {x}) for
every x in S not adjacent to b (N[C_a ∪ {x}] is then C_a ∪ S ∪ N(x)).

*Completeness.* Let T be a minimal separator, with a-side D and b-side E.
For X ⊆ D, N[X] ⊆ D ∪ T, so b's component in H − N[X] contains E and every
vertex of T lies in it or in sep(X); the a-side of sep(X) then avoids T and
stays in D. So sep({a}) has its a-side in D. Let S ≠ T be listed, with
a-side C_a ⊆ D. S = N(C_a) lies in D ∪ T, and not inside T, since T is
minimal and S ≠ T; so some x of S lies in D. That x is not adjacent to b,
and the move by x gives a separator whose a-side holds C_a ∪ {x} and stays
in D. The a-side cannot grow for ever, and sep(D) = T, so the moves reach T.

*The cap.* Every separator is listed, and those with more members than the
cap are dropped at the end: a move from a large separator can lead to a
small one.
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
    g = _bitgraph(dag)
    am, bm, zm = g.mask(a), g.mask(b), g.mask(z)
    ancestral = 0
    for i in _bits(am | bm | zm):
        ancestral |= g.ancestors[i]
    reached, _ = _component(_moral(g, ancestral), am, ancestral & ~zm)
    return not reached & bm


class _Bitgraph(NamedTuple):
    """A DAG as bitmasks: bit i stands for the variable of canonical index i."""

    names: tuple[str, ...]
    index: dict[str, int]
    parents: tuple[int, ...]
    ancestors: tuple[int, ...]  # reflexive, through latents too
    latents: int

    def mask(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.index[name]
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.names[i] for i in _bits(mask))


def _bitgraph(dag: HiddenDag) -> _Bitgraph:
    names = tuple(v.name for v in dag.variables)
    index = {name: i for i, name in enumerate(names)}
    parents = [0] * len(names)
    for parent, child in dag.edges:
        parents[index[child]] |= 1 << index[parent]
    ancestors = [0] * len(names)
    for name in dag.topological_order():
        i = index[name]
        closure = 1 << i
        for p in _bits(parents[i]):
            closure |= ancestors[p]
        ancestors[i] = closure
    latents = sum(1 << i for i, v in enumerate(dag.variables) if not v.observed)
    return _Bitgraph(names, index, tuple(parents), tuple(ancestors), latents)


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _moral(g: _Bitgraph, ancestral: int) -> list[int]:
    """Adjacency masks of the moral graph of an ancestral set.

    ``ancestral`` must be closed under taking parents; vertices outside it
    get an empty mask.
    """
    adjacency = [0] * len(g.names)
    for child in _bits(ancestral):
        parents = g.parents[child]
        adjacency[child] |= parents
        family = parents | 1 << child
        while parents:
            low = parents & -parents
            parents ^= low
            adjacency[low.bit_length() - 1] |= family ^ low
    return adjacency


def _component(adjacency: list[int], start: int, allowed: int) -> tuple[int, int]:
    """The vertices reachable from ``start`` inside ``allowed``, and their neighbours."""
    component = frontier = start
    near = 0
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        step = adjacency[low.bit_length() - 1]
        near |= step
        step &= allowed & ~component
        component |= step
        frontier |= step
    return component, near & ~component


def _minimal_separators(g: _Bitgraph, a: int, b: int, cap: int) -> list[int]:
    """Masks of the inclusion-minimal Z with a _||_ b | Z and |Z| <= cap, unordered.

    ``a`` and ``b`` are indices of observed variables. The moral graph of
    An({a, b}) loses its latents by elimination (each one's neighbours
    joined pairwise), leaving H over the observed members; when a and b are
    adjacent in H, nothing separates them. Otherwise the listing starts at
    the separator closest to ``a`` and moves from each separator S, by each
    x in S not adjacent to ``b``, to the separator closest to a's side of S
    plus x. Every minimal separator is reached (see the module docstring);
    those over the cap are dropped only at the end.
    """
    a_bit, b_bit = 1 << a, 1 << b
    ancestral = g.ancestors[a] | g.ancestors[b]
    adjacency = _moral(g, ancestral)
    for u in _bits(ancestral & g.latents):
        joined = adjacency[u]
        for v in _bits(joined):
            adjacency[v] = (adjacency[v] | joined) & ~(1 << v | 1 << u)
    if adjacency[a] & b_bit:
        return []
    observed = ancestral & ~g.latents
    _, first = _component(adjacency, b_bit, observed & ~(adjacency[a] | a_bit))
    found = [first]
    listed = {first}
    for s in found:  # grows while it is walked
        a_side, _ = _component(adjacency, a_bit, observed & ~s)
        closed = a_side | s  # N[a_side], as s = N(a_side)
        for x in _bits(s & ~adjacency[b]):
            _, moved = _component(adjacency, b_bit, observed & ~(closed | adjacency[x]))
            if moved not in listed:
                listed.add(moved)
                found.append(moved)
    return [s for s in found if s.bit_count() <= cap]


def enumerate_ci(dag: HiddenDag, max_condition_size: int | None = None) -> list[CIStatement]:
    """Non-redundant list of d-separation statements.

    Policy: per pair, keep only the inclusion-minimal conditioning sets; per
    (variable, conditioning set), merge right-hand sides to the maximal set;
    then drop statements whose pairwise content is covered by the rest.
    """
    observed = dag.observed_names()
    if max_condition_size is None:
        max_condition_size = max(0, len(observed) - 2)
    g = _bitgraph(dag)
    facts: dict[int, set[tuple[str, str]]] = {}
    for wi, wj in combinations(observed, 2):
        for z in _minimal_separators(g, g.index[wi], g.index[wj], max_condition_size):
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
        given = g.names_of(z)
        for lhs, rhs in merged:
            statements.append(make_statement(dag, lhs, rhs, given))

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
