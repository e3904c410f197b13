"""Marginal-model- and constraint-preserving graph rewrites.

``normalize`` (exogenization followed by absorption of nested latents) makes
any DAG satisfy the two structural conditions without changing its marginal
model. ``merge_district_latents`` collapses each multi-latent district onto a
single fresh latent; constraints derived afterwards remain valid for the
original graph but may be incomplete. ``replace_latent_with_edges``,
``hlp_add_edge`` and ``strong_face_split`` are user-invoked rewrites between
graphs with identical constraint sets.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .graph import GraphStructureError, HiddenDag, Variable, validate_conditions


class RewriteError(ValueError):
    """A rewrite's precondition failed; the message names the failed clause."""


class RewriteStep(NamedTuple):
    rule: str
    description: str
    # primitive edits, each ("add_edge"|"remove_edge", parent, child) or
    # ("remove_var"|"add_latent", name); replaying them reproduces the rewrite
    edits: tuple[tuple, ...]


class RewriteLog(NamedTuple):
    steps: tuple[RewriteStep, ...] = ()

    def __add__(self, other: "RewriteLog") -> "RewriteLog":
        return RewriteLog(self.steps + other.steps)

    def lines(self) -> list[str]:
        return [f"{s.rule}: {s.description}" for s in self.steps]


def _apply_edits(dag: HiddenDag, edits) -> HiddenDag:
    variables = list(dag.variables)
    edges = set(dag.edges)
    for edit in edits:
        op = edit[0]
        if op == "add_edge":
            edges.add((edit[1], edit[2]))
        elif op == "remove_edge":
            edges.discard((edit[1], edit[2]))
        elif op == "remove_var":
            variables = [v for v in variables if v.name != edit[1]]
            edges = {(p, c) for p, c in edges if edit[1] not in (p, c)}
        elif op == "add_latent":
            variables.append(Variable(edit[1], "latent"))
        else:
            raise ValueError(f"unknown edit {op!r}")
    return HiddenDag(variables, sorted(edges))


def _record(dag: HiddenDag, steps: list, rule: str, description: str, edits) -> HiddenDag:
    """Log one rewrite step in ``steps`` and return the graph its edits produce."""
    steps.append(RewriteStep(rule, description, tuple(edits)))
    return _apply_edits(dag, edits)


def _require_conditions(dag: HiddenDag, rule: str) -> None:
    if not validate_conditions(dag).ok:
        raise RewriteError(
            f"{rule} needs a graph satisfying the structural conditions; run normalize first"
        )


def replay(dag: HiddenDag, log: RewriteLog) -> HiddenDag:
    """Re-apply a rewrite log to its input graph."""
    for step in log.steps:
        dag = _apply_edits(dag, step.edits)
    return dag


def exogenize(dag: HiddenDag) -> tuple[HiddenDag, RewriteLog]:
    """Reroute edges into latents until every latent is parentless.

    Each parent of a latent gains edges to all of the latent's children and
    loses its edge into the latent. Latents are processed in reverse
    topological order so one pass reaches the fixpoint.
    """
    steps = []
    order = [u for u in dag.topological_order() if not dag.is_observed(u)]
    for u in reversed(order):
        parents = dag.parents(u)
        if not parents:
            continue
        edits = []
        for v in parents:
            for c in dag.children(u):
                if (v, c) not in dag.edges and v != c:
                    edits.append(("add_edge", v, c))
            edits.append(("remove_edge", v, u))
        dag = _record(dag, steps, "exogenize",
                      f"rerouted {', '.join(parents)} around latent {u}", edits)
    return dag, RewriteLog(tuple(steps))


def absorb_nested_latents(dag: HiddenDag) -> tuple[HiddenDag, RewriteLog]:
    """Drop latents whose observed-child set is nested in another's, or too small.

    Requires exogenous latents (run ``exogenize`` first). On ties (equal child
    sets) the later-declared latent is absorbed into the earlier one.
    """
    for u in dag.latent_names():
        if dag.parents(u):
            raise RewriteError(f"latent {u!r} has parents; exogenize first")
    steps = []
    while True:
        # one search per round: the first latent, in declaration order, to drop
        latents = dag.latent_names()
        child_sets = {u: frozenset(dag.observed_children(u)) for u in latents}
        for u in latents:
            if len(child_sets[u]) < 2:
                description = f"dropped latent {u} with fewer than 2 observed children"
                break
            absorber = next(
                (w for w in latents if w != u and child_sets[u] <= child_sets[w]
                 and not (child_sets[u] == child_sets[w] and dag.index(w) > dag.index(u))),
                None,
            )
            if absorber is not None:
                description = f"absorbed latent {u} into {absorber}"
                break
        else:
            return dag, RewriteLog(tuple(steps))
        dag = _record(dag, steps, "absorb", description, [("remove_var", u)])


def normalize(dag: HiddenDag) -> tuple[HiddenDag, RewriteLog]:
    """Exogenize, then absorb nested latents; the result passes both conditions."""
    dag, log1 = exogenize(dag)
    dag, log2 = absorb_nested_latents(dag)
    assert validate_conditions(dag).ok
    return dag, log1 + log2


def merge_district_latents(dag: HiddenDag) -> tuple[HiddenDag, RewriteLog]:
    """Collapse every multi-latent district onto one fresh latent.

    Constraints derived from the result hold for the input model but are not
    guaranteed to be complete. Fresh latents are named ``merge_<k>``.
    """
    _require_conditions(dag, "merge_district_latents")
    steps = []
    counter = 0
    for district in dag.districts():
        latents = district.latents
        if len(district.members) < 2 or len(latents) < 2:
            continue
        # checked against the current graph, which holds the earlier merges
        counter += 1
        while f"merge_{counter}" in {v.name for v in dag.variables}:
            counter += 1
        fresh = f"merge_{counter}"
        # every member of the district is an observed child of one of its latents
        edits = [("add_latent", fresh)]
        edits += [("add_edge", fresh, w) for w in district.members]
        edits += [("remove_var", u) for u in latents]
        description = (f"merged latents {', '.join(latents)} of district "
                       f"{{{', '.join(district.members)}}} into {fresh}")
        dag = _record(dag, steps, "merge", description, edits)
    return dag, RewriteLog(tuple(steps))


def replace_latent_with_edges(
    dag: HiddenDag, u: str, c_set: frozenset[str] | set[str], d_set: frozenset[str] | set[str]
) -> HiddenDag:
    """Replace every c <- u -> d fork by a direct edge c -> d.

    Sound when (1) c_set and d_set partition the latent's observed children,
    (2) no c is a child of another latent, and (3) all parents of c_set are
    parents of every d. The resulting graph has the same constraints.
    """
    _require_conditions(dag, "replace_latent_with_edges")
    if dag.is_observed(u):
        raise RewriteError(f"{u!r} is not a latent variable")
    c_set, d_set = frozenset(c_set), frozenset(d_set)
    children = frozenset(dag.observed_children(u))
    if c_set & d_set or (c_set | d_set) != children:
        raise RewriteError(
            "bullet 1: c_set and d_set must partition the observed children "
            f"{{{', '.join(sorted(children))}}} of {u}"
        )
    for other in dag.latent_names():
        if other == u:
            continue
        overlap = c_set & set(dag.observed_children(other))
        if overlap:
            raise RewriteError(
                f"bullet 2: {sorted(overlap)[0]} in c_set is also a child of latent {other}"
            )
    pa_c = set()
    for c in c_set:
        pa_c.update(dag.parents(c))
    for d in sorted(d_set, key=dag.index):
        missing = pa_c - set(dag.parents(d))
        if missing:
            raise RewriteError(
                f"bullet 3: parent {sorted(missing)[0]} of c_set is not a parent of {d}"
            )
    edits = []
    for c in sorted(c_set, key=dag.index):
        for d in sorted(d_set, key=dag.index):
            if (c, d) not in dag.edges:
                edits.append(("add_edge", c, d))
    edits.append(("remove_var", u))
    return _apply_edits(dag, edits)


def hlp_add_edge(dag: HiddenDag, w1: str, w2: str) -> HiddenDag:
    """Add the edge w1 -> w2; constraint-preserving when w2 dominates w1.

    Requires every parent of w1 (latents included) to be a parent of w2 and
    the addition to keep the graph acyclic.
    """
    _require_conditions(dag, "hlp_add_edge")
    for w in (w1, w2):
        if not dag.is_observed(w):
            raise RewriteError(f"{w!r} is not an observed variable")
    missing = set(dag.parents(w1)) - set(dag.parents(w2))
    if missing:
        raise RewriteError(
            f"parent {sorted(missing)[0]} of {w1} is not a parent of {w2}"
        )
    for u in dag.latent_names():
        ch = set(dag.observed_children(u))
        if w1 in ch and w2 not in ch:
            raise RewriteError(f"latent {u} points at {w1} but not at {w2}")
    if (w1, w2) in dag.edges:
        return dag
    try:
        return _apply_edits(dag, [("add_edge", w1, w2)])
    except GraphStructureError as exc:  # cycle detected by HiddenDag construction
        raise RewriteError(f"adding {w1} -> {w2} creates a cycle") from exc


def _splittable_part(dag: HiddenDag, u: str, candidates: frozenset[str]) -> frozenset[str]:
    """Largest subset S of ``candidates`` with (Ch(u)\\S) u Pa(Ch(u)\\S) <= Pa(d) for all d in S."""
    children = frozenset(dag.observed_children(u))
    split = set(candidates & children)
    while True:
        keep = children - split
        upstream = set(keep)
        for w in keep:
            upstream.update(dag.parents(w))
        bad = [d for d in split if not upstream <= set(dag.parents(d))]
        if not bad:
            return frozenset(split)
        split.difference_update(bad)


def strong_face_split(dag: HiddenDag, latents: list[str]) -> HiddenDag:
    """Split the shared children off the given latents into one fresh latent.

    Each listed latent either contributes the common splittable subset of the
    shared child intersection (checked by the parent-domination rule) or, when
    nothing of it can be split, is kept whole. Fresh latents are named
    ``split_<k>``; latents left with fewer than two observed children are
    dropped. The output has the same constraints.
    """
    _require_conditions(dag, "strong_face_split")
    if not latents:
        raise RewriteError("no latents given")
    for u in latents:
        if dag.is_observed(u):
            raise RewriteError(f"{u!r} is not a latent variable")
    shared = frozenset(dag.observed_children(latents[0]))
    for u in latents[1:]:
        shared &= frozenset(dag.observed_children(u))
    parts = {u: _splittable_part(dag, u, shared) for u in latents}
    nonempty = {p for p in parts.values() if p}
    if not nonempty:
        raise RewriteError(
            "bullet 1: no subset of the shared children "
            f"{{{', '.join(sorted(shared))}}} satisfies the parent-domination rule"
        )
    if len(nonempty) > 1:
        a, b = sorted(nonempty, key=sorted)[:2]
        witness = sorted(a ^ b)[0]
        raise RewriteError(
            f"bullet 1: listed latents disagree on the splittable subset (witness {witness})"
        )
    split = next(iter(nonempty))
    moved = [u for u in latents if parts[u]]
    remainders = {u: frozenset(dag.observed_children(u)) - split for u in moved}
    for other in dag.latent_names():
        if other in moved:
            continue
        touched = set(dag.observed_children(other)) & set().union(*remainders.values())
        if touched and not split <= set(dag.observed_children(other)):
            raise RewriteError(
                f"bullet 2: latent {other} reaches {sorted(touched)[0]} "
                "but not the whole split set"
            )

    taken = {v.name for v in dag.variables}
    fresh = (f"split_{k}" for k in itertools.count(1) if f"split_{k}" not in taken)
    edits = []
    for u in moved:
        edits.append(("remove_var", u))
        if len(remainders[u]) >= 2:
            name = next(fresh)
            edits.append(("add_latent", name))
            edits += [("add_edge", name, w) for w in dag.sort_observed(remainders[u])]
    if len(split) >= 2:
        name = next(fresh)
        edits.append(("add_latent", name))
        edits += [("add_edge", name, w) for w in dag.sort_observed(split)]
    out = _apply_edits(dag, edits)
    # absorb any now-nested or undersized latents so the output is in
    # condition-2 form (the constraint set is unchanged by that cleanup)
    out, _ = absorb_nested_latents(out)
    return out
