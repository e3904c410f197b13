"""Independent oracle implementations used by the test suite.

Everything here is deliberately written from first principles, not by calling
the code under test: a dictionary simplex over exact rationals, double
description with the full-scan adjacency test, districts by breadth-first
search over the observed variables, a path-enumeration d-separation
checker, a CI enumeration that tries every subset of the other observed
variables and writes its statements and their pairs by names
(``make_statement``, ``statement_pairs``), a per-pair scan for minimal
separators over the subsets of the pair's observed ancestors, a
structural-model sampler that marginalizes finite latent variables
directly, the vertices of a product of simplices, the reference response
encoding (a level decoded as a base-|W| numeral, and a district system
assembled cell by cell from it), dense views of a district system (B r,
coefficient rows, response encoding, the columns that realize a row), and
an evaluation that scans the whole table for every probability it needs.

The last section holds test helpers that the program itself never runs: an
H-to-V conversion, the round-trip reference for ``v_to_h``; canonical HRep
and table builders from plain rows and dicts; a system's dense 0/1 matrix;
the ancestor closure through latents that the d-separation oracles read;
and a replay of a rewrite log from its documented edit format. The H-to-V
conversion runs on the package's exact elimination and double description
kernels, so it checks the facet step of ``v_to_h``, not those kernels.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import Mapping, NamedTuple

from obscon.constraints import (
    CIStatus,
    ConstraintStatus,
    DerivationResult,
    ViolationReport,
    render,
)
from obscon.graph import District, HiddenDag, Variable, parse_graph
from obscon.independence import CIStatement, d_separated
from obscon.polyhedra import (
    HRep,
    Row,
    UnboundedPolytopeError,
    VRep,
    _canon_eq,
    _echelon,
    _integerize,
    _null_basis,
    extreme_rays,
)
from obscon.response import Configuration, build_functional_system, star_factors
from obscon.tables import JointTable


# -- exact simplex ----------------------------------------------------------


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


def _pivot(tableau, basis, row, col):
    m = len(tableau)
    pivot_val = tableau[row][col]
    tableau[row] = [v / pivot_val for v in tableau[row]]
    for r in range(m):
        if r != row and tableau[r][col] != 0:
            factor = tableau[r][col]
            tableau[r] = [a - factor * b for a, b in zip(tableau[r], tableau[row])]
    basis[row] = col


def _simplex_core(tableau, basis, cost):
    """Minimize cost over the tableau with Bland's rule; returns objective."""
    n = len(tableau[0]) - 1
    while True:
        reduced = list(cost[:n])
        for r, b in enumerate(basis):
            if cost[b] != 0:
                factor = cost[b]
                reduced = [
                    rc - factor * tv for rc, tv in zip(reduced, tableau[r][:n])
                ]
        entering = next((j for j in range(n) if reduced[j] < 0), None)
        if entering is None:
            value = Fraction(0)
            for r, b in enumerate(basis):
                value += cost[b] * tableau[r][n]
            return value
        ratios = [
            (tableau[r][n] / tableau[r][entering], basis[r], r)
            for r in range(len(tableau))
            if tableau[r][entering] > 0
        ]
        if not ratios:
            raise Unbounded
        _, _, leave_row = min(ratios, key=lambda t: (t[0], t[1]))
        _pivot(tableau, basis, leave_row, entering)


def solve_lp(c, a_eq, b_eq, maximize=False):
    """min (or max) c.x subject to a_eq x = b_eq, x >= 0; returns (value, x)."""
    m = len(a_eq)
    n = len(c)
    rows = []
    rhs = []
    for row, b in zip(a_eq, b_eq):
        row = [Fraction(v) for v in row]
        b = Fraction(b)
        if b < 0:
            row = [-v for v in row]
            b = -b
        rows.append(row)
        rhs.append(b)
    # phase 1: artificial basis
    tableau = [rows[i] + [Fraction(1 if j == i else 0) for j in range(m)] + [rhs[i]]
               for i in range(m)]
    basis = [n + i for i in range(m)]
    phase1_cost = [Fraction(0)] * n + [Fraction(1)] * m
    if _simplex_core(tableau, basis, phase1_cost) != 0:
        raise Infeasible
    # drive leftover artificials out of the basis when possible
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is not None:
                _pivot(tableau, basis, r, col)
    keep = [r for r in range(m) if basis[r] < n or tableau[r][-1] == 0]
    tableau = [[tableau[r][j] for j in range(n)] + [tableau[r][-1]] for r in keep
               if basis[r] < n]
    basis = [basis[r] for r in keep if basis[r] < n]
    sign = Fraction(-1 if maximize else 1)
    cost = [sign * Fraction(v) for v in c]
    value = _simplex_core(tableau, basis, cost)
    x = [Fraction(0)] * n
    for r, b in enumerate(basis):
        x[b] = tableau[r][-1]
    return sign * value, x


def feasible_nonneg(a_eq, b_eq):
    """Is there x >= 0 with a_eq x = b_eq? Returns x or None."""
    try:
        _, x = solve_lp([0] * len(a_eq[0]), a_eq, b_eq)
        return x
    except Infeasible:
        return None


def in_hull(point, points):
    """Exact membership of ``point`` in the convex hull of ``points``."""
    n = len(points)
    dim = len(point)
    a_eq = [[points[j][i] for j in range(n)] for i in range(dim)]
    a_eq.append([Fraction(1)] * n)
    b_eq = list(point) + [Fraction(1)]
    return feasible_nonneg(a_eq, b_eq) is not None


def maximize_over_polytope(c, ineq_rows, eq_rows):
    """max c.x over {H x <= b, E x = e} with free x; exact simplex."""
    dim = len(c)
    # x = u - v with u, v >= 0; slacks for each inequality
    n_slack = len(ineq_rows)
    a_eq = []
    b_eq = []
    for idx, (coeffs, rhs) in enumerate(ineq_rows):
        row = list(coeffs) + [-v for v in coeffs]
        row += [Fraction(1 if j == idx else 0) for j in range(n_slack)]
        a_eq.append(row)
        b_eq.append(rhs)
    for coeffs, rhs in eq_rows:
        row = list(coeffs) + [-v for v in coeffs] + [Fraction(0)] * n_slack
        a_eq.append(row)
        b_eq.append(rhs)
    cost = list(c) + [-v for v in c] + [Fraction(0)] * n_slack
    value, x = solve_lp(cost, a_eq, b_eq, maximize=True)
    point = [x[i] - x[dim + i] for i in range(dim)]
    return value, point


def facet_witness_beyond(h, index, vertices):
    """A point violating inequality ``index`` of ``h`` but satisfying the rest.

    Constructive: push the barycenter of the facet's vertices past the facet,
    away from the barycenter of the remaining vertices. ``vertices`` must be
    the polytope's vertex set.
    """
    coeffs, rhs = h.ineq[index]
    on_facet = [p for p in vertices if sum(c * x for c, x in zip(coeffs, p)) == rhs]
    off_facet = [p for p in vertices if sum(c * x for c, x in zip(coeffs, p)) != rhs]
    if not on_facet or not off_facet:
        return None
    dim = len(coeffs)
    center = tuple(sum(p[j] for p in on_facet) / len(on_facet) for j in range(dim))
    inner = tuple(sum(p[j] for p in off_facet) / len(off_facet) for j in range(dim))
    direction = tuple(c - i for c, i in zip(center, inner))
    gain = sum(c * d for c, d in zip(coeffs, direction))
    if gain <= 0:
        return None
    epsilon = None
    for other, (ocoeffs, orhs) in enumerate(h.ineq):
        if other == index:
            continue
        drift = sum(c * d for c, d in zip(ocoeffs, direction))
        if drift <= 0:
            continue
        slack = orhs - sum(c * x for c, x in zip(ocoeffs, center))
        bound = slack / (2 * drift)
        epsilon = bound if epsilon is None else min(epsilon, bound)
    if epsilon is None or epsilon == 0:
        epsilon = Fraction(1)
    return tuple(x + epsilon * d for x, d in zip(center, direction))


# -- double description with the full-scan adjacency test --------------------


def _primitive(vec):
    """Scale a rational vector by a positive rational to coprime integers."""
    fracs = [Fraction(v) for v in vec]
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def _rank(rows):
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            factor = mat[i][col] / mat[rank][col]
            mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _inverse(mat):
    n = len(mat)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [v / lead for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def extreme_rays_full_scan(rows, progress=None):
    """Double description as ``obscon.polyhedra.extreme_rays`` specifies it.

    The rows are taken in descending lexicographic order. The first rows of
    that order that are linearly independent, dim of them, span the
    initial simplicial cone: its j-th ray is the negated j-th column of
    their inverse, tight at every one of them but the j-th. Every other row
    is then inserted in that order. Before its step, an insertion reports
    (rows in, rows, current rays, rays the row cuts off) to ``progress``;
    after it, the rays are the zero rays, then the minus rays, then one new
    ray per adjacent plus/minus pair, plus-major, minus-minor, each list in
    the order of the current rays.

    Tight sets are sets of row positions, and adjacency is tested by a full
    scan: a plus/minus pair is adjacent iff it shares at least dim - 2
    tight rows and no third current ray is tight at all of them.
    O(|plus| |minus| |rays|) per step. Returns None when the rows do not
    span.
    """
    order = sorted((tuple(r) for r in rows), reverse=True)
    dim = len(order[0])
    basis = []
    for position, row in enumerate(order):
        if len(basis) < dim and _rank([order[i] for i in basis] + [row]) > len(basis):
            basis.append(position)
    if len(basis) < dim:
        return None
    inverse = _inverse([order[i] for i in basis])
    rays = [(_primitive([-inverse[i][j] for i in range(dim)]), set(basis) - {basis[j]})
            for j in range(dim)]

    others = [position for position in range(len(order)) if position not in basis]
    for inserted, position in enumerate(others, dim):
        row = order[position]
        signs = [sum(a * b for a, b in zip(row, vec)) for vec, _ in rays]
        plus = [j for j, s in enumerate(signs) if s > 0]
        minus = [j for j, s in enumerate(signs) if s < 0]
        zero = [j for j, s in enumerate(signs) if s == 0]
        if progress is not None:
            progress(inserted, len(order), len(rays), len(plus))
        new_rays = []
        for p in plus:
            for m in minus:
                common = rays[p][1] & rays[m][1]
                if len(common) < dim - 2:
                    continue
                if any(common <= tight for r, (_, tight) in enumerate(rays)
                       if r not in (p, m)):
                    continue
                vec = _primitive([signs[p] * b - signs[m] * a
                                  for a, b in zip(rays[p][0], rays[m][0])])
                new_rays.append((vec, common | {position}))
        rays = ([(rays[j][0], rays[j][1] | {position}) for j in zero]
                + [rays[j] for j in minus] + new_rays)
    return [vec for vec, _ in rays]


# -- districts by breadth-first search --------------------------------------


def districts_by_search(dag: HiddenDag) -> list[District]:
    """Connected components of the observed variables, found breadth first.

    Two observed variables are adjacent when one latent has both as observed
    children. Components are listed by their first variable in declaration
    order, each with its members in that order and the latents that have an
    observed child in it; a latent without observed children is in none.
    """
    observed = [v.name for v in dag.variables if v.observed]
    kids = {v.name: {c for p, c in dag.edges if p == v.name and c in observed}
            for v in dag.variables if not v.observed}
    adjacent = {w: set() for w in observed}
    for children in kids.values():
        for w in children:
            adjacent[w] |= children
    found, seen = [], set()
    for start in observed:
        if start in seen:
            continue
        component, queue = {start}, deque([start])
        while queue:
            for w in adjacent[queue.popleft()] - component:
                component.add(w)
                queue.append(w)
        seen |= component
        found.append(District(tuple(w for w in observed if w in component),
                              tuple(u for u, children in kids.items() if children & component)))
    return found


# -- d-separation by path enumeration ---------------------------------------


def path_d_separated(dag: HiddenDag, a: set, b: set, z: set) -> bool:
    """Enumerate every simple path and apply the blocking rules per node."""
    z_anc = ancestors(dag, z) if z else frozenset()
    names = [v.name for v in dag.variables]
    neighbors = {n: set() for n in names}
    for p, c in dag.edges:
        neighbors[p].add(c)
        neighbors[c].add(p)

    edge_set = set(dag.edges)

    def path_open(path):
        for i in range(1, len(path) - 1):
            prev, node, nxt = path[i - 1], path[i], path[i + 1]
            into_prev = (prev, node) in edge_set
            into_next = (nxt, node) in edge_set
            if into_prev and into_next:  # collider
                if node not in z_anc:
                    return False
            else:
                if node in z:
                    return False
        return True

    def explore(path, visited):
        node = path[-1]
        if node in b and len(path) > 1:
            if path_open(path):
                return True
            # keep searching other branches; this endpoint may still extend
        for nxt in sorted(neighbors[node]):
            if nxt in visited:
                continue
            if node in b:
                continue
            if explore(path + [nxt], visited | {nxt}):
                return True
        return False

    for start in sorted(a):
        if explore([start], {start}):
            return False
    return True


# -- CI enumeration over all subsets ------------------------------------------


def statement_pairs(stmt: CIStatement) -> frozenset[tuple[str, str]]:
    """The variable pairs that ``stmt`` separates, each as (min, max) by name."""
    return frozenset((min(a, b), max(a, b)) for a in stmt.lhs for b in stmt.rhs)


def make_statement(dag: HiddenDag, lhs, rhs, given) -> CIStatement:
    lhs = dag.sort_observed(lhs)
    rhs = dag.sort_observed(rhs)
    if dag.index(rhs[0]) < dag.index(lhs[0]):
        lhs, rhs = rhs, lhs
    return CIStatement(lhs, rhs, dag.sort_observed(given))


def enumerate_ci_exhaustive(dag: HiddenDag, max_condition_size=None) -> list:
    """``enumerate_ci`` by brute force: every subset of the other observed
    variables is a candidate conditioning set, tested with ``d_separated``.

    Per pair, the separators found are those with no smaller separator inside
    them; per conditioning set, a variable's partners become the right-hand
    side shared by every variable with the same partners; a greedy cover,
    largest statements first, then drops those that add no pair.
    """
    observed = dag.observed_names()
    if max_condition_size is None:
        max_condition_size = len(observed)
    pairs_by_given: dict = {}
    for a, b in combinations(observed, 2):
        rest = [w for w in observed if w not in (a, b)]
        minimal: list = []
        for size in range(min(max_condition_size, len(rest)) + 1):
            for z in map(frozenset, combinations(rest, size)):
                if not any(m <= z for m in minimal) and d_separated(dag, {a}, {b}, z):
                    minimal.append(z)
        for z in minimal:
            pairs_by_given.setdefault(z, set()).add((a, b))

    candidates = set()
    for z, pairs in pairs_by_given.items():
        partners: dict = {}
        for a, b in pairs:
            partners.setdefault(a, set()).add(b)
            partners.setdefault(b, set()).add(a)
        for rhs in partners.values():
            lhs = [v for v in partners if partners[v] == rhs]
            candidates.add(make_statement(dag, lhs, rhs, z))

    ordered = sorted(candidates, key=lambda s: (-len(statement_pairs(s)), s.given, s.lhs, s.rhs))
    covered: set = set()
    kept = []
    for stmt in ordered:
        if not statement_pairs(stmt) <= covered:
            kept.append(stmt)
            covered |= statement_pairs(stmt)
    return sorted(kept, key=lambda s: (s.given, s.lhs, s.rhs))


def minimal_separators_by_scan(dag: HiddenDag, wi: str, wj: str, cap: int) -> list:
    """Inclusion-minimal Z with wi _||_ wj | Z and |Z| <= cap, by trying every
    subset of the observed members of An({wi, wj}) in order of size.

    Every candidate lies in that ancestor closure, so An({wi, wj} | Z) is the
    closure itself and one dict-of-sets moral graph of it answers every test.
    """
    relevant = ancestors(dag, (wi, wj))
    moral = {v: set() for v in relevant}
    for child in relevant:
        parents = dag.parents(child)
        for p in parents:
            moral[p].add(child)
            moral[child].add(p)
        for p, q in combinations(parents, 2):
            moral[p].add(q)
            moral[q].add(p)

    def separated(z):
        frontier, seen = [wi], {wi}
        while frontier:
            for nxt in moral[frontier.pop()]:
                if nxt == wj:
                    return False
                if nxt not in z and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return True

    pool = [w for w in dag.observed_names() if w in relevant and w not in (wi, wj)]
    found: list = []
    for size in range(min(cap, len(pool)) + 1):
        for z in map(frozenset, combinations(pool, size)):
            if not any(prev <= z for prev in found) and separated(z):
                found.append(z)
    return found


# -- random structures -------------------------------------------------------


def random_dag(rng: random.Random, max_nodes: int = 7, latents: bool = True,
               exogenous_latents: bool = False) -> HiddenDag:
    n = rng.randint(2, max_nodes)
    n_latent = rng.randint(0, 2) if latents and n > 2 else 0
    n_obs = n - n_latent
    variables = [Variable(f"W{i}", "observed", rng.choice([2, 2, 3])) for i in range(n_obs)]
    variables += [Variable(f"U{i}", "latent") for i in range(n_latent)]
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for i, j in combinations(range(n), 2):
        a, b = order[i], order[j]
        if exogenous_latents and variables[b].kind == "latent":
            continue
        if rng.random() < 0.4:
            edges.append((variables[a].name, variables[b].name))
    return HiddenDag(variables, edges)


def sparse_dag(rng: random.Random, n_observed: int = 18, n_latent: int = 3) -> HiddenDag:
    """Sparse binary DAG: each variable has one or two parents among the four
    before it, and each latent confounds two variables at most four apart."""
    names = [f"V{i:02d}" for i in range(1, n_observed + 1)]
    variables = [Variable(name, "observed", 2) for name in names]
    edges = []
    for i in range(1, n_observed):
        window = range(max(0, i - 4), i)
        for p in sorted(rng.sample(window, min(len(window), rng.choice((1, 2))))):
            edges.append((names[p], names[i]))
    for k in range(n_latent):
        latent = f"U{k + 1}"
        variables.append(Variable(latent, "latent"))
        first = rng.randrange(n_observed - 4)
        edges += [(latent, names[first]), (latent, names[first + rng.randint(1, 4)])]
    return HiddenDag(variables, edges)


def random_fraction(rng: random.Random, denom: int = 60) -> Fraction:
    return Fraction(rng.randint(0, denom), denom)


def random_simplex_point(rng: random.Random, size: int, denom: int = 24):
    cuts = sorted(rng.randint(0, denom) for _ in range(size - 1))
    parts = []
    prev = 0
    for cut in cuts:
        parts.append(Fraction(cut - prev, denom))
        prev = cut
    parts.append(Fraction(denom - prev, denom))
    return parts


# -- structural-model sampler -------------------------------------------------


def positive_simplex_point(rng: random.Random, size: int, top: int = 20):
    nums = [rng.randint(1, top) for _ in range(size)]
    total = sum(nums)
    return [Fraction(v, total) for v in nums]


def structural_model_table(dag: HiddenDag, rng: random.Random,
                           latent_card: int = 3) -> dict[tuple[int, ...], Fraction]:
    """Exact joint table of a random structural model on ``dag``.

    Latents get ``latent_card`` states and a random positive distribution;
    each observed variable gets a random strictly positive conditional table
    over its full parent configuration space (latent parents included); the
    joint is the exact rational marginal over the latents. Positive CPDs keep
    every conditioning event well defined; they are realized by mechanisms
    with independent per-variable noise, so the result stays in the model.
    """
    latents = dag.latent_names()
    observed = dag.observed_names()
    assert all(not dag.parents(u) for u in latents), "sampler needs exogenous latents"
    latent_dists = {
        u: positive_simplex_point(rng, latent_card) for u in latents
    }
    tables = {}
    for w in observed:
        parents = dag.parents(w)
        card = dag.cardinality(w)
        domain_sizes = [
            dag.cardinality(p) if dag.is_observed(p) else latent_card for p in parents
        ]
        table = {}
        for combo in product(*(range(s) for s in domain_sizes)):
            table[combo] = positive_simplex_point(rng, card)
        tables[w] = (parents, table)

    topo = [w for w in dag.topological_order() if dag.is_observed(w)]
    joint: dict[tuple[int, ...], Fraction] = {}
    for latent_combo in product(*(range(latent_card) for _ in latents)):
        base = Fraction(1)
        for u, value in zip(latents, latent_combo):
            base *= latent_dists[u][value]
        latent_values = dict(zip(latents, latent_combo))
        for obs_combo in product(*(range(dag.cardinality(w)) for w in observed)):
            values = dict(latent_values)
            values.update(zip(observed, obs_combo))
            weight = base
            for w in topo:
                parents, table = tables[w]
                key = tuple(values[p] for p in parents)
                weight *= table[key][values[w]]
            if weight:
                joint[obs_combo] = joint.get(obs_combo, Fraction(0)) + weight
    return joint


def decimal_csv(dag, probs, places=12):
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


# -- products of simplices ----------------------------------------------------


def simplex_product_extreme_points(block_sizes) -> list[tuple[Fraction, ...]]:
    """Vertices of a product of probability simplices, first block fastest."""
    if any(size < 1 for size in block_sizes):
        raise ValueError("block sizes must be positive")
    points = []
    for reversed_choices in product(*(range(size) for size in reversed(block_sizes))):
        vec = []
        for choice, size in zip(reversed(reversed_choices), block_sizes):
            vec += [Fraction(int(k == choice)) for k in range(size)]
        points.append(tuple(vec))
    return points


# -- the reference response encoding -------------------------------------------


class ResponseSpec(NamedTuple):
    """Shape of the response variable for one observed variable."""

    variable: str
    cardinality: int
    parent_order: tuple[str, ...]
    parent_cards: tuple[int, ...]

    @property
    def parent_domain_size(self) -> int:
        return math.prod(self.parent_cards)

    @property
    def level_count(self) -> int:
        return self.cardinality ** self.parent_domain_size

    def config_index(self, parent_config: Mapping[str, int] | Configuration) -> int:
        """Rank of a parent configuration, last parent fastest."""
        index = 0
        for name, card in zip(self.parent_order, self.parent_cards):
            value = parent_config[name]
            if not 0 <= value < card:
                raise ValueError(f"value {value} for {name} out of range")
            index = index * card + value
        return index


def response_levels(dag: HiddenDag, w: str) -> ResponseSpec:
    """Response variable shape for ``w``: |W| ** (product of parent cardinalities)."""
    parents = dag.sort_observed(dag.observed_parents([w]))
    return ResponseSpec(
        variable=w,
        cardinality=dag.cardinality(w),
        parent_order=parents,
        parent_cards=tuple(dag.cardinality(p) for p in parents),
    )


def eval_response(spec: ResponseSpec, level: int,
                  parent_config: Mapping[str, int] | Configuration) -> int:
    """Output of response function ``level`` on ``parent_config``.

    Decodes ``level`` as a base-|W| numeral, most significant digit first;
    digit j is the output on the j-th parent configuration.
    """
    if not 0 <= level < spec.level_count:
        raise ValueError(f"level {level} out of range for {spec.variable}")
    j = spec.config_index(parent_config)
    power = spec.cardinality ** (spec.parent_domain_size - 1 - j)
    return (level // power) % spec.cardinality


def reference_system(dag: HiddenDag, district):
    """A district system's (row_labels, col_labels, col_outcomes), assembled
    cell by cell with ``eval_response`` in the order ``obscon.response``
    documents: rows (w1, w2) with w2 outermost and the first variable of each
    fastest; columns by joint level with the first member's level fastest,
    then stably sorted by their row in the first w2 block."""
    members = district.members
    specs = [response_levels(dag, m) for m in members]
    members_set = set(members)
    w2 = dag.sort_observed(dag.observed_parents(members_set) - members_set)

    def configs(names):
        return [Configuration.make(names, values[::-1])
                for values in product(*[range(dag.cardinality(n)) for n in reversed(names)])]

    w1_configs, w2_configs = configs(members), configs(w2)
    order = [m for m in dag.topological_order() if m in members_set]
    columns = []
    for reversed_levels in product(*[range(spec.level_count) for spec in reversed(specs)]):
        levels = reversed_levels[::-1]
        outcomes = []
        for w2c in w2_configs:
            values = w2c.as_dict()
            for m in order:
                i = members.index(m)
                values[m] = eval_response(specs[i], levels[i], values)
            w1 = Configuration.make(members, [values[m] for m in members])
            outcomes.append(w1_configs.index(w1))
        columns.append((levels, tuple(outcomes)))
    columns.sort(key=lambda column: column[1][0])
    return (tuple((w1, w2c) for w2c in w2_configs for w1 in w1_configs),
            tuple(levels for levels, _ in columns),
            tuple(outcomes for _, outcomes in columns))


# -- dense views of a district system -----------------------------------------


def encode_response(spec, outputs) -> int:
    """Inverse of ``eval_response``: outputs listed per parent-config rank."""
    if len(outputs) != spec.parent_domain_size:
        raise ValueError("need one output per parent configuration")
    level = 0
    for value in outputs:
        if not 0 <= value < spec.cardinality:
            raise ValueError(f"output {value} out of range for {spec.variable}")
        level = level * spec.cardinality + value
    return level


def compatible_responses(dag, district, w1, w2) -> set[int]:
    """Column indices of the district's system whose joint response gives (w1, w2)."""
    system = build_functional_system(dag, district)
    block, outcome = divmod(system.row_labels.index((w1, w2)), system.block_sizes[0])
    return {c for c, outcomes in enumerate(system.columns()[1]) if outcomes[block] == outcome}


def multiply(system, r) -> list[Fraction]:
    """B r for a district system, over its dense 0/1 rows."""
    if len(r) != system.n_cols:
        raise ValueError("response vector has wrong length")
    return [
        sum((value * coeff for value, coeff in zip(row, r)), Fraction(0))
        for row in system_matrix(system)
    ]


def coeff_vector(constraint, n_rows: int) -> list[int]:
    """A constraint's dense coefficient row."""
    vec = [0] * n_rows
    for row, coeff in constraint.terms:
        vec[row] = coeff
    return vec


# -- evaluation by scanning ---------------------------------------------------


def scan_prob(table: JointTable, assignment: dict) -> Fraction:
    """Marginal probability of a partial assignment, by a scan of every row."""
    index = {name: i for i, name in enumerate(table.variables)}
    return sum(
        (p for config, p in table.probs.items()
         if all(config[index[n]] == v for n, v in assignment.items())),
        Fraction(0),
    )


def _scan_star(table, dag, members, w1, w2):
    values = dict(w1.items)
    values.update(w2.items)
    result = Fraction(1)
    for member, cond in star_factors(dag, members):
        given = {name: values[name] for name in cond}
        denom = scan_prob(table, given)
        if denom == 0:
            return None
        result *= scan_prob(table, {**given, member: values[member]}) / denom
    return result


def evaluate_by_scan(result: DerivationResult, dag: HiddenDag, table: JointTable,
                     tolerance: Fraction | None = None) -> ViolationReport:
    """Reference ``evaluate``: every probability is a scan of the whole table,
    every row is a sum of Fractions, and every CI statement visits all the
    configurations of its variables."""
    if tolerance is None:
        tolerance = Fraction(1, 10 ** 9) if table.decimal_source else Fraction(0)
    working = parse_graph(result.derived_graph_text)
    statuses = []
    for index, record in enumerate(result.districts):
        if record.system is None:
            continue
        stars = [
            _scan_star(table, working, record.members, w1, w2)
            for w1, w2 in record.system.row_labels
        ]
        for c in record.constraints:
            text = render(c, record.system, working, "star")
            if any(stars[row] is None for row, _ in c.terms):
                statuses.append(ConstraintStatus(index, c, text, "not_evaluable", None))
                continue
            value = sum((coeff * stars[row] for row, coeff in c.terms), Fraction(0))
            if c.relation == "<=":
                status = "violated" if value - c.rhs > tolerance else "satisfied"
                margin = max(value - c.rhs, Fraction(0))
            else:
                margin = abs(value - c.rhs)
                status = "violated" if margin > tolerance else "satisfied"
            statuses.append(ConstraintStatus(index, c, text, status, margin))
    ci_statuses = []
    for stmt in result.ci_statements:
        names = stmt.lhs + stmt.rhs + stmt.given
        margin = Fraction(0)
        for values in product(*(range(dag.cardinality(n)) for n in names)):
            v = dict(zip(names, values))
            lhs = {n: v[n] for n in stmt.lhs}
            rhs = {n: v[n] for n in stmt.rhs}
            given = {n: v[n] for n in stmt.given}
            gap = (scan_prob(table, v) * scan_prob(table, given)
                   - scan_prob(table, {**lhs, **given}) * scan_prob(table, {**rhs, **given}))
            margin = max(margin, abs(gap))
        status = "violated" if margin > tolerance else "satisfied"
        ci_statuses.append(CIStatus(stmt, status, margin))
    return ViolationReport(tuple(statuses), tuple(ci_statuses), tolerance)


# -- test helpers the program does not run ------------------------------------


def h_to_v(h: HRep) -> VRep:
    """Vertices of a bounded polytope given in H-representation.

    Raises ``UnboundedPolytopeError`` when a ray or line is found and
    ``ValueError`` when the polytope is empty.
    """
    dim = h.dim
    reduced, pivots = _echelon([(*coeffs, rhs) for coeffs, rhs in h.eq])
    if dim in pivots:  # a pivot in the rhs column: 0 = 1
        raise ValueError("equality system is inconsistent; empty polytope")
    x0 = [Fraction(0)] * dim
    for row, p in zip(reduced, pivots):
        x0[p] = Fraction(row[dim], row[p])
    basis = _null_basis(reduced, pivots, dim)
    t = len(basis)

    reduced_rows = []
    for coeffs, rhs in h.ineq:
        shift = rhs - sum(c * x for c, x in zip(coeffs, x0))
        proj = [sum(c * x for c, x in zip(coeffs, vec)) for vec in basis]
        if all(v == 0 for v in proj):
            if shift < 0:
                raise ValueError("inconsistent inequalities; empty polytope")
            continue
        reduced_rows.append((proj, shift))
    if t == 0:
        return VRep((tuple(x0),))

    cone_rows = [_integerize([-shift] + proj) for proj, shift in reduced_rows]
    cone_rows.append(tuple([-1] + [0] * t))
    try:
        rays = extreme_rays(cone_rows)
    except UnboundedPolytopeError as exc:
        raise UnboundedPolytopeError(
            "polyhedron contains a line; not a bounded polytope"
        ) from exc

    vertices = set()
    for ray in rays:
        s, z = ray[0], ray[1:]
        if s == 0:
            if any(v != 0 for v in z):
                raise UnboundedPolytopeError("polyhedron has a recession ray")
            continue
        scaled = [Fraction(v, s) for v in z]
        point = tuple(
            x0[j] + sum(scaled[i] * basis[i][j] for i in range(t))
            for j in range(dim)
        )
        vertices.add(point)
    if not vertices:
        raise ValueError("empty polytope")
    return VRep(tuple(sorted(vertices)))


def _canon_ineq(coeffs, rhs) -> tuple[Row, int]:
    row = _integerize(list(coeffs) + [rhs])
    return row[:-1], row[-1]


def hrep_from_rows(ineq, eq) -> HRep:
    """Canonicalize arbitrary rational rows into an HRep."""
    canon_ineq = sorted({_canon_ineq(c, r) for c, r in ineq})
    canon_eq = sorted({_canon_eq(c, r) for c, r in eq})
    return HRep(tuple(canon_ineq), tuple(canon_eq))


def table_from_dict(dag: HiddenDag, probs: dict, decimal_source: bool = False) -> JointTable:
    """A table over the graph's observed variables from {configuration: probability}."""
    names = dag.observed_names()
    cards = tuple(dag.cardinality(n) for n in names)
    cleaned = {tuple(k): Fraction(v) for k, v in probs.items() if v != 0}
    return JointTable(names, cards, cleaned, decimal_source)


def system_matrix(system) -> tuple[tuple[int, ...], ...]:
    """B as dense 0/1 rows."""
    return tuple(zip(*system.columns_as_points()))


def ancestors(dag: HiddenDag, names) -> frozenset[str]:
    """Reflexive ancestor closure through all variables, latents included."""
    seen = {dag.variable(n).name for n in names}
    frontier = list(seen)
    while frontier:
        for parent in dag.parents(frontier.pop()):
            if parent not in seen:
                seen.add(parent)
                frontier.append(parent)
    return frozenset(seen)


def replay(dag: HiddenDag, log) -> HiddenDag:
    """A rewrite log's primitive edits applied in order to its input graph,
    read from the edit format that ``RewriteStep`` documents."""
    variables, edges = list(dag.variables), set(dag.edges)
    for step in log.steps:
        for op, *args in step.edits:
            if op == "add_edge":
                edges.add(tuple(args))
            elif op == "remove_edge":
                edges.discard(tuple(args))
            elif op == "remove_var":
                variables = [v for v in variables if v.name != args[0]]
                edges = {e for e in edges if args[0] not in e}
            elif op == "add_latent":
                variables.append(Variable(args[0], "latent"))
            else:
                raise ValueError(f"unknown edit {op!r}")
    return HiddenDag(variables, edges)
