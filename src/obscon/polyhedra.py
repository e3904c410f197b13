"""Exact polyhedral computation: V/H representations and the vertex-to-facet conversion.

Everything is exact and no floating point appears anywhere. Points have
integer coordinates (a response system's columns are 0/1), so the linear
algebra runs on Python ints only and builds no fraction. Rational points
are scaled by their common denominator k first: a row ``c . y <= r`` of the
scaled points' hull is the row ``c . x <= r / k`` of theirs. One
fraction-free Gauss-Jordan kernel (``_echelon``) does all of the
elimination: it finds the affine hull's pivot columns and equality rows,
the null space of a point's tight rows, and, in ``_basis_inverse``, the
independent rows and the inverse that start double description and turn
each facet orbit's keys back into rays.

The vertex-to-facet conversion is double description (``extreme_rays``). It
inserts the constraint rows in descending lexicographic order, the "lexmax"
rule of Fukuda & Prodon ("Double description method revisited", 1996).
On the full symmetric polytopes (plain I3322 and Bell) that does the work
that ascending ("lexmin") order does; on the ridges of the orbit path it
does less (see ``extreme_rays``). The rays it returns do not depend on the
order of the input rows, nor does ``v_to_h`` on the order of its points. Its
combinatorial work runs on Python-int bitsets: every ray keeps the mask of
constraint rows it is tight at, and every insertion step transposes those
masks, by strided slices of one string, into one bitset per row marking
the rays tight at it (the tight sets of Terzer & Stelling, "Large-scale
computation of elementary flux modes with bit pattern trees",
Bioinformatics 24, 2008). The adjacency test of a plus/minus pair is then
an AND of row bitsets. A plus ray's candidate partners, the minus rays
that share enough of its rows, come from one of two exact filters, chosen
per plus ray by the number of minus rays per row of the plus ray: a direct
pass that ANDs and counts every minus mask in C, or a bit-sliced counter
over bitsets as wide as the minus rays, which loops over the plus ray's
rows in Python. A mask's rows are selected and ANDed by
``itertools.compress`` and ``functools.reduce``, so no Python loop runs
over rows or bits there. Most candidate pairs are not adjacent: the AND
leaves a third ray, tight wherever both are, and a step remembers these
witnesses.
A remembered witness that is neither ray of a later pair and is tight at all
of that pair's common rows settles it with one check on small masks, before
any AND. No mask changes during a step's pair loop, so every such answer is
exact.

Symmetric point sets go orbit by orbit instead (``_facet_orbits``), by the
adjacency decomposition of Bremner, Dutour Sikirić & Schürmann ("Polyhedral
representation conversion up to symmetries", arXiv:math/0702239) and
Christof & Reinelt (IJCGA 11, 2001). The caller proposes coordinate
permutations; ``point_symmetries`` keeps those that map the points onto
themselves, an exact check. With at least ``ORBIT_MIN_POINTS`` distinct
points and a kept group that is transitive on them, one representative per
facet orbit is converted: a small plain ``v_to_h`` of its tight points gives
its ridges, each ridge leads to a neighbouring facet, and a generating
set of the same group, pruned of generators the others already give
(``_pruned_generators``), expands every new orbit: I3322's 11 verified
generators become 4, Bell's 12 become 4. One closure walk (``_orbit``)
both tests that the group is transitive and expands the facet orbits.
Smaller or less symmetric sets do no group work or take plain double
description, where the group work would cost more than it saves. Both
paths return the same canonical HRep. All vertices of a product of
simplices need no conversion: ``simplex_product_hrep`` writes that HRep in
closed form.

Canonical form of an H-representation: every row is scaled to integer entries
with gcd 1 (positive scaling only, so inequality orientation is intrinsic),
equality rows additionally have their first nonzero coefficient negative,
rows are sorted lexicographically and duplicates dropped. Inequality rows are
emitted in the coordinates of the affine hull's pivot columns, with zero
coefficients on the dependent columns.
"""

from __future__ import annotations

import sys
from functools import reduce
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import and_, ge, itemgetter, mul
from typing import Iterable, NamedTuple, Sequence


class UnboundedPolytopeError(ValueError):
    """A ray or line was found where a bounded polytope was required."""


Row = tuple[int, ...]


class _VRepFields(NamedTuple):
    points: tuple[tuple[int, ...], ...]


class VRep(_VRepFields):
    """Convex-hull generators (points only; rays are out of scope).

    Coordinates are ``int``s; a ``bool``, ``Fraction`` or ``float`` is
    refused, as are no points and points of different lengths, all on
    construction. Scale rational points by their common denominator.
    """

    __slots__ = ()

    def __new__(cls, points: tuple[tuple[int, ...], ...]):
        if not points:
            raise ValueError("VRep needs at least one point")
        dim = len(points[0])
        if any(len(p) != dim for p in points):
            raise ValueError("points have inconsistent dimensions")
        kinds = set(map(type, chain.from_iterable(points)))
        if not kinds <= {int}:
            name = min(kind.__name__ for kind in kinds - {int})
            raise ValueError(f"coordinates must be int, not {name}")
        return super().__new__(cls, points)

    @classmethod
    def _make(cls, iterable) -> "VRep":
        return cls(*iterable)  # checked, as is every ``_replace``

    @property
    def dim(self) -> int:
        return len(self.points[0])


class HRep(NamedTuple):
    """Canonical halfspace representation: ineq rows H x <= b, eq rows H x = b."""

    ineq: tuple[tuple[Row, int], ...]
    eq: tuple[tuple[Row, int], ...]

    @property
    def dim(self) -> int:
        for rows in (self.ineq, self.eq):
            if rows:
                return len(rows[0][0])
        return 0

    def to_cdd(self) -> str:
        """Conventional polyhedral text format: rows are (b, -H), eq rows first."""
        rows = list(self.eq) + list(self.ineq)
        lines = ["H-representation"]
        if self.eq:
            lines.append("linearity %d %s" % (
                len(self.eq), " ".join(str(i + 1) for i in range(len(self.eq)))))
        lines.append("begin")
        lines.append(f"{len(rows)} {self.dim + 1} rational")
        for coeffs, rhs in rows:
            lines.append(" ".join(str(v) for v in (rhs, *(-c for c in coeffs))))
        lines.append("end")
        return "\n".join(lines) + "\n"


# -- exact linear algebra helpers ---------------------------------------


def _primitive(row: list[int]) -> list[int]:
    """Divide an integer row by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _canon_eq(coeffs: Sequence[int], rhs: int) -> tuple[Row, int]:
    """The equality ``coeffs . x = rhs`` with its first nonzero coefficient
    negative, as a hashable row. Its entries, rhs included, must have gcd 1."""
    if next((v for v in coeffs if v), 0) > 0:
        return tuple(-v for v in coeffs), -rhs
    return tuple(coeffs), rhs


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows.

    Returns (rows, pivot columns): the reduced row echelon form with
    leftmost pivots, each row scaled to integers with gcd 1 and a positive
    pivot, and zero in every other row's pivot column. Row i is a positive
    multiple of row i of the rational reduced form, so the pivots are the
    greedy-first independent columns. Rows are combined by cross
    multiplication and divided by their gcd at every step, so no fraction
    appears and the entries stay small (fraction-free elimination; compare
    Bareiss, Math. Comp. 22, 1968, who divides by the previous pivot).
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if k is None:
            continue
        prow = _primitive(mat[k])
        if prow[c] < 0:
            prow = [-v for v in prow]
        mat[k] = mat[r]
        mat[r] = prow
        pv = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                mat[i] = _primitive([pv * a - f * b for a, b in zip(row, prow)])
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    return mat[:len(pivots)], pivots


def _null_basis(reduced: list[list[int]], pivots: list[int], ncols: int) -> list[list[int]]:
    """Integer basis of {x : reduced x = 0} over the first ``ncols`` columns.

    One primitive vector per free column f, positive at f and zero at the
    other free columns.
    """
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        scale = lcm(*(row[p] for row, p in zip(reduced, pivots) if row[f]))
        vec = [0] * ncols
        vec[f] = scale
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f] * (scale // row[p])
        basis.append(_primitive(vec))
    return basis


def affine_hull(points: Sequence[tuple]):
    """Pivot columns and equality rows of the points' affine hull.

    Returns (pivot_cols, eq_rows): the pivot columns of the differences to
    the first point, and the canonicalized equality constraints satisfied
    by every point, one per non-pivot column.
    """
    base = points[0]
    diffs = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    reduced, pivots = _echelon(diffs)
    eqs = [
        _canon_eq(vec, sum(c * x for c, x in zip(vec, base)))
        for vec in _null_basis(reduced, pivots, len(base))
    ]
    return pivots, sorted(set(eqs))


# -- double description ---------------------------------------------------


def _basis_inverse(rows: Sequence[Row]) -> tuple[list[int], list[list[int]]]:
    """(basis, inverse): the greedy-first independent rows' indices and, as
    ``inverse[j]``, column j of their inverse times one positive integer,
    both read off the elimination of ``[rows^T | I]``. Raises
    ``UnboundedPolytopeError`` when the rows do not span."""
    width = len(rows[0])
    reduced, basis = _echelon([
        [row[i] for row in rows] + [int(i == j) for j in range(width)]
        for i in range(width)
    ])
    if not basis or basis[-1] >= len(rows):
        raise UnboundedPolytopeError("constraint rows do not span; cone is not pointed")
    scale = lcm(*(red[b] for red, b in zip(reduced, basis)))
    return basis, [[c * (scale // red[b]) for c in red[len(rows):]]
                   for red, b in zip(reduced, basis)]


def extreme_rays(rows: Sequence[Row], progress=None) -> list[Row]:
    """Extreme rays of the pointed cone {y : row . y <= 0 for every row}.

    Double description with the descending lexicographic ("lexmax")
    insertion order of Fukuda & Prodon, "Double description method
    revisited" (1996): the rows are sorted lexicographically, largest
    first, the first independent sorted rows span the initial simplicial
    cone, and the other rows are inserted in sorted order. The ray list
    therefore depends only on the multiset of rows, not on their input
    order. Requires the rows to have full column rank (a pointed cone);
    raises ``UnboundedPolytopeError`` otherwise. README "Performance
    notes" compares the work of this order with the ascending one.

    Each step splits the rays into plus (cut off), zero and minus rays and
    builds, for every row, the bitset of the current rays tight at it
    (bit j is ray j of the current list; ``_tight_sets``). A plus ray p and
    a minus ray n are adjacent iff no third ray is tight at every row where
    both are; that is, iff ANDing the row bitsets over the rows in
    ``mask_p & mask_n`` leaves only the bits of p and n. A selector of
    those rows (``_selector``) feeds them to ``compress`` and ``reduce``;
    starting from the set of all rays keeps the test right when the pair
    has no common row, as on a 2-dimensional cone. Adjacency also needs
    at least ``dim - 2`` common rows, so n may miss at most
    ``slack = popcount(mask_p) - (dim - 2)`` of p's rows. Every ray in the
    list is tight at ``dim - 1`` rows or more (an initial ray at every basis
    row but one; a new ray at its pair's common rows, at least ``dim - 2``,
    plus the inserted row; a zero ray gains the inserted row), so slack is
    at least 1. ``_candidate_filter`` finds all such n for p, ascending,
    by one of two exact formulations: a direct pass that counts
    ``popcount(mask_p & mask_n)`` for every minus ray in one C-level map,
    taken while the step has at most ``DIRECT_MINUS_PER_ROW`` minus rays
    per row of p; otherwise a bit-sliced counter over p's rows of the
    "missed" bitsets, the minus rays' masks transposed (bit j for the j-th
    minus ray), built once per step and only if some plus ray needs them.
    Both give the same list, so the choice changes no ray, order or hook
    call. Only these n are tested, in list order. New rays come out
    plus-major, minus-minor, after the zero and minus rays.

    Witness memo: when a pair (p, n) fails, the highest-indexed third ray
    r left by the AND is tight at every row of ``common = mask_p & mask_n``.
    r is kept for the rest of the step as n's witness and in p's list.
    Before its AND, a later pair (q, m) tries m's witness, then the witness
    that last answered for q, then q's list: a witness r that is neither q
    nor m and passes ``common & ~mask_r == 0`` shows the pair non-adjacent.
    The condition that r is not q or m is needed, since each ray is tight
    wherever it itself is. No tight mask changes during a step's pair loop,
    so the memo only skips ANDs whose outcome is already known: the rays,
    their order and the hook calls are those of the plain test.

    ``progress(done, total, n_rays, n_cut)`` is invoked once per insertion,
    before the step, with the number of rows already in, the number of
    rows, the current rays and the plus rays among them.
    """
    rows = sorted((tuple(r) for r in rows), reverse=True)
    if not rows:
        raise ValueError("no constraint rows")
    dim = len(rows[0])
    n = len(rows)
    basis_idx, inverse = _basis_inverse(rows)

    # rays of the initial simplicial cone: the negated columns of the basis
    # rows' inverse; ray j is tight at every basis row except the j-th
    rays = []  # each entry: [vector, tight-mask]
    full_basis_mask = 0
    for i in basis_idx:
        full_basis_mask |= 1 << i
    for i, column in zip(basis_idx, inverse):
        rays.append([tuple(_primitive([-v for v in column])), full_basis_mask & ~(1 << i)])

    remaining = [i for i in range(n) if not full_basis_mask >> i & 1]
    width = f"0{n}b"
    for done, k in enumerate(remaining, dim):
        bit = 1 << k
        row = rows[k]
        support = [i for i, v in enumerate(row) if v]
        coefficients = [row[i] for i in support]
        # two spare indices keep pick's result a tuple for any support;
        # map stops at the last coefficient
        pick = itemgetter(*support, 0, 0)
        products = [sum(map(mul, coefficients, pick(ray[0]))) for ray in rays]
        plus, zero, minus = [], [], []
        for index, (ray, s) in enumerate(zip(rays, products)):
            if s > 0:
                plus.append((index, ray, s))
            elif s < 0:
                minus.append(index)
            else:
                ray[1] |= bit
                zero.append(ray)
        if progress is not None:
            progress(done, n, len(rays), len(plus))
        kept = zero + [rays[i] for i in minus]
        if not plus or not minus:
            rays = kept
            continue

        masks = [ray[1] for ray in rays]
        tight = _tight_sets(masks, n)
        all_rays = (1 << len(rays)) - 1
        partners = _candidate_filter(minus, [masks[i] for i in minus], n, dim - 2)
        # witness memo: the third ray that showed a pair non-adjacent, kept
        # by its minus ray for the whole step and by its plus ray in a list
        n_witness = {}
        new_rays = []
        for p_index, p_ray, sp in plus:
            mask_p = p_ray[1]
            witnesses = []
            last = None  # the witness that last answered for p
            for n_index in partners(mask_p):
                common = mask_p & masks[n_index]
                r = n_witness.get(n_index)
                if r is not None and r != p_index and not common & ~masks[r]:
                    continue
                if last is not None and last != n_index and not common & ~masks[last]:
                    continue
                for r in witnesses:
                    if r != n_index and not common & ~masks[r]:
                        last = r
                        break
                else:
                    pair = (1 << p_index) | (1 << n_index)
                    survivors = reduce(and_, compress(tight, _selector(common, width)),
                                       all_rays)
                    if survivors == pair:
                        n_ray, sn = rays[n_index], products[n_index]
                        vec = [sp * nv - sn * pv for pv, nv in zip(p_ray[0], n_ray[0])]
                        new_rays.append([tuple(_primitive(vec)), common | bit])
                    else:
                        last = (survivors ^ pair).bit_length() - 1
                        n_witness[n_index] = last
                        witnesses.append(last)
        rays = kept + new_rays

    return [ray[0] for ray in rays]


_BITS = bytes.maketrans(b"01", b"\0\1")


def _selector(mask: int, width: str) -> bytes:
    """Bit i of ``mask`` as byte i, 0 or 1, for ``itertools.compress``.

    ``width`` is the format spec ``f"0{n}b"`` of n rows. ``format`` writes
    the highest row first, so the translated bytes are reversed to put
    row 0 first, as in a list indexed by row.
    """
    return format(mask, width).encode().translate(_BITS)[::-1]


def _bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending.

    Walks a plus ray's candidate set, a bitset over the minus rays. It
    goes down from the top bit, so the set shrinks at every step and is
    never negated (``mask & -mask`` copies all of it per bit).
    """
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def _tight_sets(masks: Sequence[int], n_rows: int) -> list[int]:
    """Per row, the bitset of the masks set at it: bit j of entry i is bit
    i of ``masks[j]``.

    A transpose at C speed: the masks are written as ``n_rows``-digit
    binary strings and joined, last mask first, so row i of every mask is
    the strided slice ``text[n_rows - 1 - i::n_rows]``, read back as one
    integer whose lowest bit is mask 0's.
    """
    if not masks:
        return [0] * n_rows
    width = f"0{n_rows}b"
    text = "".join([format(mask, width) for mask in reversed(masks)])
    return [int(text[n_rows - 1 - i::n_rows], 2) for i in range(n_rows)]


# at most this many minus rays per tight row of the plus ray: the direct
# candidate pass, else the bit-sliced counter (README "Performance notes")
DIRECT_MINUS_PER_ROW = 6


def _candidate_filter(minus: Sequence[int], minus_masks: Sequence[int], n_rows: int,
                      least: int):
    """The map from a plus ray's tight mask to its candidate partners: the
    ray indices of ``minus``, ascending, whose masks ``minus_masks`` share
    at least ``least`` rows with it.

    Two exact formulations, chosen per plus ray. The direct pass ANDs the
    mask with every minus mask and counts the common rows, all in C, so
    its cost grows with the number of minus rays. The bit-sliced counter
    (``_within_slack``) runs a Python loop over the plus ray's rows of the
    "missed" bitsets, bit j set where the j-th minus ray is not tight,
    so its cost grows with the plus ray's row count. The direct pass is
    taken while there are at most ``DIRECT_MINUS_PER_ROW`` minus rays per
    row of the plus ray; the missed bitsets are built on the first plus
    ray that takes the counter, and never on a step where none does.
    """
    width = f"0{n_rows}b"
    all_minus = (1 << len(minus)) - 1
    missed = []

    def partners(mask: int) -> Iterable[int]:
        rows = mask.bit_count()
        if len(minus) <= DIRECT_MINUS_PER_ROW * rows:
            shared = map(int.bit_count, map(and_, minus_masks, repeat(mask)))
            return compress(minus, map(ge, shared, repeat(least)))
        if not missed:
            missed.extend(all_minus ^ t for t in _tight_sets(minus_masks, n_rows))
        within = _within_slack(list(compress(missed, _selector(mask, width))),
                               all_minus, rows - least)
        return map(minus.__getitem__, _bit_indices(within))

    return partners


def _within_slack(missed_rows: Sequence[int], candidates: int, slack: int) -> int:
    """The rays of ``candidates`` set in at most ``slack`` of ``missed_rows``.

    A bit-sliced counter: ``planes[j]`` holds bit j of every ray's count,
    so adding one row is a ripple-carry addition over whole bitsets, and a
    carry out of the top plane marks the ray as over. The counts left are
    then compared with ``slack`` plane by plane, highest first.
    """
    planes = [0] * slack.bit_length()
    over = 0
    for missed in missed_rows:
        carry = missed
        for j, plane in enumerate(planes):
            planes[j] = plane ^ carry
            carry &= plane
            if not carry:
                break
        over |= carry
    # x ^ (x & y) clears y's bits from x without ~y, a negative number that
    # Python would build as a copy of the whole bitset
    equal = candidates ^ (candidates & over)
    for j in reversed(range(len(planes))):
        if slack >> j & 1:
            equal &= planes[j]
        else:
            over |= equal & planes[j]
            equal ^= equal & planes[j]
    return candidates ^ (candidates & over)


# -- symmetry ----------------------------------------------------------------

# fewer distinct points than this: no group work, plain double description
ORBIT_MIN_POINTS = 32


def point_symmetries(points: Sequence[tuple], symmetries: Iterable[Sequence[int]]
                     ) -> list[tuple[int, ...]]:
    """The coordinate permutations that map the points onto themselves.

    A coordinate permutation ``perm`` sends x to the y with
    ``y[perm[i]] = x[i]``. Each one that sends every point to a point is
    returned as the permutation g of point indices it induces:
    ``points[g[j]]`` is the image of ``points[j]``. The others are dropped.
    """
    index = {p: j for j, p in enumerate(points)}
    found = []
    for perm in symmetries:
        inverse = [0] * len(perm)
        for i, target in enumerate(perm):
            inverse[target] = i
        move = itemgetter(*inverse)
        image = [index.get(move(p)) for p in points]
        if None not in image:
            found.append(tuple(image))
    return found


def _orbit_generators(points: Sequence[tuple], symmetries) -> list[tuple[int, ...]] | None:
    """The verified point symmetries if ``v_to_h`` should go orbit-wise, else None.

    The orbit path pays off when the group moves every point to every other
    (transitive), so that every facet orbit is large; below
    ``ORBIT_MIN_POINTS`` points the proposals are not even read.
    """
    if len(points) < ORBIT_MIN_POINTS:
        return None
    generators = point_symmetries(points, symmetries)
    reached = _orbit(0, [g.__getitem__ for g in generators], set())
    return generators if len(reached) == len(points) else None


def _orbit(seed, moves, seen: set) -> list:
    """The elements reached from ``seed`` by ``moves`` (functions of one
    element), in the order reached and not already in ``seen``; adds them
    to ``seen``."""
    seen.add(seed)
    orbit = [seed]
    for x in orbit:  # grows while it is walked
        for move in moves:
            y = move(x)
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return orbit


def _pruned_generators(generators: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The generators, less those the others already give.

    Drops the identity and repeats, then, in order, each generator g equal
    to h k h^-1 for two other generators h, k still kept, that is, whose
    conjugate h^-1 g h by another kept h is a third kept one. A dropped
    generator is in the group the kept ones generate, so the group is the
    same.
    """
    kept = list(dict.fromkeys(g for g in generators if g != tuple(range(len(g)))))
    inverses = {g: sorted(range(len(g)), key=g.__getitem__) for g in kept}
    for g in list(kept):
        others = set(kept) - {g}
        if any(tuple(map(inverses[h].__getitem__, map(g.__getitem__, h))) in others
               for h in others):
            kept.remove(g)
    return kept


def _facet_orbits(chart: Sequence[tuple], rows: Sequence[Row],
                  generators: Sequence[tuple[int, ...]], progress=None) -> list[list[Row]]:
    """The extreme rays of {y : row . y <= 0}, orbit by orbit.

    Adjacency decomposition (Bremner, Dutour Sikirić & Schürmann,
    arXiv:math/0702239; Christof & Reinelt, IJCGA 11, 2001). ``rows`` are
    the cone rows ``(1, q)`` of the full-dimensional points ``chart``, and
    ``generators`` permute the points (as ``point_symmetries`` returns
    them). A facet is keyed by its primitive vector of values ``row . y``
    over the points; a generator g sends key k to ``k[g[j]]`` at point j.

    The first facet comes from rotating a coordinate bound until its tight
    points span a hyperplane. Then, for each orbit representative F, plain
    ``v_to_h`` of F's tight points gives F's ridges; each ridge h rotates
    about itself onto the neighbouring facet h + mu * F, with mu the least
    value keeping every point feasible. A key not seen before starts a new
    orbit, expanded by ``_pruned_generators(generators)``, which generate
    the same group with fewer images to key (README "Performance notes"
    counts them on I3322). The orbits, and so the representatives whose
    ridges are converted, do not depend on the generating set. The facet
    graph is connected, so every orbit is reached. Each key is turned back
    into its ray with the inverse of one basis of the rows.

    Needs a hull of dimension at least 2, where ridges are nonempty; a
    group transitive on 32 or more points guarantees it, since all of them
    are then vertices.
    """
    width = len(rows[0])
    values = _columns_product(list(zip(*rows)))  # y -> row . y at every point

    # a coordinate bound q_1 <= top, tight at some point
    y = [-max(row[1] for row in rows), 1] + [0] * (width - 2)
    while True:
        vals = values(y)
        reduced, pivots = _echelon([row for row, v in zip(rows, vals) if v == 0])
        if len(pivots) == width - 1:
            break
        lead = next(i for i, c in enumerate(y) if c)
        z = next(z for z in _null_basis(reduced, pivots, width)
                 if any(y[lead] * b != z[lead] * a for a, b in zip(y, z)))
        z_vals = values(z)
        if max(z_vals) <= 0:
            z, z_vals = [-c for c in z], [-v for v in z_vals]
        # the largest step num / den keeping every point feasible; a point
        # leaves the slack and joins the tight set, raising its rank
        steps = [(-v, w) for v, w in zip(vals, z_vals) if w > 0]
        num, den = steps[0]
        for v, w in steps:
            if v * den < num * w:
                num, den = v, w
        y = _primitive([den * a + num * b for a, b in zip(y, z)])

    seen: set[tuple[int, ...]] = set()
    actions = [itemgetter(*g) for g in _pruned_generators(generators)]
    orbits = [_orbit(tuple(_primitive(vals)), actions, seen)]
    for orbit in orbits:  # grows while it is walked
        key = orbit[0]
        tight = [chart[p] for p, v in enumerate(key) if v == 0]
        off = [(p, -v) for p, v in enumerate(key) if v]
        for coeffs, rhs in v_to_h(VRep(tuple(tight)), progress).ineq:
            h = values((-rhs,) + coeffs)
            num, den = h[off[0][0]], off[0][1]
            for p, slack in off:
                if h[p] * den > num * slack:
                    num, den = h[p], slack
            neighbour = tuple(_primitive([den * a + num * b for a, b in zip(h, key)]))
            if neighbour not in seen:
                orbits.append(_orbit(neighbour, actions, seen))

    basis, inverse = _basis_inverse(rows)
    solve = _columns_product(inverse)
    at_basis = itemgetter(*basis)
    return [[tuple(_primitive(solve(at_basis(key)))) for key in orbit] for orbit in orbits]


def _columns_product(columns: Sequence[Sequence[int]]):
    """The map y -> sum over j of y[j] * columns[j], for integer columns.

    The columns are packed into one int each, 64 bits per entry, so the sum
    is a few big-int products (SIMD within a register). Adding 2**63 to
    every field keeps each field in [0, 2**64), so no borrow crosses
    fields; xor-ing the same bias off leaves every field in two's
    complement, read back as native signed 64-bit integers. This is exact
    while ``top * sum(|y|) < 2**63`` bounds every entry; past that bound
    the entries are summed one row at a time.
    """
    length = len(columns[0])
    top = max(abs(c) for column in columns for c in column)
    packed = [sum(c << 64 * i for i, c in enumerate(column)) for column in columns]
    bias = sum(1 << 64 * i + 63 for i in range(length))
    rows = list(zip(*columns))

    def product(y):
        if top * sum(map(abs, y)) >= 1 << 63:
            return [sum(map(mul, row, y)) for row in rows]
        total = (sum(map(mul, y, packed)) + bias) ^ bias
        fields = memoryview(total.to_bytes(8 * length, sys.byteorder)).cast("q").tolist()
        return fields if sys.byteorder == "little" else fields[::-1]

    return product


# -- conversions -----------------------------------------------------------


def simplex_product_hrep(block_sizes: Sequence[int]) -> HRep:
    """The HRep that ``v_to_h`` gives for all vertices of a product of simplices.

    The blocks are contiguous coordinates, in order, and a vertex is 1 at
    one coordinate of each block and 0 elsewhere. The hull is the set of
    nonnegative points whose every block sums to 1, so its rows are known
    without a conversion: one equality per block (-1 on the block, rhs -1)
    and, in ``v_to_h``'s chart (every coordinate but the last of its
    block), ``-x_c <= 0`` for each chart coordinate and, per block of two
    or more, the last coordinate's positivity as ``sum of the others <= 1``.
    Rows are sorted as ``v_to_h`` sorts them.
    """
    dim = sum(block_sizes)
    ineq, eq = [], []
    start = 0
    for size in block_sizes:
        stop = start + size
        eq.append((tuple(-int(start <= c < stop) for c in range(dim)), -1))
        if size > 1:
            ineq.append((tuple(int(start <= c < stop - 1) for c in range(dim)), 1))
            ineq.extend((tuple(-int(c == k) for c in range(dim)), 0)
                        for k in range(start, stop - 1))
        start = stop
    return HRep(ineq=tuple(sorted(ineq)), eq=tuple(sorted(eq)))


def v_to_h(v: VRep, progress=None, symmetries=()) -> HRep:
    """Facets and affine hull of the convex hull of the given integer points.

    ``symmetries`` are proposed coordinate permutations (see
    ``point_symmetries``), read only for at least ``ORBIT_MIN_POINTS``
    distinct points. Those that map the points onto themselves are kept;
    if the group they generate is transitive on the points, the facets come
    orbit by orbit (``_facet_orbits``), else from one double description
    over all points (``extreme_rays``). Either way the HRep is the same.
    ``progress`` is handed to every ``extreme_rays`` call.

    Inequality rows are written in the canonical chart: zero off the affine
    hull's leftmost pivot columns. A row is fixed only modulo the equalities,
    so ``constraints.flag_nontrivial``, which reads its coefficients, depends
    on this chart.
    """
    points = list(dict.fromkeys(v.points))
    dim = v.dim
    pivots, eq_rows = affine_hull(points)
    chart = [tuple(p[j] for j in pivots) for p in points]
    cone_rows = [(1,) + q for q in chart]
    generators = _orbit_generators(points, symmetries)
    if generators is None:
        rays = extreme_rays(cone_rows, progress=progress)
    else:
        rays = [ray for orbit in _facet_orbits(chart, cone_rows, generators, progress)
                for ray in orbit]
    ineqs = []
    for ray in rays:
        a0, a = ray[0], ray[1:]
        if all(c == 0 for c in a):
            continue  # the trivial face at the homogenization apex
        coeffs = [0] * dim
        for value, col in zip(a, pivots):
            coeffs[col] = value
        ineqs.append((tuple(coeffs), -a0))
    return HRep(ineq=tuple(sorted(set(ineqs))), eq=tuple(eq_rows))
