"""Exact polyhedral computation: V/H representations and their conversion.

Everything is exact and no floating point appears anywhere. Points may be
rational (``fractions.Fraction``) or integer; each row is scaled to coprime
integers as it enters the linear algebra, which then runs on Python ints
only. One fraction-free Gauss-Jordan kernel (``_echelon``) does all of the
elimination: it finds the affine hull's pivot columns and equality rows,
the independent rows and the inverse that start double description, and
the particular solution and null space of an equality system.

The vertex-to-facet conversion is double description (``extreme_rays``). It
inserts the constraint rows in lexicographic order, the "lexmin" rule of
Fukuda & Prodon ("Double description method revisited", 1996), which keeps
the intermediate ray lists small. The rays it returns do not depend on the
order of the input rows, nor does ``v_to_h`` on the order of its points. Its
combinatorial work runs on Python-int bitsets: every ray keeps the mask of
constraint rows it is tight at, and every insertion step transposes those
masks into one bitset per row marking the rays tight at it (the tight sets
of Terzer & Stelling, "Large-scale computation of elementary flux modes
with bit pattern trees", Bioinformatics 24, 2008). The adjacency test of a
plus/minus pair is then an AND of row bitsets, and a bit-sliced counter over
the same bitsets picks each plus ray's candidate partners without looking
at pairs one by one. Most candidate pairs are not adjacent: the AND leaves
a third ray, tight wherever both are, and a step remembers these witnesses.
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
its ridges, each ridge leads to a neighbouring facet, and the generators
expand every new orbit. Smaller or less symmetric sets do no group work or
take plain double description, where the group work would cost more than
it saves. Both paths return the same canonical HRep.

Canonical form of an H-representation: every row is scaled to integer entries
with gcd 1 (positive scaling only, so inequality orientation is intrinsic),
equality rows additionally have their first nonzero coefficient negative,
rows are sorted lexicographically and duplicates dropped. Inequality rows are
emitted in the coordinates of the affine hull's pivot columns, with zero
coefficients on the dependent columns.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Iterable, NamedTuple, Sequence


class UnboundedPolytopeError(ValueError):
    """A ray or line was found where a bounded polytope was required."""


Row = tuple[int, ...]


class _VRepFields(NamedTuple):
    points: tuple[tuple[int | Fraction, ...], ...]


class VRep(_VRepFields):
    """Convex-hull generators (points only; rays are out of scope).

    Coordinates are ``int`` or ``Fraction``; the points are checked on
    construction.
    """

    __slots__ = ()

    def __new__(cls, points: tuple[tuple[int | Fraction, ...], ...]):
        if not points:
            raise ValueError("VRep needs at least one point")
        dim = len(points[0])
        if any(len(p) != dim for p in points):
            raise ValueError("points have inconsistent dimensions")
        return super().__new__(cls, points)

    @classmethod
    def _make(cls, iterable) -> "VRep":
        return cls(*iterable)  # checked, as is every ``_replace``

    @property
    def dim(self) -> int:
        return len(self.points[0])

    @classmethod
    def make(cls, points: Iterable[Sequence]) -> "VRep":
        return cls(tuple(tuple(Fraction(x) for x in p) for p in points))


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

    @classmethod
    def from_rows(cls, ineq, eq) -> "HRep":
        """Canonicalize arbitrary rational rows into an HRep."""
        canon_ineq = sorted({_canon_ineq(c, r) for c, r in ineq})
        canon_eq = sorted({_canon_eq(c, r) for c, r in eq})
        return cls(tuple(canon_ineq), tuple(canon_eq))

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


def _integerize(vec) -> Row:
    """Scale a rational vector by a positive rational to integers with gcd 1."""
    vec = [x if isinstance(x, int) else Fraction(x) for x in vec]
    denom = lcm(*(x.denominator for x in vec))
    return tuple(_primitive([x.numerator * (denom // x.denominator) for x in vec]))


def _canon_ineq(coeffs, rhs) -> tuple[Row, int]:
    row = _integerize(list(coeffs) + [rhs])
    return row[:-1], row[-1]


def _canon_eq(coeffs, rhs) -> tuple[Row, int]:
    row = _integerize(list(coeffs) + [rhs])
    lead = next((v for v in row[:-1] if v != 0), 0)
    if lead > 0:
        row = tuple(-v for v in row)
    return row[:-1], row[-1]


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
    diffs = [_integerize([x - b for x, b in zip(p, base)]) for p in points[1:]]
    reduced, pivots = _echelon(diffs)
    eqs = [
        _canon_eq(vec, sum(c * x for c, x in zip(vec, base)))
        for vec in _null_basis(reduced, pivots, len(base))
    ]
    return pivots, sorted(set(eqs))


# -- double description ---------------------------------------------------


def extreme_rays(rows: Sequence[Row], progress=None) -> list[Row]:
    """Extreme rays of the pointed cone {y : row . y <= 0 for every row}.

    Double description with the lexicographic ("lexmin") insertion order of
    Fukuda & Prodon, "Double description method revisited" (1996): the rows
    are sorted lexicographically, the first independent sorted rows span the
    initial simplicial cone, and the other rows are inserted in sorted
    order. The ray list therefore depends only on the multiset of rows, not
    on their input order. Requires the rows to have full column rank (a
    pointed cone); raises ``UnboundedPolytopeError`` otherwise.

    Each step splits the rays into plus (cut off), zero and minus rays and
    builds, for every row, the bitset of the current rays tight at it
    (bit j is ray j of the current list). A plus ray p and a minus ray n
    are adjacent iff no third ray is tight at every row where both are;
    that is, iff ANDing the row bitsets over the rows in
    ``mask_p & mask_n`` leaves only the bits of p and n. The AND stops as
    soon as only those two remain. Adjacency also needs at least
    ``dim - 2`` common rows, so n may miss at most
    ``slack = popcount(mask_p) - (dim - 2)`` of p's rows. A bit-sliced
    counter over the minus rays' "missed" bitsets, walking p's rows, finds
    all such n at once, and only they are tested, in list order. New rays
    come out plus-major, minus-minor, after the zero and minus rays.

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
    rows = sorted(tuple(r) for r in rows)
    if not rows:
        raise ValueError("no constraint rows")
    dim = len(rows[0])
    # eliminating [rows^T | I] puts the first independent rows' indices in
    # the pivot columns and, in the right half, the inverse of their
    # transpose up to positive row scaling
    n = len(rows)
    reduced, basis_idx = _echelon([
        [row[i] for row in rows] + [int(i == j) for j in range(dim)]
        for i in range(dim)
    ])
    if not basis_idx or basis_idx[-1] >= n:
        raise UnboundedPolytopeError("constraint rows do not span; cone is not pointed")

    # rays of the initial simplicial cone: the negated columns of the basis
    # rows' inverse; ray j is tight at every basis row except the j-th
    rays = []  # each entry: [vector, tight-mask]
    full_basis_mask = 0
    for i in basis_idx:
        full_basis_mask |= 1 << i
    for j, red in enumerate(reduced):
        vec = _integerize([-v for v in red[n:]])
        rays.append([vec, full_basis_mask & ~(1 << basis_idx[j])])

    remaining = [i for i in range(n) if not full_basis_mask >> i & 1]
    for done, k in enumerate(remaining, dim):
        bit = 1 << k
        terms = [(i, v) for i, v in enumerate(rows[k]) if v]
        products = [sum(v * ray[0][i] for i, v in terms) for ray in rays]
        plus, zero, minus = [], [], []
        minus_set = 0
        for index, (ray, s) in enumerate(zip(rays, products)):
            if s > 0:
                plus.append((index, ray, s))
            elif s < 0:
                minus.append(ray)
                minus_set |= 1 << index
            else:
                ray[1] |= bit
                zero.append(ray)
        if progress is not None:
            progress(done, n, len(rays), len(plus))
        if not plus:
            rays = zero + minus
            continue

        tight = _tight_sets(rays, n)
        all_rays = (1 << len(rays)) - 1
        masks = [ray[1] for ray in rays]
        missed = [minus_set ^ (minus_set & t) for t in tight]
        # witness memo: the third ray that showed a pair non-adjacent, kept
        # by its minus ray for the whole step and by its plus ray in a list
        n_witness = {}
        new_rays = []
        for p_index, p_ray, sp in plus:
            mask_p = p_ray[1]
            p_rows = _bit_indices(mask_p)
            slack = len(p_rows) - (dim - 2)
            if slack < 0:
                continue
            witnesses = []
            last = None  # the witness that last answered for p
            candidates = _within_slack([missed[i] for i in p_rows], minus_set, slack)
            for n_index in _bit_indices(candidates):
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
                    survivors = all_rays
                    for i in p_rows:
                        if common >> i & 1:
                            survivors &= tight[i]
                            if survivors == pair:
                                break
                    if survivors == pair:
                        n_ray, sn = rays[n_index], products[n_index]
                        vec = [sp * nv - sn * pv for pv, nv in zip(p_ray[0], n_ray[0])]
                        new_rays.append([tuple(_primitive(vec)), common | bit])
                    else:
                        last = (survivors ^ pair).bit_length() - 1
                        n_witness[n_index] = last
                        witnesses.append(last)
        rays = zero + minus + new_rays

    return [ray[0] for ray in rays]


def _bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending.

    Walks down from the top bit, so a ray-wide mask shrinks at every step
    and is never negated (``mask & -mask`` copies all of it per bit).
    """
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def _tight_sets(rays, n_rows: int) -> list[int]:
    """Per constraint row, the bitset of the rays (by list index) tight at it.

    Transposes the rays' row masks: each mask is written as a fixed-width
    binary string, the strings are zipped column by column, and each column
    is read back as an integer, all at C speed. The rays go in reversed so
    that ray 0 lands on bit 0, and the columns come out highest row first.
    """
    width = f"0{n_rows}b"
    columns = zip(*[format(ray[1], width) for ray in reversed(rays)])
    return [int("".join(column), 2) for column in columns][::-1]


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
    # Python would build as a copy of the whole ray-wide bitset
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
    reached, frontier = {0}, [0]
    while frontier:
        j = frontier.pop()
        for g in generators:
            if g[j] not in reached:
                reached.add(g[j])
                frontier.append(g[j])
    return generators if len(reached) == len(points) else None


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
    orbit, expanded by the generators. The facet graph is connected, so
    every orbit is reached. Each key is turned back into its ray with the
    inverse of one basis of the rows.

    Needs a hull of dimension at least 2, where ridges are nonempty; a
    group transitive on 32 or more points guarantees it, since all of them
    are then vertices.
    """
    width = len(rows[0])
    values = _columns_product(list(zip(*rows)))  # y -> row . y at every point

    # a coordinate bound q_1 <= top, tight at some point
    top = max(Fraction(row[1], row[0]) for row in rows)
    y = [-top.numerator, top.denominator] + [0] * (width - 2)
    vals = values(y)
    while True:
        reduced, pivots = _echelon([row for row, v in zip(rows, vals) if v == 0])
        if len(pivots) == width - 1:
            break
        lead = next(i for i, c in enumerate(y) if c)
        z = next(z for z in _null_basis(reduced, pivots, width)
                 if any(y[lead] * b != z[lead] * a for a, b in zip(y, z)))
        z_vals = values(z)
        if max(z_vals) <= 0:
            z, z_vals = [-c for c in z], [-v for v in z_vals]
        # the largest step keeping every point feasible; a point leaves
        # the slack and joins the tight set, raising its rank
        t = min(Fraction(-v, w) for v, w in zip(vals, z_vals) if w > 0)
        y = _primitive([t.denominator * a + t.numerator * b for a, b in zip(y, z)])
        vals = values(y)

    seen: set[tuple[int, ...]] = set()
    orbits: list[list[tuple[int, ...]]] = []
    actions = [itemgetter(*g) for g in generators]

    def add_orbit(key):
        seen.add(key)
        orbit = [key]
        for k in orbit:  # grows while it is walked
            for act in actions:
                image = act(k)
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        orbits.append(orbit)

    add_orbit(tuple(_primitive(vals)))
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
                add_orbit(neighbour)

    # eliminating [rows^T | I] as in extreme_rays: right-half row j is a
    # positive multiple of column j of the basis rows' inverse
    reduced, basis = _echelon([
        [row[i] for row in rows] + [int(i == j) for j in range(width)]
        for i in range(width)
    ])
    scale = lcm(*(red[b] for red, b in zip(reduced, basis)))
    solve = _columns_product([[c * (scale // red[b]) for c in red[len(rows):]]
                              for red, b in zip(reduced, basis)])
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


def v_to_h(v: VRep, progress=None, symmetries=()) -> HRep:
    """Facets and affine hull of the convex hull of the given points.

    ``symmetries`` are proposed coordinate permutations (see
    ``point_symmetries``), read only for at least ``ORBIT_MIN_POINTS``
    distinct points. Those that map the points onto themselves are kept;
    if the group they generate is transitive on the points, the facets come
    orbit by orbit (``_facet_orbits``), else from one double description
    over all points (``extreme_rays``). Either way the HRep is the same.
    ``progress`` is handed to every ``extreme_rays`` call.
    """
    points = []
    seen = set()
    for p in v.points:
        if p not in seen:
            seen.add(p)
            points.append(p)
    dim = v.dim
    pivots, eq_rows = affine_hull(points)
    chart = [tuple(p[j] for j in pivots) for p in points]
    cone_rows = [_integerize((1,) + q) for q in chart]
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
