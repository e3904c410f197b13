"""Exact polyhedral computation: V/H representations and their conversion.

Everything is exact: points and rows are rationals (``fractions.Fraction``),
the double description inner loop works on integers after denominators are
cleared, and no floating point appears anywhere.

The vertex-to-facet conversion is double description (``extreme_rays``). Its
combinatorial work runs on Python-int bitsets: every ray keeps the mask of
constraint rows it is tight at, and every insertion step transposes those
masks into one bitset per row marking the rays tight at it (the tight sets
of Terzer & Stelling, "Large-scale computation of elementary flux modes
with bit pattern trees", Bioinformatics 24, 2008). The adjacency test of a
plus/minus pair is then an AND of row bitsets, and a bit-sliced counter over
the same bitsets picks each plus ray's candidate partners without looking
at pairs one by one.

Canonical form of an H-representation: every row is scaled to integer entries
with gcd 1 (positive scaling only, so inequality orientation is intrinsic),
equality rows additionally have their first nonzero coefficient negative,
rows are sorted lexicographically and duplicates dropped. Inequality rows are
emitted in the coordinates of the affine hull's pivot columns, with zero
coefficients on the dependent columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence


class UnboundedPolytopeError(ValueError):
    """A ray or line was found where a bounded polytope was required."""


Row = tuple[int, ...]


@dataclass(frozen=True)
class VRep:
    """Convex-hull generators (points only; rays are out of scope)."""

    points: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("VRep needs at least one point")
        dim = len(self.points[0])
        if any(len(p) != dim for p in self.points):
            raise ValueError("points have inconsistent dimensions")

    @property
    def dim(self) -> int:
        return len(self.points[0])

    @classmethod
    def make(cls, points: Iterable[Sequence]) -> "VRep":
        return cls(tuple(tuple(Fraction(x) for x in p) for p in points))


@dataclass(frozen=True)
class HRep:
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

    def to_json(self) -> dict:
        return {
            "ineq": [{"coeffs": list(c), "rhs": r} for c, r in self.ineq],
            "eq": [{"coeffs": list(c), "rhs": r} for c, r in self.eq],
        }

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


def _integerize(vec) -> Row:
    """Scale a rational vector by a positive rational to integers with gcd 1."""
    fracs = [Fraction(x) for x in vec]
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def _canon_ineq(coeffs, rhs) -> tuple[Row, int]:
    row = _integerize(list(coeffs) + [rhs])
    return row[:-1], row[-1]


def _canon_eq(coeffs, rhs) -> tuple[Row, int]:
    row = _integerize(list(coeffs) + [rhs])
    lead = next((v for v in row[:-1] if v != 0), 0)
    if lead > 0:
        row = tuple(-v for v in row)
    return row[:-1], row[-1]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with leftmost pivots; returns (rows, pivot cols)."""
    mat = [list(map(Fraction, row)) for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def affine_hull(points: Sequence[tuple[Fraction, ...]]):
    """Pivot/free coordinate split of the points' affine hull.

    Returns (pivot_cols, free_cols, eq_rows) where eq_rows are the
    canonicalized equality constraints satisfied by every point.
    """
    base = points[0]
    diffs = [[p[j] - base[j] for j in range(len(base))] for p in points[1:]]
    reduced, pivots = rref(diffs)
    ncols = len(base)
    free = [c for c in range(ncols) if c not in pivots]
    eqs = []
    for f in free:
        coeffs = [Fraction(0)] * ncols
        coeffs[f] = Fraction(1)
        for i, p in enumerate(pivots):
            coeffs[p] = -reduced[i][f] if i < len(reduced) else Fraction(0)
        rhs = sum(c * x for c, x in zip(coeffs, base))
        eqs.append(_canon_eq(coeffs, rhs))
    return pivots, free, sorted(set(eqs))


def _solve_affine(eq_rows: Sequence[tuple[Row, int]], dim: int):
    """Particular solution and null-space basis of a canonical equality system.

    Returns (x0, basis_columns) or None when the system is inconsistent.
    """
    if not eq_rows:
        identity = [
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(dim))
            for i in range(dim)
        ]
        return tuple([Fraction(0)] * dim), identity
    augmented = [[Fraction(v) for v in coeffs] + [Fraction(rhs)] for coeffs, rhs in eq_rows]
    reduced, pivots = rref(augmented)
    if dim in pivots:  # pivot in the rhs column: inconsistent
        return None
    x0 = [Fraction(0)] * dim
    for i, p in enumerate(pivots):
        x0[p] = reduced[i][dim]
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * dim
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -reduced[i][f]
        basis.append(tuple(vec))
    return tuple(x0), basis


# -- double description ---------------------------------------------------


def _independent_rows(rows: Sequence[Row], want: int) -> list[int] | None:
    """Indices of the first ``want`` linearly independent rows, or None."""
    chosen: list[int] = []
    reduced: list[list[Fraction]] = []
    for idx, row in enumerate(rows):
        vec = [Fraction(v) for v in row]
        for red in reduced:
            lead = next((j for j, v in enumerate(red) if v != 0), None)
            if lead is not None and vec[lead] != 0:
                factor = vec[lead] / red[lead]
                vec = [a - factor * b for a, b in zip(vec, red)]
        if any(v != 0 for v in vec):
            reduced.append(vec)
            chosen.append(idx)
            if len(chosen) == want:
                return chosen
    return None


def _invert(mat: Sequence[Row]) -> list[list[Fraction]]:
    n = len(mat)
    aug = [
        [Fraction(v) for v in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(mat)
    ]
    reduced, pivots = rref(aug)
    assert pivots == list(range(n)), "matrix is singular"
    return [row[n:] for row in reduced]


def extreme_rays(rows: Sequence[Row], progress=None) -> list[Row]:
    """Extreme rays of the pointed cone {y : row . y <= 0 for every row}.

    Double description with dynamic insertion order: each step inserts the
    row that cuts off the fewest current rays, the first such row on ties.
    Requires the rows to have full column rank (a pointed cone); raises
    ``UnboundedPolytopeError`` otherwise.

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

    ``progress(done, total, n_rays, n_cut)`` is invoked once per insertion
    for long-running conversions.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        raise ValueError("no constraint rows")
    dim = len(rows[0])
    basis_idx = _independent_rows(rows, dim)
    if basis_idx is None:
        raise UnboundedPolytopeError("constraint rows do not span; cone is not pointed")
    basis_inv = _invert([rows[i] for i in basis_idx])

    # rays of the initial simplicial cone: the negated inverse's columns;
    # ray j is tight at every basis row except the j-th
    rays = []  # each entry: [vector, tight-mask, dots-by-remaining]
    remaining = [i for i in range(len(rows)) if i not in basis_idx]
    full_basis_mask = 0
    for i in basis_idx:
        full_basis_mask |= 1 << i
    for j in range(dim):
        vec = _integerize([-basis_inv[i][j] for i in range(dim)])
        mask = full_basis_mask & ~(1 << basis_idx[j])
        dots = [_dot(rows[k], vec) for k in remaining]
        rays.append([vec, mask, dots])

    total = len(rows)
    while remaining:
        # most-constrained-first: fewest strictly positive products
        best_pos, best_count = 0, None
        for pos in range(len(remaining)):
            count = sum(1 for ray in rays if ray[2][pos] > 0)
            if best_count is None or count < best_count:
                best_pos, best_count = pos, count
                if count == 0:
                    break
        if progress is not None:
            progress(total - len(remaining), total, len(rays), best_count)
        k = remaining.pop(best_pos)
        bit = 1 << k

        products = [ray[2].pop(best_pos) for ray in rays]
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
        if not plus:
            rays = zero + minus
            continue

        tight = _tight_sets(rays, total)
        all_rays = (1 << len(rays)) - 1
        missed = [minus_set & ~t for t in tight]
        new_rays = []
        for p_index, p_ray, sp in plus:
            mask_p = p_ray[1]
            p_rows = _bit_indices(mask_p)
            slack = len(p_rows) - (dim - 2)
            if slack < 0:
                continue
            p_tight = [(1 << i, tight[i]) for i in p_rows]
            candidates = _within_slack([missed[i] for i in p_rows], minus_set, slack)
            while candidates:
                n_bit = candidates & -candidates
                candidates ^= n_bit
                n_index = n_bit.bit_length() - 1
                n_ray, sn = rays[n_index], products[n_index]
                mask_n = n_ray[1]
                pair = (1 << p_index) | n_bit
                survivors = all_rays
                for row_bit, t in p_tight:
                    if mask_n & row_bit:
                        survivors &= t
                        if survivors == pair:
                            break
                if survivors != pair:
                    continue
                common = mask_p & mask_n
                vec = tuple(
                    sp * nv - sn * pv for pv, nv in zip(p_ray[0], n_ray[0])
                )
                g = 0
                for v in vec:
                    g = gcd(g, v)
                if g > 1:
                    vec = tuple(v // g for v in vec)
                else:
                    g = 1
                dots = [
                    (sp * nd - sn * pd) // g
                    for pd, nd in zip(p_ray[2], n_ray[2])
                ]
                new_rays.append([vec, common | bit, dots])
        rays = zero + minus + new_rays

    return [tuple(ray[0]) for ray in rays]


def _dot(a: Row, b: Row) -> int:
    return sum(x * y for x, y in zip(a, b))


def _bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
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
    equal = candidates & ~over
    for j in reversed(range(len(planes))):
        if slack >> j & 1:
            equal &= planes[j]
        else:
            over |= equal & planes[j]
            equal &= ~planes[j]
    return candidates & ~over


# -- conversions -----------------------------------------------------------


def v_to_h(v: VRep) -> HRep:
    """Facets and affine hull of the convex hull of the given points."""
    points = []
    seen = set()
    for p in v.points:
        if p not in seen:
            seen.add(p)
            points.append(p)
    dim = v.dim
    if len(points) == 1:
        eqs = [
            _canon_eq([Fraction(1 if j == i else 0) for j in range(dim)], points[0][i])
            for i in range(dim)
        ]
        return HRep(ineq=(), eq=tuple(sorted(eqs)))

    pivots, _, eq_rows = affine_hull(points)
    chart = [tuple(p[j] for j in pivots) for p in points]
    cone_rows = [_integerize((1,) + q) for q in chart]
    ineqs = []
    for ray in extreme_rays(cone_rows):
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
    solved = _solve_affine(h.eq, dim)
    if solved is None:
        raise ValueError("equality system is inconsistent; empty polytope")
    x0, basis = solved
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
        return VRep((x0,))

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


def simplex_product_extreme_points(block_sizes: Sequence[int]) -> list[tuple[Fraction, ...]]:
    """Vertices of a product of probability simplices, first block fastest."""
    if any(size < 1 for size in block_sizes):
        raise ValueError("block sizes must be positive")
    total = 1
    for size in block_sizes:
        total *= size
    dim = sum(block_sizes)
    points = []
    for index in range(total):
        choices = []
        rem = index
        for size in block_sizes:
            choices.append(rem % size)
            rem //= size
        vec = [Fraction(0)] * dim
        offset = 0
        for choice, size in zip(choices, block_sizes):
            vec[offset + choice] = Fraction(1)
            offset += size
        points.append(tuple(vec))
    return points
