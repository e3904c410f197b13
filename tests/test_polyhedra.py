import random
from fractions import Fraction
from hashlib import sha256
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from obscon import (
    HRep,
    UnboundedPolytopeError,
    VRep,
    derive_all,
    parse_graph,
    v_to_h,
)
from obscon import polyhedra
from obscon.fixtures import FIXTURE_GRAPHS
from obscon.response import build_functional_system
from obscon.transform import merge_district_latents

from oracles import (
    _rank,
    extreme_rays_full_scan,
    facet_witness_beyond,
    h_to_v,
    hrep_from_rows,
    in_hull,
    simplex_product_extreme_points,
)

from conftest import BELL_CHSH, BELL_I3322


def rational_points(rng, n, dim, denom=12, spread=6):
    return [
        tuple(Fraction(rng.randint(-spread * denom, spread * denom), denom) for _ in range(dim))
        for _ in range(n)
    ]


def random_vrep(rng, max_dim=6, max_points=30):
    dim = rng.randint(1, max_dim)
    cap = {1: max_points, 2: max_points, 3: max_points, 4: 18, 5: 12, 6: 10}[dim]
    n = rng.randint(1, min(cap, max_points))
    return VRep.make(rational_points(rng, n, dim))


def extreme_points_oracle(points):
    """A point is extreme iff it is outside the hull of the others."""
    out = []
    unique = sorted(set(points))
    for i, p in enumerate(unique):
        others = [q for j, q in enumerate(unique) if j != i]
        if not others or not in_hull(p, others):
            out.append(p)
    return sorted(out)


def satisfies(h, point, strict_rows=()):
    for coeffs, rhs in h.eq:
        if sum(c * x for c, x in zip(coeffs, point)) != rhs:
            return False
    for coeffs, rhs in h.ineq:
        if sum(c * x for c, x in zip(coeffs, point)) > rhs:
            return False
    return True


def test_unit_segment():
    h = v_to_h(VRep.make([(0,), (1,)]))
    assert h.eq == ()
    assert set(h.ineq) == {((-1,), 0), ((1,), 1)}


def test_single_point():
    h = v_to_h(VRep.make([(Fraction(1, 2), Fraction(-3))]))
    assert h.ineq == ()
    assert set(h.eq) == {((-2,), -1), ((0, -1), 3)} or len(h.eq) == 2
    v = h_to_v(h)
    assert v.points == ((Fraction(1, 2), Fraction(-3)),)


def test_cube_h_to_v():
    ineq = []
    for i in range(3):
        row = [0, 0, 0]
        row[i] = 1
        ineq.append((tuple(row), 1))
        row = [0, 0, 0]
        row[i] = -1
        ineq.append((tuple(row), 0))
    h = hrep_from_rows(ineq, [])
    v = h_to_v(h)
    assert len(v.points) == 8
    assert all(all(x in (0, 1) for x in p) for p in v.points)


def test_simplex_h_to_v():
    ineq = [(tuple(-1 if j == i else 0 for j in range(4)), 0) for i in range(4)]
    eq = [((1, 1, 1, 1), 1)]
    v = h_to_v(hrep_from_rows(ineq, eq))
    assert sorted(v.points) == sorted(
        tuple(Fraction(1 if j == i else 0) for j in range(4)) for i in range(4)
    )


def test_h_to_v_unbounded_detected():
    h = hrep_from_rows([((-1, 0), 0), ((0, -1), 0)], [])
    with pytest.raises(UnboundedPolytopeError):
        h_to_v(h)


def test_h_to_v_line_detected():
    h = hrep_from_rows([((1, 0), 1), ((-1, 0), 0)], [])
    with pytest.raises(UnboundedPolytopeError):
        h_to_v(h)


def test_h_to_v_empty_detected():
    h = hrep_from_rows([((1,), 0), ((-1,), -1)], [])
    with pytest.raises(ValueError):
        h_to_v(h)


def test_simplex_product_4_4():
    points = simplex_product_extreme_points([4, 4])
    assert len(points) == 16
    expected_first_rows = [
        (1, 0, 0, 0, 1, 0, 0, 0),
        (0, 1, 0, 0, 1, 0, 0, 0),
        (0, 0, 1, 0, 1, 0, 0, 0),
        (0, 0, 0, 1, 1, 0, 0, 0),
        (1, 0, 0, 0, 0, 1, 0, 0),
    ]
    for got, want in zip(points, expected_first_rows):
        assert got == tuple(Fraction(v) for v in want)


def test_simplex_product_single_block():
    assert simplex_product_extreme_points([2]) == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]


def test_simplex_product_counts():
    points = simplex_product_extreme_points([2, 3])
    assert len(points) == 6
    for p in points:
        assert sum(1 for x in p if x == 1) == 2
        assert sum(p) == 2


@pytest.mark.parametrize("sizes", [[size] * blocks for size in (2, 3, 4) for blocks in (1, 2, 3, 4)]
                         + [[1, 2], [2, 3], [3, 1, 2], [2, 4, 3], [4, 2, 2, 3]])
def test_simplex_product_hrep_is_v_to_h_of_the_product(sizes):
    points = simplex_product_extreme_points(sizes)
    random.Random(len(points)).shuffle(points)
    assert polyhedra.simplex_product_hrep(sizes) == v_to_h(VRep(tuple(points)))


def test_v_to_h_every_input_point_feasible():
    rng = random.Random(101)
    for _ in range(25):
        v = random_vrep(rng, max_dim=4, max_points=12)
        h = v_to_h(v)
        for p in v.points:
            assert satisfies(h, p)


def test_v_to_h_rejects_outside_points():
    rng = random.Random(55)
    for _ in range(10):
        v = random_vrep(rng, max_dim=3, max_points=8)
        h = v_to_h(v)
        for _ in range(10):
            candidate = tuple(
                Fraction(rng.randint(-100, 100), 7) for _ in range(v.dim)
            )
            inside_h = satisfies(h, candidate)
            inside_hull = in_hull(candidate, list(v.points))
            assert inside_h == inside_hull


def test_round_trip_small():
    rng = random.Random(2)
    for _ in range(40):
        v = random_vrep(rng, max_dim=4, max_points=14)
        h = v_to_h(v)
        back = sorted(h_to_v(h).points)
        assert back == extreme_points_oracle(v.points)


def test_embedded_lower_dimensional_hulls():
    # points base + A z with A of width k < dim, and more points than dim:
    # the affine hull is deficient although the points could span
    rng = random.Random(4242)
    for _ in range(30):
        dim = rng.randint(2, 5)
        k = rng.randint(1, dim - 1)
        (base,) = rational_points(rng, 1, dim)
        a = rational_points(rng, dim, k, denom=5, spread=2)
        zs = rational_points(rng, rng.randint(dim + 1, dim + 6), k, denom=4, spread=2)
        points = [
            tuple(b + sum(x * y for x, y in zip(row, z)) for b, row in zip(base, a))
            for z in zs
        ]
        h = v_to_h(VRep(tuple(points)))
        rank = _rank([[x - b for x, b in zip(p, base)] for p in points])
        assert len(h.eq) == dim - rank
        for p in points:
            for coeffs, rhs in h.eq:
                assert sum(c * x for c, x in zip(coeffs, p)) == rhs
        assert sorted(h_to_v(h).points) == extreme_points_oracle(points)


def test_irredundancy_small():
    rng = random.Random(momentum := 13)
    for _ in range(15):
        v = random_vrep(rng, max_dim=3, max_points=10)
        h = v_to_h(v)
        vertices = h_to_v(h).points
        for index in range(len(h.ineq)):
            witness = facet_witness_beyond(h, index, vertices)
            assert witness is not None
            coeffs, rhs = h.ineq[index]
            assert sum(c * x for c, x in zip(coeffs, witness)) > rhs
            others = HRep(
                ineq=tuple(r for j, r in enumerate(h.ineq) if j != index),
                eq=h.eq,
            )
            assert satisfies(others, witness)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_canonicalization_permutation_insensitive(seed):
    rng = random.Random(seed)
    v = random_vrep(rng, max_dim=3, max_points=8)
    h1 = v_to_h(v)
    shuffled = list(v.points)
    rng.shuffle(shuffled)
    h2 = v_to_h(VRep(tuple(shuffled)))
    assert h1 == h2


def test_duplicate_points_ignored():
    v1 = VRep.make([(0, 0), (1, 0), (0, 1)])
    v2 = VRep.make([(0, 0), (1, 0), (0, 1), (1, 0), (0, 0)])
    assert v_to_h(v1) == v_to_h(v2)


def test_interior_points_ignored():
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    with_interior = square + [(1, 1), (Fraction(1, 2), Fraction(1, 2))]
    assert v_to_h(VRep.make(square)) == v_to_h(VRep.make(with_interior))


def test_iv_round_trip(graphs):
    # the column sets of IV's and CHSH's one derived district; h_to_v runs
    # the DD on the dual cone
    for dag in (graphs["iv"], parse_graph(BELL_CHSH)):
        (district,) = [d for d in dag.districts() if len(d.members) > 1]
        points = tuple(build_functional_system(dag, district).columns_as_points())
        v = h_to_v(v_to_h(VRep(points)))
        assert sorted(v.points) == sorted(set(points))


def test_cdd_format_smoke():
    h = v_to_h(VRep.make([(0,), (1,)]))
    text = h.to_cdd()
    assert "H-representation" in text and "begin" in text and "end" in text


def degenerate_cone_rows(rng, dims=(1, 5), grid_points=(1, 20)):
    """Homogenized integer points with many on each facet, some repeated.

    Points come from the grid {0, 2, 4}^d, d drawn from ``dims``, and their
    number from ``grid_points``, so many share each facet; the origin and
    4 e_i make the hull full-dimensional, so the cone is pointed. Midpoints
    of point pairs add points on faces and in the interior, and a few
    points appear twice.
    """
    dim = rng.randint(*dims)
    points = [(0,) * dim] + [tuple(4 * (j == i) for j in range(dim)) for i in range(dim)]
    grid = list(product((0, 2, 4), repeat=dim))
    points += rng.sample(grid, min(len(grid), rng.randint(*grid_points)))
    for _ in range(3):
        a, b = rng.sample(points, 2)
        points.append(tuple((x + y) // 2 for x, y in zip(a, b)))
    points += rng.choices(points, k=2)
    rng.shuffle(points)
    return [(1,) + p for p in points]


def zero_one_cone_rows(rng):
    """Homogenized random 0/1 points in dimension 5 to 7, at most 24 of them.

    Many rays share most of their tight rows here, so most plus/minus pairs
    are shown non-adjacent by a third ray; points are redrawn until they
    span, so the cone is pointed.
    """
    dim = rng.randint(5, 7)
    while True:
        rows = [(1,) + tuple(rng.getrandbits(1) for _ in range(dim))
                for _ in range(rng.randint(dim + 1, 24))]
        if _rank(rows) == dim + 1:
            return rows


def test_extreme_rays_matches_full_scan_reference():
    rng = random.Random(7321)
    cones = [degenerate_cone_rows(rng) for _ in range(150)]
    cones += [zero_one_cone_rows(rng) for _ in range(60)]
    # over 64 rows: every row mask is wider than a machine word
    cones += [degenerate_cone_rows(rng, dims=(4, 5), grid_points=(64, 130))
              for _ in range(8)]
    for rep, rows in enumerate(cones):
        got_calls, want_calls = [], []
        got = polyhedra.extreme_rays(rows, progress=lambda *a: got_calls.append(a))
        want = extreme_rays_full_scan(rows, progress=lambda *a: want_calls.append(a))
        assert got == want, (rep, rows)
        assert got_calls == want_calls, (rep, rows)
        # every plus ray on the bit-sliced counter, then on the direct pass
        for minus_per_row in (0, 10 ** 9):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(polyhedra, "DIRECT_MINUS_PER_ROW", minus_per_row)
                assert polyhedra.extreme_rays(rows) == want, (rep, minus_per_row)


def test_extreme_rays_ignore_row_order():
    # lexicographic insertion: the ray list, order and duplicates included,
    # is a function of the multiset of rows, and so is v_to_h's HRep
    rng = random.Random(2024)
    for rep in range(100):
        rows = degenerate_cone_rows(rng)
        want = polyhedra.extreme_rays(rows)
        for order in (rows[::-1], rng.sample(rows, len(rows))):
            assert polyhedra.extreme_rays(order) == want, (rep, rows)
        points = [row[1:] for row in rows]
        want_h = v_to_h(VRep.make(points))
        assert v_to_h(VRep.make(rng.sample(points, len(points)))) == want_h


def test_tight_sets_match_bitwise_reference():
    # the transpose of all rays' masks and of the minus rays' alone (bit j
    # for the j-th of them) against reading every bit on its own, with no
    # rays, a single ray, zero masks and masks over several words
    rng = random.Random(4141)
    shapes = [(0, 1), (0, 130), (1, 1), (1, 130), (300, 1), (300, 130)]
    shapes += [(rng.randint(0, 300), rng.randint(1, 130)) for _ in range(60)]
    for n_rays, n_rows in shapes:
        masks = [rng.choice([0, rng.getrandbits(n_rows)]) for _ in range(n_rays)]
        minus = sorted(rng.sample(range(n_rays), rng.randint(0, n_rays)))
        for chosen in (masks, [masks[i] for i in minus]):
            want = [sum((m >> i & 1) << j for j, m in enumerate(chosen))
                    for i in range(n_rows)]
            assert polyhedra._tight_sets(chosen, n_rows) == want, (n_rays, n_rows)


def test_selector_matches_bits():
    rng = random.Random(4242)
    for n_rows in [1, 2, 63, 64, 65, 130] + [rng.randint(1, 130) for _ in range(50)]:
        for mask in (0, (1 << n_rows) - 1, 1 << (n_rows - 1), rng.getrandbits(n_rows)):
            want = [mask >> i & 1 for i in range(n_rows)]
            assert list(polyhedra._selector(mask, f"0{n_rows}b")) == want, (n_rows, mask)


def test_within_slack_matches_counting(monkeypatch):
    # the candidate filter is exact: it keeps a ray iff the ray is set in
    # at most `slack` of the rows, the count overflowing the planes included;
    # so are the direct pass and the per-ray choice between the two, which
    # read the same counts off the rays' own masks: ray j is tight at row i
    # unless missed[i] has bit j, and at random rows past those, which the
    # plus ray's mask leaves out
    rng = random.Random(88)
    for _ in range(300):
        n_rays = rng.randint(1, 40)
        missed = [rng.getrandbits(n_rays) for _ in range(rng.randint(0, 20))]
        candidates = rng.getrandbits(n_rays)
        slack = rng.randint(0, 12)
        want = sum(
            1 << j for j in range(n_rays)
            if candidates >> j & 1 and sum(m >> j & 1 for m in missed) <= slack
        )
        assert polyhedra._within_slack(missed, candidates, slack) == want

        n_rows = len(missed) + rng.randint(0, 10)
        masks = [sum((~m >> j & 1) << i for i, m in enumerate(missed))
                 | rng.getrandbits(n_rows) >> len(missed) << len(missed)
                 for j in range(n_rays)]
        minus = [j for j in range(n_rays) if candidates >> j & 1]
        for minus_per_row in (0, polyhedra.DIRECT_MINUS_PER_ROW, 10 ** 9):
            monkeypatch.setattr(polyhedra, "DIRECT_MINUS_PER_ROW", minus_per_row)
            partners = polyhedra._candidate_filter(
                minus, [masks[j] for j in minus], n_rows, len(missed) - slack)
            assert list(partners((1 << len(missed)) - 1)) == [
                j for j in minus if want >> j & 1], minus_per_row


def test_columns_product_matches_row_sums():
    # the packed product is exact: against the plain row sums, with
    # negative entries, entries near the 64-bit bound, and past it
    rng = random.Random(64)
    for rep in range(300):
        n_rows, n_cols = rng.randint(1, 30), rng.randint(1, 12)
        big = rng.choice([3, 1 << 20, 1 << 40, 1 << 70])
        columns = [[rng.randint(-big, big) for _ in range(n_rows)] for _ in range(n_cols)]
        product = polyhedra._columns_product(columns)
        for _ in range(5):
            y = [rng.randint(-big, big) for _ in range(n_cols)]
            want = [sum(c[i] * v for c, v in zip(columns, y)) for i in range(n_rows)]
            assert product(y) == want, (rep, columns, y)
    # every entry just inside the bound
    top = (1 << 62) - 1
    assert polyhedra._columns_product([[top, -top], [1, -1]])([1, 1]) == [1 << 62, -(1 << 62)]


def cross_polytope(dim):
    return [tuple(sign * (j == i) for j in range(dim)) for i in range(dim) for sign in (1, -1)]


@pytest.mark.parametrize("points, facets", [
    (list(product((0, 1), repeat=4)), 8),
    (cross_polytope(3), 8),
    (cross_polytope(4), 16),
    (cross_polytope(5), 32),
    ([(t, t ** 2, t ** 3, t ** 4) for t in range(1, 8)], 14),
], ids=["4-cube", "3-cross", "4-cross", "5-cross", "cyclic-7-4"])
def test_known_facet_counts(points, facets):
    h = v_to_h(VRep.make(points))
    assert h.eq == ()
    assert len(h.ineq) == facets


def district_columns(text):
    """The columns of the system of a graph's one derived district."""
    dag = parse_graph(text)
    (district,) = [d for d in dag.districts() if len(d.members) > 1]
    return tuple(build_functional_system(dag, district).columns_as_points())


def test_bell_chsh_facets():
    (record,) = [r for r in derive_all(parse_graph(BELL_CHSH)).districts if not r.skipped]
    assert len(record.hrep.ineq) == 24


def dd_of_district(monkeypatch, points):
    """Plain v_to_h (one DD over all the points) of a district's columns,
    with every progress call and the ray list of its one DD."""
    calls, finals = [], []
    original = polyhedra.extreme_rays

    def recording(rows, progress=None):
        finals.append(original(rows, progress))
        return finals[-1]

    monkeypatch.setattr(polyhedra, "extreme_rays", recording)
    hrep = v_to_h(VRep(points), progress=lambda *args: calls.append(args))
    (rays,) = finals
    return hrep, calls, rays


def test_bell_i3322_facets_and_dd_counts(monkeypatch):
    # 684 facets: Collins & Gisin, J. Phys. A 37, 1775 (2004)
    hrep, steps, rays = dd_of_district(monkeypatch, district_columns(BELL_I3322))
    assert (len(hrep.ineq), len(hrep.eq)) == (684, 21)
    assert len(steps) == 48
    assert max([n_rays for _, _, n_rays, _ in steps] + [len(rays)]) == 1223
    # SHA-256 of the exact ray list, order and duplicates included
    assert sha256(repr(rays).encode()).hexdigest() == (
        "8d81076cc59b2beaeb465b6458835a58d7ed9926a0266d4bc12cf36d69345cfb")


def test_mixed_cdegree_dd_counts(monkeypatch):
    # the plain DD of merged mixed_cdegree's (V2, V4, V5) district, the
    # largest conversion of the mixed_check benchmark workload
    dag, _ = merge_district_latents(parse_graph(FIXTURE_GRAPHS["mixed_cdegree"]))
    (district,) = [d for d in dag.districts() if d.members == ("V2", "V4", "V5")]
    columns = tuple(build_functional_system(dag, district).columns_as_points())
    assert (len(columns), len(set(columns))) == (64, 48)
    # record which candidate filter each plus ray takes
    sides = set()
    original = polyhedra._candidate_filter

    def recording(minus, minus_masks, n_rows, least):
        partners = original(minus, minus_masks, n_rows, least)

        def record(mask):
            sides.add(len(minus) <= polyhedra.DIRECT_MINUS_PER_ROW * mask.bit_count())
            return partners(mask)
        return record

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polyhedra, "_candidate_filter", recording)
        hrep, calls, rays = dd_of_district(patch, columns)
    assert sides == {True, False}  # both filters run on this cone
    assert (len(hrep.ineq), len(hrep.eq)) == (1_128, 12)
    assert len(calls) == 27
    assert max(n_rays for _, _, n_rays, _ in calls) == 1_072
    # SHA-256 of the exact ray list, order and duplicates included
    assert sha256(repr(rays).encode()).hexdigest() == (
        "4c80a9734dbf1fa03fab624ac639c827621b721ae21a5a89b04dc037df01aaa9")
    # every plus ray on one filter: the same rays
    for minus_per_row in (0, 10 ** 9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polyhedra, "DIRECT_MINUS_PER_ROW", minus_per_row)
            assert dd_of_district(patch, columns)[2] == rays, minus_per_row


def test_bell_i3322_derived_hrep_is_plain_dd():
    # the derivation goes orbit-wise; its HRep is plain DD's
    (record,) = [r for r in derive_all(parse_graph(BELL_I3322)).districts if not r.skipped]
    assert record.hrep == v_to_h(VRep(tuple(record.system.columns_as_points())))


@pytest.mark.parametrize("text", [BELL_CHSH, BELL_I3322], ids=["chsh", "i3322"])
def test_bell_cone_rays_ignore_row_order(monkeypatch, text):
    cones = []
    original = polyhedra.extreme_rays

    def recording(rows, progress=None):
        cones.append(list(rows))
        return original(rows, progress)

    monkeypatch.setattr(polyhedra, "extreme_rays", recording)
    v_to_h(VRep(district_columns(text)))
    (rows,) = cones
    want = original(rows)
    rng = random.Random(31)
    for order in (rows[::-1], rng.sample(rows, len(rows)), rng.sample(rows, len(rows))):
        assert original(order) == want


def test_v_to_h_passes_progress_to_dd(monkeypatch):
    hrep, calls, _ = dd_of_district(monkeypatch, district_columns(BELL_I3322))
    assert (len(hrep.ineq), len(hrep.eq)) == (684, 21)
    # one call per inserted row of the 64-row, dimension-16 cone
    assert [(done, total) for done, total, _, _ in calls] == [(d, 64) for d in range(16, 64)]
    assert max(n_rays for _, _, n_rays, _ in calls) == 1223


@pytest.mark.long
def test_bell_tripartite_dd_counts(monkeypatch):
    # the DD part of criterion 8, pinned apart from its flag counts
    hrep, calls, rays = dd_of_district(
        monkeypatch, district_columns(FIXTURE_GRAPHS["bell_tripartite"]))
    assert (len(hrep.ineq), len(hrep.eq)) == (53_856, 38)
    assert max(n_rays for _, _, n_rays, _ in calls) == 51_576
    # SHA-256 of the exact ray list, order and duplicates included
    assert sha256(repr(rays).encode()).hexdigest() == (
        "b66860b56fa7d0c8e6ecabc262ee193930db84f07f427eedddeb208d554ec1dc")
