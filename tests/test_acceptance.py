"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v``; criterion 8 (the tripartite
Bell derivation with its flag counts, 10-15 s on a 2-core machine) is gated
behind ``--run-long``.

Published constraint lists are presented after eliminating redundant
coordinates against the equality rows ("simple algebra"), so expected and
derived inequality rows are compared modulo the district's equality rows,
canonicalized by positive integer scaling.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from obscon import (
    DeriveOptions,
    VRep,
    build_functional_system,
    d_separated,
    derive_all,
    evaluate,
    parse_graph,
    v_to_h,
)
from obscon.fixtures import FIXTURE_GRAPHS

from oracles import (
    coeff_vector,
    facet_witness_beyond,
    feasible_nonneg,
    h_to_v,
    in_hull,
    path_d_separated,
    positive_simplex_point,
    random_dag,
    random_simplex_point,
    structural_model_table,
    system_matrix,
    table_from_dict,
)


def announce(number: int, elapsed: float, budget: float, detail: str = ""):
    note = f" [{detail}]" if detail else ""
    print(f"criterion {number}: PASS in {elapsed:.2f}s (budget {budget:.0f}s){note}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


# -- row algebra for matching published constraint lists ---------------------


def _rref_local(rows):
    mat = [list(row) for row in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def row_reducer(eq_rows):
    """Canonical residue of an extended row modulo the span of eq rows."""
    extended = [
        [Fraction(v) for v in coeffs] + [Fraction(rhs)] for coeffs, rhs in eq_rows
    ]
    reduced, pivots = _rref_local(extended) if extended else ([], [])

    def residue(coeffs, rhs, signed=True):
        vec = [Fraction(v) for v in coeffs] + [Fraction(rhs)]
        for row, p in zip(reduced, pivots):
            if vec[p] != 0:
                f = vec[p]
                vec = [a - f * b for a, b in zip(vec, row)]
        denom = 1
        for v in vec:
            denom = denom * v.denominator // gcd(denom, v.denominator)
        ints = [int(v * denom) for v in vec]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        if not signed:  # equalities carry no orientation
            lead = next((v for v in ints if v != 0), 0)
            if lead < 0:
                ints = [-v for v in ints]
        return tuple(ints)

    return residue


def constraint_rows(record, relation, flagged_only=False):
    n = record.system.n_rows
    out = []
    for c in record.constraints:
        if c.relation != relation:
            continue
        if flagged_only and not c.flagged:
            continue
        out.append((tuple(coeff_vector(c, n)), c.rhs))
    return out


def rows_from_terms(n_rows, term_maps):
    out = []
    for terms, rhs in term_maps:
        vec = [0] * n_rows
        for row, coeff in terms.items():
            vec[row] = coeff
        out.append((tuple(vec), rhs))
    return out


def assert_rows_match_mod_eqs(actual, expected, eq_rows, signed=True):
    reduce = row_reducer(eq_rows)
    got = sorted(reduce(c, r, signed) for c, r in actual)
    want = sorted(reduce(c, r, signed) for c, r in expected)
    assert got == want, f"\n got: {got}\nwant: {want}"


def assert_rows_contain_mod_eqs(actual, expected, eq_rows, signed=True):
    reduce = row_reducer(eq_rows)
    got = {reduce(c, r, signed) for c, r in actual}
    for c, r in expected:
        assert reduce(c, r, signed) in got, f"missing row {c} <= {r}"


# the published instrumental-variable H-representation (rows over the eight
# (x, y, z) interventional coordinates, z-major ordering)
IV_PRINTED_INEQ = [
    ((0, 0, 0, 0, -1, 0, 0, 0), 0),
    ((-1, -1, -1, 0, 0, 1, 0, 0), 0),
    ((0, 1, 0, 0, -1, -1, -1, 0), 0),
    ((-1, 0, 0, 0, 0, 0, 0, 0), 0),
    ((0, 0, 1, 0, 1, 0, 0, 0), 1),
    ((1, 0, 0, 0, 0, 0, 1, 0), 1),
    ((0, 0, 0, 0, 0, -1, 0, 0), 0),
    ((0, 0, 0, 0, 1, 1, 1, 0), 1),
    ((0, -1, 0, 0, 0, 0, 0, 0), 0),
    ((1, 1, 1, 0, 0, 0, 0, 0), 1),
    ((0, 0, -1, 0, 0, 0, 0, 0), 0),
    ((0, 0, 0, 0, 0, 0, -1, 0), 0),
]
IV_PRINTED_EQ = [
    ((-1, -1, -1, -1, 0, 0, 0, 0), -1),
    ((0, 0, 0, 0, -1, -1, -1, -1), -1),
]

# the four instrumental inequalities; row index = 4 z + x + 2 y
IV_INSTRUMENTAL = [
    ({3: 1, 5: 1}, 1),  # P(Y=1,X=1|Z=0) + P(Y=0,X=1|Z=1) <= 1
    ({1: 1, 7: 1}, 1),  # P(Y=0,X=1|Z=0) + P(Y=1,X=1|Z=1) <= 1
    ({2: 1, 4: 1}, 1),  # P(Y=1,X=0|Z=0) + P(Y=0,X=0|Z=1) <= 1
    ({0: 1, 6: 1}, 1),  # P(Y=0,X=0|Z=0) + P(Y=1,X=0|Z=1) <= 1
]

IV_B_MATRIX = [
    [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1],
    [1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1],
]


def district_record(result, members):
    return next(r for r in result.districts if r.members == members)


def test_criterion_01_iv_reproduction(graphs):
    t0 = time.monotonic()
    result = derive_all(graphs["iv"])
    record = district_record(result, ("X", "Y"))
    assert set(record.hrep.ineq) == set(IV_PRINTED_INEQ)
    assert set(record.hrep.eq) == set(IV_PRINTED_EQ)
    flagged = constraint_rows(record, "<=", flagged_only=True)
    assert len(flagged) == 4
    expected = rows_from_terms(8, IV_INSTRUMENTAL)
    assert_rows_match_mod_eqs(flagged, expected, record.hrep.eq)
    assert not any(
        c.flagged for c in record.constraints if c.relation == "="
    )
    announce(1, time.monotonic() - t0, 1.0)


def test_criterion_02_iv_b_matrix(graphs):
    t0 = time.monotonic()
    dag = graphs["iv"]
    fs = build_functional_system(dag, dag.districts()[1])
    assert [list(row) for row in system_matrix(fs)] == IV_B_MATRIX
    labels = [(w1["X"], w1["Y"], w2["Z"]) for w1, w2 in fs.row_labels]
    assert labels == [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
        (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1),
    ]
    announce(2, time.monotonic() - t0, 1.0)


def iv_pattern(rows_per_block):
    """The four instrumental rows for a 2x2 district; index = 4 w2 + w1 + 2 w1'."""
    assert rows_per_block == 4
    return IV_INSTRUMENTAL


def test_criterion_03_sequential_iv(graphs):
    t0 = time.monotonic()
    result = derive_all(graphs["iv_sequential"])
    assert [s.render() for s in result.ci_statements] == ["V1,V2 _||_ V4,V5 | V3"]
    expected = rows_from_terms(8, iv_pattern(4))
    total_flagged = 0
    for members in (("V2", "V3"), ("V4", "V5")):
        record = district_record(result, members)
        flagged = constraint_rows(record, "<=", flagged_only=True)
        assert not any(c.flagged for c in record.constraints if c.relation == "=")
        assert len(flagged) == 4
        assert_rows_match_mod_eqs(flagged, expected, record.hrep.eq)
        total_flagged += len(flagged)
    assert total_flagged == 8 == result.flagged_count
    announce(3, time.monotonic() - t0, 5.0)


# the eight published inequalities of the four-variable model whose bypass
# edge leaves V2 (star form); row index = 4 (v1 + 2 v3) + (v2 + 2 v4)
NESTED_PAIR_RIGHT_EXPECTED = [
    ({2: 1, 4: 1}, 1),
    ({0: 1, 6: 1}, 1),
    ({1: 1, 7: 1}, 1),
    ({3: 1, 5: 1}, 1),
    ({4: 1, 6: 1, 8: 1, 12: -1}, 1),
    ({0: 1, 2: 1, 12: 1, 8: -1}, 1),
    ({5: 1, 7: 1, 9: 1, 13: -1}, 1),
    ({1: 1, 3: 1, 13: 1, 9: -1}, 1),
]


def test_criterion_04_nested_equivalent_pair(graphs):
    t0 = time.monotonic()
    for side in ("nested_pair_left", "nested_pair_right"):
        result = derive_all(graphs[side])
        assert [s.render() for s in result.ci_statements] == ["V1 _||_ V3 | V2"]
        if side == "nested_pair_right":
            record = district_record(result, ("V2", "V4"))
            flagged = constraint_rows(record, "<=", flagged_only=True)
            expected = rows_from_terms(16, NESTED_PAIR_RIGHT_EXPECTED)
            assert_rows_contain_mod_eqs(flagged, expected, record.hrep.eq)
    announce(4, time.monotonic() - t0, 10.0)


# published front-door rows in interventional coordinates (row = 4 m + a + 2 y);
# substituting the identifying conditionals turns each into a tautology, which
# is exactly why flagged rows stay "potentially" nontrivial
FRONTDOOR_EXPECTED_INEQ = [
    ({0: -1, 2: -1, 4: 1}, 0),
    ({0: 1, 2: 1, 5: 1}, 1),
]
FRONTDOOR_EXPECTED_EQ = [
    ({0: 1, 2: 1, 4: -1, 6: -1}, 0),
    ({0: -1, 2: -1, 5: -1, 7: -1}, -1),
]


def test_criterion_05_frontdoor(graphs):
    t0 = time.monotonic()
    result = derive_all(graphs["frontdoor"])
    record = district_record(result, ("A", "Y"))
    flagged_ineq = constraint_rows(record, "<=", flagged_only=True)
    flagged_eq = constraint_rows(record, "=", flagged_only=True)
    assert_rows_contain_mod_eqs(
        flagged_ineq, rows_from_terms(8, FRONTDOOR_EXPECTED_INEQ), record.hrep.eq
    )
    assert_rows_contain_mod_eqs(
        flagged_eq, rows_from_terms(8, FRONTDOOR_EXPECTED_EQ), record.hrep.eq,
        signed=False,
    )
    # manual triviality: e.g. the first expected equality reads
    # P(A=0)P(Y=0|A=0,M=0) + P(A=0)P(Y=1|A=0,M=0) = P(A=0)(sum over Y) = P(A=0)
    # on both sides once the identifying conditionals are substituted
    announce(5, time.monotonic() - t0, 5.0)


def mixed_cdegree_district1_rows():
    # row index = 8 v2 + v1 + 2 v3 + 4 v6 over members (V1, V3, V6), w2 = (V2)
    verma = []
    for v6 in (0, 1):
        for v1 in (0, 1):
            base = v1 + 4 * v6
            verma.append((
                {base: 1, base + 2: 1, base + 8: -1, base + 10: -1}, 0
            ))
    ineq = []
    for v6 in (0, 1):
        for v1 in (0, 1):
            base = v1 + 4 * v6
            ineq.append((
                {base + 8: 1, base: -1, base + 2: -1}, 0
            ))
    return verma, ineq


def test_criterion_06_merged_two_district(graphs):
    t0 = time.monotonic()
    result = derive_all(graphs["mixed_cdegree"], DeriveOptions(merge=True))
    assert result.merged and result.meta["complete"] is False

    record = district_record(result, ("V1", "V3", "V6"))
    flagged_eq = constraint_rows(record, "=", flagged_only=True)
    flagged_ineq = constraint_rows(record, "<=", flagged_only=True)
    assert len(flagged_eq) == 4 and len(flagged_ineq) == 4
    verma, ineq = mixed_cdegree_district1_rows()
    unflagged_eq = [
        (tuple(coeff_vector(c, record.system.n_rows)), c.rhs)
        for c in record.constraints
        if c.relation == "=" and not c.flagged
    ]
    # the four flagged equalities are the invariance of the (V1, V6) margin
    # under the intervention, modulo the unflagged (simplex) equalities
    assert_rows_match_mod_eqs(
        flagged_eq, rows_from_terms(16, verma), unflagged_eq, signed=False
    )
    # the four flagged inequalities bound each intervened joint cell by the
    # matching margin on the other intervention arm, modulo all equalities
    assert_rows_match_mod_eqs(
        flagged_ineq, rows_from_terms(16, ineq), record.hrep.eq
    )

    record2 = district_record(result, ("V2", "V4", "V5"))
    flagged2 = [c for c in record2.constraints if c.flagged]
    assert len(flagged2) == 1118
    announce(6, time.monotonic() - t0, 600.0)


def test_criterion_07_triangle_merged(graphs):
    t0 = time.monotonic()
    dag = graphs["triangle"]
    result = derive_all(dag, DeriveOptions(merge=True))
    assert result.flagged_count == 0
    wolfe = table_from_dict(dag, {
        (0, 0, 0): Fraction(1, 2),
        (1, 1, 1): Fraction(1, 2),
    })
    report = evaluate(result, dag, wolfe)
    # documented incompleteness: the distribution is known to lie outside the
    # three-latent model, yet the merged derivation cannot witness that
    assert not report.falsified
    announce(7, time.monotonic() - t0, 5.0)


def bell_example_row():
    # P(001|010)+P(010|101)-P(110|001)-P(010|100)-P(000|111)-P(001|000)-P(011|000) <= 0
    # members (V1,V2,V3): w1 = v1 + 2 v2 + 4 v3; settings (X,Y,Z): w2 = x + 2 y + 4 z
    def row(v1, v2, v3, x, y, z):
        return 8 * (x + 2 * y + 4 * z) + (v1 + 2 * v2 + 4 * v3)

    return (
        {
            row(0, 0, 1, 0, 1, 0): 1,
            row(0, 1, 0, 1, 0, 1): 1,
            row(1, 1, 0, 0, 0, 1): -1,
            row(0, 1, 0, 1, 0, 0): -1,
            row(0, 0, 0, 1, 1, 1): -1,
            row(0, 0, 1, 0, 0, 0): -1,
            row(0, 1, 1, 0, 0, 0): -1,
        },
        0,
    )


def bell_margin_invariance_rows():
    """Equality rows stating the grouped independencies of the outcome margins.

    For each relation ((Vi, Vj) margin unaffected by the remaining setting),
    one row per margin configuration and per pair of settings differing only
    in that remaining setting; block-sum rows are included since published
    counts are presented modulo them.
    """
    def row_index(v, w2):
        return 8 * w2 + v

    rows = []
    # relations: margin over (V1,V3) vs Y; (V1,V2) vs Z; (V2,V3) vs X
    relations = [((0, 2), 1), ((0, 1), 2), ((1, 2), 0)]
    for margin_bits, setting_bit in relations:
        free_bit = next(b for b in range(3) if b not in margin_bits)
        for margin_vals in range(4):
            for base_setting in range(8):
                if (base_setting >> setting_bit) & 1:
                    continue
                other_setting = base_setting | (1 << setting_bit)
                terms = {}
                for free_val in (0, 1):
                    v = 0
                    v |= ((margin_vals >> 0) & 1) << margin_bits[0]
                    v |= ((margin_vals >> 1) & 1) << margin_bits[1]
                    v |= free_val << free_bit
                    terms[row_index(v, base_setting)] = 1
                    terms[row_index(v, other_setting)] = -1
                vec = [0] * 64
                for idx, coeff in terms.items():
                    vec[idx] = coeff
                rows.append((tuple(vec), 0))
    for block in range(8):
        vec = [0] * 64
        for v in range(8):
            vec[8 * block + v] = 1
        rows.append((tuple(vec), 1))
    return rows


@pytest.mark.long
def test_criterion_08_bell_tripartite(graphs):
    t0 = time.monotonic()
    dag = graphs["bell_tripartite"]
    result = derive_all(dag)
    assert {s.render() for s in result.ci_statements} == {
        "X _||_ Y,Z,V2,V3",
        "X,Z,V1,V3 _||_ Y",
        "X,Y,V1,V2 _||_ Z",
    }
    assert result.constraints_total == 53_894
    assert result.inequality_count == 53_856
    assert result.flagged_count == 32_866
    record = district_record(result, ("V1", "V2", "V3"))
    flagged_eq = constraint_rows(record, "=", flagged_only=True)
    assert len(flagged_eq) == 6
    # the flagged equalities restate the grouped margin independencies
    reduce = row_reducer(bell_margin_invariance_rows())
    zero = tuple([0] * 65)
    for coeffs, rhs in flagged_eq:
        assert reduce(coeffs, rhs, signed=False) == zero
    flagged_ineq = constraint_rows(record, "<=", flagged_only=True)
    assert_rows_contain_mod_eqs(
        flagged_ineq, rows_from_terms(64, [bell_example_row()]), record.hrep.eq
    )
    announce(8, time.monotonic() - t0, 4 * 3600.0, detail="long")


def random_vrep_for_suite(rng):
    dim = rng.randint(1, 6)
    cap = {1: 30, 2: 30, 3: 24, 4: 16, 5: 12, 6: 10}[dim]
    n = rng.randint(1, cap)
    denom = rng.choice([4, 7, 12])
    # rational points in [-4, 4]^dim over denom, scaled by it
    points = [
        tuple(rng.randint(-4 * denom, 4 * denom) for _ in range(dim))
        for _ in range(n)
    ]
    return VRep(tuple(points))


def extreme_points_oracle(points):
    unique = sorted(set(points))
    out = []
    for i, p in enumerate(unique):
        others = [q for j, q in enumerate(unique) if j != i]
        if not others or not in_hull(p, others):
            out.append(p)
    return out


def test_criterion_09_polyhedral_and_dsep_oracles():
    t0 = time.monotonic()
    rng = random.Random(20240817)
    for rep in range(200):
        v = random_vrep_for_suite(rng)
        h = v_to_h(v)
        back = sorted(h_to_v(h).points)
        assert back == extreme_points_oracle(v.points), f"round trip failed at {rep}"
        vertices = back
        for index in range(len(h.ineq)):
            witness = facet_witness_beyond(h, index, vertices)
            assert witness is not None, f"redundant row {index} at rep {rep}"
            coeffs, rhs = h.ineq[index]
            assert sum(c * x for c, x in zip(coeffs, witness)) > rhs
            for j, (ocoeffs, orhs) in enumerate(h.ineq):
                if j != index:
                    assert sum(c * x for c, x in zip(ocoeffs, witness)) <= orhs
            for ocoeffs, orhs in h.eq:
                assert sum(c * x for c, x in zip(ocoeffs, witness)) == orhs

    checked = 0
    for rep in range(500):
        dag = random_dag(rng)
        observed = dag.observed_names()
        for a, b in combinations(observed, 2):
            rest = [w for w in observed if w not in (a, b)]
            if len(rest) <= 3:
                subsets = [
                    set(z) for size in range(len(rest) + 1)
                    for z in combinations(rest, size)
                ]
            else:
                subsets = [
                    {w for w in rest if rng.random() < 0.5} for _ in range(8)
                ]
            for z in subsets:
                got = d_separated(dag, {a}, {b}, z)
                want = path_d_separated(dag, {a}, {b}, z)
                assert got == want, (dag.to_text(), a, b, sorted(z))
                checked += 1
    assert checked >= 5000
    announce(9, time.monotonic() - t0, 300.0, detail=f"{checked} d-sep queries")


SOUNDNESS_FIXTURES = [
    "iv",
    "iv_sequential",
    "nested_pair_left",
    "nested_pair_right",
    "frontdoor",
    "mixed_cdegree",
    "triangle",
]


def test_criterion_10_soundness():
    # model-generated distributions never violate the derived constraints;
    # the Bell fixture joins the gated long run (criterion 8) because its
    # derivation alone takes 8-10 s
    t0 = time.monotonic()
    rng = random.Random(414243)
    for name in SOUNDNESS_FIXTURES:
        dag = parse_graph(FIXTURE_GRAPHS[name])
        merge = any(d.c_degree > 1 for d in dag.districts())
        result = derive_all(dag, DeriveOptions(merge=merge))
        for _ in range(100):
            table = table_from_dict(dag, structural_model_table(dag, rng))
            report = evaluate(result, dag, table)
            assert not report.falsified, name
            assert all(
                s.status == "satisfied" for s in report.constraint_statuses
            ), name
            assert all(s.status == "satisfied" for s in report.ci_statuses), name
    announce(10, time.monotonic() - t0, 300.0)


def test_criterion_11_iv_completeness():
    t0 = time.monotonic()
    dag = parse_graph(FIXTURE_GRAPHS["iv"])
    result = derive_all(dag)
    record = district_record(result, ("X", "Y"))
    fs = record.system
    matrix = [[Fraction(v) for v in row] for row in system_matrix(fs)]
    matrix.append([Fraction(1)] * fs.n_cols)

    rng = random.Random(987)
    accepted = 0
    attempts = 0
    while accepted < 50:
        attempts += 1
        assert attempts < 2000
        stars = positive_simplex_point(rng, 4) + positive_simplex_point(rng, 4)
        ok = True
        for constraint in record.constraints:
            value = sum(Fraction(c) * stars[row] for row, c in constraint.terms)
            if constraint.relation == "<=" and value > constraint.rhs:
                ok = False
                break
            if constraint.relation == "=" and value != constraint.rhs:
                ok = False
                break
        if not ok:
            continue
        accepted += 1
        rhs = list(stars) + [Fraction(1)]
        solution = feasible_nonneg(matrix, rhs)
        assert solution is not None, f"no exact response distribution for {stars}"
        assert all(x >= 0 for x in solution)
        assert sum(solution) == 1
        for row_index in range(fs.n_rows):
            got = sum(
                matrix[row_index][j] * solution[j]
                for j in range(fs.n_cols)
            )
            assert got == stars[row_index]
    announce(11, time.monotonic() - t0, 120.0, detail=f"{attempts} samples")
