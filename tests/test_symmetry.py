"""Row symmetries of a district and the orbit-wise facet enumeration.

The orbit path of ``v_to_h`` must return plain double description's HRep
exactly; these tests force it where the selection rule would not take it,
pin which path each district takes, and pin the symmetry groups and facet
orbits known from the literature.
"""

import random
import sys
from hashlib import sha256

import pytest

from obscon import VRep, derive_all, parse_graph, v_to_h
from obscon import polyhedra
from obscon.fixtures import FIXTURE_GRAPHS
from obscon.response import build_functional_system, row_symmetries
from obscon.transform import merge_district_latents

from conftest import BELL_CHSH, BELL_I3322
from test_bench_spans import BENCH_DIR


def derived_systems(text):
    """The system of every district a derivation builds one for, merging
    latents first where a district has c-degree above 1."""
    dag = parse_graph(text)
    if any(d.c_degree > 1 for d in dag.districts()):
        dag, _ = merge_district_latents(dag)
    return [build_functional_system(dag, d) for d in dag.districts()
            if len(d.members) > 1 or dag.observed_parents(d.members)]


def distinct(points):
    return list(dict.fromkeys(points))


def orbit_v_to_h(monkeypatch, points, proposals):
    """v_to_h sent down the orbit path whatever the selection rule says.

    Returns the HRep and the facet orbit sizes, sorted.
    """
    select = polyhedra._orbit_generators
    facet_orbits = polyhedra._facet_orbits
    sizes = []

    def forced(pts, symmetries):
        # the ridge conversions inside pass no proposals: leave them alone
        return polyhedra.point_symmetries(pts, symmetries) if symmetries else select(pts, ())

    def recording(*args):
        orbits = facet_orbits(*args)
        sizes.extend(len(orbit) for orbit in orbits)
        return orbits

    monkeypatch.setattr(polyhedra, "_orbit_generators", forced)
    monkeypatch.setattr(polyhedra, "_facet_orbits", recording)
    hrep = v_to_h(VRep(tuple(points)), symmetries=list(proposals))
    monkeypatch.setattr(polyhedra, "_orbit_generators", select)
    monkeypatch.setattr(polyhedra, "_facet_orbits", facet_orbits)
    return hrep, sorted(sizes)


def group_order(generators):
    """Order of the permutation group the generators generate, by closure."""
    identity = tuple(range(len(generators[0])))
    elements = {identity}
    frontier = [identity]
    for element in frontier:
        for g in generators:
            product = tuple(map(g.__getitem__, element))
            if product not in elements:
                elements.add(product)
                frontier.append(product)
    return len(elements)


def verified(system):
    points = distinct(system.columns_as_points())
    return points, polyhedra.point_symmetries(points, row_symmetries(system))


DIFFERENTIAL = {name: text for name, text in FIXTURE_GRAPHS.items()
                if name != "bell_tripartite"}
DIFFERENTIAL.update(chsh=BELL_CHSH, i3322=BELL_I3322)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_forced_orbit_path_matches_plain_dd(monkeypatch, name):
    for system in derived_systems(DIFFERENTIAL[name]):
        points = system.columns_as_points()
        hrep, sizes = orbit_v_to_h(monkeypatch, points, row_symmetries(system))
        assert hrep == v_to_h(VRep(tuple(points))), (name, system.members)
        assert sum(sizes) == len(hrep.ineq)


def symmetric_zero_one_points(rng):
    """A 0/1 point set closed under a few random coordinate permutations,
    with an affine hull of dimension at least 2, and the permutations."""
    while True:
        dim = rng.randint(4, 7)
        perms = []
        for _ in range(rng.randint(1, 3)):
            perm = list(range(dim))
            if rng.random() < 0.5:
                i, j = rng.sample(range(dim), 2)
                perm[i], perm[j] = perm[j], perm[i]
            else:
                rng.shuffle(perm)
            perms.append(tuple(perm))
        points = {tuple(rng.getrandbits(1) for _ in range(dim))
                  for _ in range(rng.randint(2, 4))}
        frontier = list(points)
        for p in frontier:
            for perm in perms:
                image = [0] * dim
                for i, target in enumerate(perm):
                    image[target] = p[i]
                image = tuple(image)
                if image not in points:
                    points.add(image)
                    frontier.append(image)
        points = sorted(points)
        if len(polyhedra.affine_hull(points)[0]) >= 2:
            return points, perms


def symmetric_cases():
    """40 symmetric 0/1 point sets, each with its permutations and the
    points in a shuffled order."""
    rng = random.Random(5150)
    for _ in range(40):
        points, perms = symmetric_zero_one_points(rng)
        yield points, perms, rng.sample(points, len(points))


def test_forced_orbit_path_on_symmetric_point_sets(monkeypatch):
    for rep, (points, perms, shuffled) in enumerate(symmetric_cases()):
        assert len(polyhedra.point_symmetries(points, perms)) == len(perms)
        hrep, sizes = orbit_v_to_h(monkeypatch, shuffled, perms)
        assert hrep == v_to_h(VRep(tuple(points))), (rep, points, perms)
        assert sum(sizes) == len(hrep.ineq)


def test_a_proposal_that_is_no_symmetry_is_dropped():
    system, = derived_systems(BELL_I3322)
    points, generators = verified(system)
    bogus = list(range(system.n_rows))
    bogus[0], bogus[1] = 1, 0
    proposals = [tuple(bogus)] + list(row_symmetries(system))
    assert polyhedra.point_symmetries(points, proposals) == generators
    assert polyhedra._orbit_generators(points, proposals) == generators
    assert v_to_h(VRep(tuple(points)), symmetries=proposals) == v_to_h(VRep(tuple(points)))


def paths(text):
    """Per district with a system: members -> the path v_to_h takes."""
    out = {}
    for system in derived_systems(text):
        points = distinct(system.columns_as_points())
        chosen = polyhedra._orbit_generators(points, row_symmetries(system))
        out[",".join(system.members)] = "plain" if chosen is None else "orbit"
    return out


ORBIT_DISTRICTS = {"nested_pair_left": {"V2,V4"}, "bell_tripartite": {"V1,V2,V3"},
                   "i3322": {"A,B"}}


@pytest.mark.parametrize("name", sorted(FIXTURE_GRAPHS) + ["chsh", "i3322"])
def test_path_of_each_fixture_district(name):
    text = {"chsh": BELL_CHSH, "i3322": BELL_I3322}.get(name) or FIXTURE_GRAPHS[name]
    got = paths(text)
    assert {m for m, path in got.items() if path == "orbit"} == ORBIT_DISTRICTS.get(name, set())


def test_path_of_each_bench_district(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH_DIR)
    from workloads import WORKLOADS

    got = {name: paths(w.graph.text()) for name, w in WORKLOADS.items()}
    assert got["i3322"] == {"A,B": "orbit"}
    # mixed_check: only the merged (V2,V4,V5) district does group work (48
    # points), and its group has 3 orbits on them
    assert got["mixed_check"] == {"V1,V3,V6": "plain", "V2,V4,V5": "plain"}
    # 11 districts; the lone variable without observed parents gets no system
    assert len(got["sparse14"]) == 10
    assert set(got["sparse14"].values()) == {"plain"}


def test_pruned_generators_drop_identity_and_repeats():
    system, = derived_systems(BELL_I3322)
    _, generators = verified(system)
    identity = tuple(range(len(generators[0])))
    pruned = polyhedra._pruned_generators(generators)
    padded = [identity] + generators[::-1] + [identity] + generators
    got = polyhedra._pruned_generators(padded)
    assert identity not in got and len(set(got)) == len(got)
    assert polyhedra._pruned_generators(generators + [identity] + generators) == pruned
    assert polyhedra._pruned_generators([identity, identity]) == []


def test_pruned_generators_keep_the_group_of_random_point_sets():
    # each set also goes in with a conjugate h k h^-1 of two of its
    # generators appended: a new one makes pruning drop a generator
    for rep, (points, perms, _) in enumerate(symmetric_cases()):
        generators = polyhedra.point_symmetries(points, perms)
        h, k = generators[0], generators[-1]
        inverse = sorted(range(len(h)), key=h.__getitem__)
        conjugate = tuple(h[k[i]] for i in inverse)
        for given in (generators, generators + [conjugate]):
            pruned = polyhedra._pruned_generators(given)
            assert set(pruned) <= set(given), rep
            assert (group_order(pruned) if pruned else 1) == group_order(given), rep
        identity = tuple(range(len(h)))
        if conjugate not in generators and identity not in (h, k):
            distinct = set(generators + [conjugate]) - {identity}
            assert len(pruned) < len(distinct), rep


def test_group_orders():
    # relabelings of inputs and outputs, and the party swap; the pruned
    # generators are some of the verified ones and generate the same group
    for text, members, order, sizes in (
            (BELL_CHSH, ("A", "B"), 128, (7, 3)),
            (BELL_I3322, ("A", "B"), 4_608, (11, 4)),
            (FIXTURE_GRAPHS["mixed_cdegree"], ("V2", "V4", "V5"), 64, (6, 5)),
            (FIXTURE_GRAPHS["bell_tripartite"], ("V1", "V2", "V3"), 3_072, (12, 4)),
            (FIXTURE_GRAPHS["nested_pair_left"], ("V2", "V4"), 256, (8, 4))):
        system, = [s for s in derived_systems(text) if s.members == members]
        _, generators = verified(system)
        pruned = polyhedra._pruned_generators(generators)
        assert set(pruned) <= set(generators), members
        assert (len(generators), len(pruned)) == sizes, members
        assert group_order(generators) == group_order(pruned) == order, members


# SHA-256 of repr(list(row_symmetries(system))): the proposals and
# their order, which test_group_orders does not see
@pytest.mark.parametrize("text, members, count, digest", [
    (BELL_CHSH, ("A", "B"), 7,
     "b82cbdf2dc8f9aad6fdf53da9f998dd98f14b5e04c2cb9ed04eed6fe01af92fb"),
    (BELL_I3322, ("A", "B"), 11,
     "07d87be3e9c0db3db43fd698b90b14713bae8704c0789028f2cdfc31ecaf3bc2"),
    (FIXTURE_GRAPHS["bell_tripartite"], ("V1", "V2", "V3"), 12,
     "9fe3debc45a29a03960294c8d5dd9c4d32a9eb64abc8974c86bdf9940539dbf4"),
    (FIXTURE_GRAPHS["nested_pair_left"], ("V2", "V4"), 8,
     "abbcf59cf9ba892c250f3006b93576bac3b9d254375a53f76c93f0c3bc2e3168"),
    (FIXTURE_GRAPHS["mixed_cdegree"], ("V2", "V4", "V5"), 8,
     "201137f17a06849030b6ba18eb08f7d2d82321f8607724884370b274e2f01f98"),
], ids=["chsh", "i3322", "bell_tripartite", "nested_pair_left", "mixed_cdegree"])
def test_proposal_lists(text, members, count, digest):
    system, = [s for s in derived_systems(text) if s.members == members]
    proposals = list(row_symmetries(system))
    assert len(proposals) == count
    assert sha256(repr(proposals).encode()).hexdigest() == digest


@pytest.mark.parametrize("text, sizes", [
    (BELL_CHSH, [8, 16]),
    # Collins & Gisin, J. Phys. A 37, 1775 (2004)
    (BELL_I3322, [36, 72, 576]),
], ids=["chsh", "i3322"])
def test_facet_orbit_sizes(monkeypatch, text, sizes):
    system, = derived_systems(text)
    points = system.columns_as_points()
    _, got = orbit_v_to_h(monkeypatch, points, row_symmetries(system))
    assert got == sizes


def test_bell_tripartite_derivation(monkeypatch):
    # the orbit path's HRep is the one plain DD gave: 53,856 facets in the
    # 46 classes of Śliwa, Phys. Lett. A 317, 165 (2003)
    facet_orbits = polyhedra._facet_orbits
    sizes = []

    def recording(*args):
        orbits = facet_orbits(*args)
        sizes.extend(len(orbit) for orbit in orbits)
        return orbits

    monkeypatch.setattr(polyhedra, "_facet_orbits", recording)
    result = derive_all(parse_graph(FIXTURE_GRAPHS["bell_tripartite"]))
    assert result.constraints_total == 53_894
    assert result.inequality_count == 53_856
    (record,) = [r for r in result.districts if not r.skipped]
    assert len(record.hrep.eq) == 38
    assert len(sizes) == 46 and sum(sizes) == 53_856
    # SHA-256 of the canonical HRep's cdd text, as plain DD derived it
    assert sha256(record.hrep.to_cdd().encode()).hexdigest() == (
        "1813439ac23c7664e2c13350a32a2a6e8858fd765509a52c50e5ec44513604a0")
