import random
from collections.abc import Mapping
from fractions import Fraction
from itertools import product

import pytest

from obscon import JointTable, TableError

from oracles import scan_prob


class FrozenProbs(Mapping):
    """A hashable mapping, so that tables built on it can be hashed."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __hash__(self):
        return hash(frozenset(self._items.items()))


def random_table(rng: random.Random, probs_type=dict) -> JointTable:
    n = rng.randint(1, 4)
    names = tuple(f"V{i}" for i in range(n))
    cards = tuple(rng.randint(2, 3) for _ in range(n))
    configs = list(product(*(range(c) for c in cards)))
    support = rng.sample(configs, rng.randint(1, len(configs)))
    weights = {c: Fraction(rng.randint(1, 30), rng.randint(1, 7)) for c in support}
    total = sum(weights.values())
    return JointTable(names, cards, probs_type({c: w / total for c, w in weights.items()}))


def random_assignment(rng: random.Random, table: JointTable) -> dict[str, int]:
    k = rng.randint(0, len(table.variables))
    picked = rng.sample(range(len(table.variables)), k)  # any order
    return {table.variables[i]: rng.randrange(table.cardinalities[i]) for i in picked}


def test_prob_matches_brute_force_sum():
    rng = random.Random(2024)
    for _ in range(200):
        table = random_table(rng)
        for _ in range(12):
            target = random_assignment(rng, table)
            assert table.prob(target) == scan_prob(table, target), target
            given = random_assignment(rng, table)
            denom = scan_prob(table, given)
            want = None if denom == 0 else scan_prob(table, {**given, **target}) / denom
            if not set(target) & set(given):
                assert table.conditional(target, given) == want
        assert table.prob({}) == 1


def test_marginal_masses_over_common_denominator():
    rng = random.Random(7)
    for _ in range(50):
        table = random_table(rng)
        names = list(table.variables)
        rng.shuffle(names)
        names = names[:rng.randint(0, len(names))]
        masses = table.marginal(names)
        assert table.marginal(names) is masses  # one pass per variable tuple
        assert sum(masses.values()) == table.denominator
        for values, mass in masses.items():
            assert mass > 0
            assert Fraction(mass, table.denominator) == scan_prob(
                table, dict(zip(names, values)))


def test_unknown_variable_raises():
    table = JointTable(("A", "B"), (2, 2), {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    for _ in range(2):  # before and after the cache holds entries
        with pytest.raises(TableError, match="unknown variable 'C'"):
            table.prob({"A": 0, "C": 1})
        with pytest.raises(TableError, match="unknown variable 'C'"):
            table.conditional({"A": 0}, {"C": 1})
        assert table.prob({"A": 0}) == Fraction(1, 2)


@pytest.mark.parametrize("probs_type", [dict, FrozenProbs])
def test_cache_leaves_equality_and_hash_alone(probs_type):
    rng = random.Random(11)
    for seed in range(20):
        a = random_table(random.Random(seed), probs_type)
        b = random_table(random.Random(seed), probs_type)
        hashes = (hash(a), hash(b)) if probs_type is FrozenProbs else None
        assert a == b
        for _ in range(5):
            a.prob(random_assignment(rng, a))
        assert a == b and b == a
        assert a != JointTable(a.variables, a.cardinalities, a.probs, not a.decimal_source)
        if hashes is not None:
            assert hash(a) == hash(b) == hashes[0] == hashes[1]
