import random
import time
from collections.abc import Mapping
from fractions import Fraction
from itertools import product

import pytest

from obscon import JointTable, TableError, parse_graph, parse_table
from obscon.tables import MAX_DECIMAL_DIGITS

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


def test_marginals_summed_from_cached_ones_match_a_direct_pass():
    # a table sums a new marginal from the smallest cached one that holds
    # its variables; a fresh table's first marginal is a pass over its rows
    rng = random.Random(29)
    for _ in range(100):
        table = random_table(rng)
        for _ in range(8):
            names = list(table.variables)
            rng.shuffle(names)
            names = tuple(names[:rng.randint(0, len(names))])
            fresh = JointTable(table.variables, table.cardinalities, table.probs)
            assert list(table.marginal(names).items()) == list(fresh.marginal(names).items())


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


PAIR = parse_graph("var A 2\nvar B 2\n")


def pair_table(*cells):
    rows = ["A,B,prob"] + [f"{i // 2},{i % 2},{cell}" for i, cell in enumerate(cells)]
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("cell", [
    "1e-300000", "1e-3000000", "1E+3000000", "0.5e-1001", "1e1001",
    "0." + "0" * MAX_DECIMAL_DIGITS + "1",
])
def test_oversized_decimal_refused_before_expansion(cell):
    start = time.process_time()
    with pytest.raises(TableError, match="exponent beyond 1000") as exc:
        parse_table(pair_table(cell, "1"), PAIR)
    assert time.process_time() - start < 1.0
    assert len(str(exc.value)) < 200 + len(cell)


def test_decimal_literals_at_the_bound_parse():
    # 1000 digits in all, then an exponent of 1000
    table = parse_table(pair_table("1e-999", "0." + "9" * 999), PAIR)
    assert table.probs[(0, 1)] == 1 - Fraction(1, 10 ** 999)
    table = parse_table(pair_table("1e-1000", f"{10 ** 1000 - 1}/{10 ** 1000}"), PAIR)
    assert table.decimal_source
    assert table.probs[(0, 0)] == Fraction(1, 10 ** 1000)


def test_twelve_decimal_tables_parse():
    cells = ["0.123456789012", "0.376543210988", "0.25", "0.250000000000"]
    table = parse_table(pair_table(*cells), PAIR)
    assert table.decimal_source
    assert table.probs[(0, 0)] == Fraction(123456789012, 10 ** 12)
    assert sum(table.probs.values()) == 1


def test_wrong_sum_message_stays_short():
    # four pairwise coprime 4000-digit denominators: the exact sum has about
    # 16,000 digits, past Python's int-to-str limit
    cells = [f"1/{10 ** 4000 + k}" for k in (1, 3, 7, 9)]
    with pytest.raises(TableError, match=r"sum to about 4\.00000e-4000, expected 1") as exc:
        parse_table(pair_table(*cells), PAIR)
    assert len(str(exc.value)) < 100
    with pytest.raises(TableError, match="sum to 3/4, expected 1"):
        parse_table(pair_table("1/4", "1/2"), PAIR)
