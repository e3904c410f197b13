"""Empirical joint probability tables over the observed variables.

Probabilities are exact rationals. The CSV format has one column per observed
variable in canonical order plus a final ``prob`` column holding ``a/b`` or a
decimal literal; omitted rows mean probability zero. A file may start with
a UTF-8 byte-order mark, as spreadsheets write one.

The work per row runs in C-level passes wherever it can: a configuration
is read with one ``map(int, ...)`` and range-checked with one ``map`` over
``range`` objects, an ASCII ``a/b`` or ``d.d`` probability is built from
two ints instead of parsed by ``Fraction``, and a marginal pass takes each
row's key with one ``itemgetter``.

A table keeps its masses as integer numerators over one common denominator
and caches every marginal it is asked for, so a query over a variable tuple
costs one pass the first time and a dictionary lookup after. While the
cache holds fewer marginals than the table has rows, the pass runs over the
smallest cached marginal that holds the variables, if there is one.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from math import floor, lcm, log10
from operator import itemgetter
from typing import Mapping, Sequence

from ._record import Record
from .graph import HiddenDag


class TableError(ValueError):
    """Malformed or inconsistent distribution input."""


# Fraction("1e-N") builds 10**N, which takes seconds for N in the millions, so
# a decimal literal may have at most this many digits and this large an
# exponent; 1e-1000 is far below any probability a table can mean.
MAX_DECIMAL_DIGITS = 1000


def parse_fraction(text: str) -> Fraction:
    """``a/b`` or a decimal literal as an exact rational.

    Raises ValueError for any other text, a zero denominator, or a decimal
    literal with more than ``MAX_DECIMAL_DIGITS`` digits or an exponent
    beyond that in size; the size check reads only the text. The common
    spellings, ASCII digits as ``a/b`` or ``d.d``, are built from ints
    directly; every other text goes to ``Fraction(text)``.
    """
    num, slash, den = text.partition("/")
    if slash:
        if num.isdigit() and den.isdigit() and text.isascii():
            try:
                return Fraction(int(num), int(den))
            except (ValueError, ZeroDivisionError):
                pass  # past the int-digit limit, or 0 below: Fraction(text) says so
    else:
        whole, _, part = text.partition(".")
        if (whole.isdigit() and part.isdigit() and text.isascii()
                and len(whole) + len(part) <= MAX_DECIMAL_DIGITS):
            return Fraction(int(whole + part), 10 ** len(part))
        mantissa, _, exponent = text.lower().partition("e")
        exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if (sum(ch.isdigit() for ch in mantissa) > MAX_DECIMAL_DIGITS
                or len(exponent) > len(str(MAX_DECIMAL_DIGITS))
                or (exponent.isdigit() and int(exponent) > MAX_DECIMAL_DIGITS)):
            raise ValueError(
                f"decimal literal longer than {MAX_DECIMAL_DIGITS} digits "
                f"or with an exponent beyond {MAX_DECIMAL_DIGITS}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError("not a ratio a/b or a decimal literal") from None


def _approximate(numerator: int, denominator: int) -> str:
    """A nonnegative ratio as exact text when short, else to six digits.

    Never writes out an unbounded integer, whose decimal text would be slow
    and over Python's int-to-str limit.
    """
    if numerator.bit_length() <= 64 and denominator.bit_length() <= 64:
        return str(Fraction(numerator, denominator))
    # numerator/denominator = q * 2**-shift with q of about 60 bits
    shift = 60 - numerator.bit_length() + denominator.bit_length()
    if shift >= 0:
        q = (numerator << shift) // denominator
    else:
        q = numerator // (denominator << -shift)
    exponent = log10(q) - shift * log10(2)
    power = floor(exponent)
    mantissa = round(10 ** (exponent - power), 5)
    if mantissa >= 10:
        mantissa, power = mantissa / 10, power + 1
    return f"about {mantissa:.5f}e{power}"


def _items_getter(indices: Sequence[int]):
    """``itemgetter(*indices)``, returning a sequence for one index or none
    too: a slice then, so a tuple's items come back as a tuple."""
    if len(indices) > 1:
        return itemgetter(*indices)
    start = indices[0] if indices else 0
    return itemgetter(slice(start, start + len(indices)))


def _check_range(config: tuple[int, ...], cardinalities: Sequence[int]) -> None:
    for value, card in zip(config, cardinalities):
        if not 0 <= value < card:
            raise TableError(f"value {value} out of range in {config}")


class JointTable(Record):
    """A joint distribution over ``variables``, checked on construction.

    Each probability is an ``int`` or a ``Fraction``; other types, floats
    included, raise ``TableError``. Equality, hashing and the repr see
    ``variables``, ``cardinalities``, ``probs`` and ``decimal_source``; the
    integer masses over ``denominator`` and the marginal cache are derived
    from them.
    """

    __slots__ = ("variables", "cardinalities", "probs", "decimal_source",
                 "denominator", "_scaled", "_marginals")
    _fields = ("variables", "cardinalities", "probs", "decimal_source")

    def __init__(self, variables: tuple[str, ...], cardinalities: tuple[int, ...],
                 probs: Mapping[tuple[int, ...], Fraction], decimal_source: bool = False):
        arity = len(variables)
        ranges = [range(card) for card in cardinalities]
        for config, p in probs.items():
            if len(config) != arity:
                raise TableError("configuration arity mismatch")
            if not all(map(range.__contains__, ranges, config)):
                _check_range(config, cardinalities)  # raises with the value
            if not isinstance(p, (int, Fraction)):
                raise TableError(
                    f"probability for {config} is a {type(p).__name__}, not an int or Fraction")
            if p.numerator < 0:
                raise TableError(f"negative probability for {config}")
        exact = [(config, p) for config, p in probs.items() if p]
        denominator = lcm(*(p.denominator for _, p in exact))
        scaled = tuple(
            (config, p.numerator * (denominator // p.denominator))
            for config, p in exact
        )
        total = sum(n for _, n in scaled)
        if total != denominator:
            raise TableError(
                f"probabilities sum to {_approximate(total, denominator)}, expected 1"
            )
        self._set(variables=variables, cardinalities=cardinalities, probs=probs,
                  decimal_source=decimal_source, denominator=denominator,
                  _scaled=scaled, _marginals={})

    def _column(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise TableError(f"unknown variable {name!r}") from None

    def marginal(self, names: Sequence[str]) -> dict[tuple[int, ...], int]:
        """Masses of the values of ``names``, keyed in the order given.

        Masses are integer numerators over ``denominator``; values of zero
        mass are absent. Each variable tuple costs one pass, the first time
        it is asked for: over the smallest cached marginal of a superset of
        ``names`` if there is one and the cache holds fewer marginals than
        the table has rows, else over the table. Either pass meets the
        values in the order of their first row in the table, so the keys
        come in that order too.
        """
        key = tuple(names)
        masses = self._marginals.get(key)
        if masses is None:
            cols = [self._column(name) for name in key]  # raises on unknown names
            rows = self._scaled
            # a look at a cached marginal costs about what a row of a pass
            # does, so the cache is searched only while it is the shorter
            if len(self._marginals) < len(rows):
                wanted = set(key)
                for finer, cached in self._marginals.items():
                    if len(cached) < len(rows) and wanted.issubset(finer):
                        rows = cached.items()
                        cols = [finer.index(name) for name in key]
            values_of = _items_getter(cols)
            masses = {}
            for config, n in rows:
                values = values_of(config)
                masses[values] = masses.get(values, 0) + n
            self._marginals[key] = masses
        return masses

    def prob(self, assignment: Mapping[str, int]) -> Fraction:
        """Marginal probability of a partial assignment."""
        names = sorted(assignment, key=self._column)
        mass = self.marginal(names).get(tuple(assignment[n] for n in names), 0)
        return Fraction(mass, self.denominator)


def parse_table(text: str, dag: HiddenDag) -> JointTable:
    names = dag.observed_names()
    cards = tuple(dag.cardinality(n) for n in names)
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if "".join(row).strip()]
    if not rows:
        raise TableError("empty distribution file")
    header = [h.strip() for h in rows[0]]
    if header != list(names) + ["prob"]:
        raise TableError(
            f"header must be {', '.join(names)}, prob (canonical order); got {', '.join(header)}"
        )
    probs: dict[tuple[int, ...], Fraction] = {}
    seen = set()  # every parsed configuration, zero-probability rows too
    decimal_source = False
    width = len(names) + 1
    for row in rows[1:]:
        if len(row) != width:
            raise TableError(f"row {row!r} has {len(row)} fields, expected {width}")
        try:
            config = tuple(map(int, row[:-1]))
        except ValueError as exc:
            raise TableError(f"non-integer value in row {row!r}") from exc
        if config in seen:
            raise TableError(f"duplicate configuration {config}")
        seen.add(config)
        cell = row[-1].strip()
        try:
            p = parse_fraction(cell)  # exact for decimal literals
        except ValueError as exc:
            raise TableError(f"cannot parse probability {cell!r}: {exc}") from None
        if not decimal_source and "/" not in cell:
            decimal_source = "." in cell or "e" in cell.lower()
        if p.numerator:
            probs[config] = p
        else:  # JointTable range-checks the rows it keeps, so check the others
            _check_range(config, cards)
    return JointTable(names, cards, probs, decimal_source)


def load_table(path, dag: HiddenDag) -> JointTable:
    with open(path, "r", encoding="utf-8-sig") as fh:  # skips a byte-order mark
        return parse_table(fh.read(), dag)
