"""Empirical joint probability tables over the observed variables.

Probabilities are exact rationals. The CSV format has one column per observed
variable in canonical order plus a final ``prob`` column holding ``a/b`` or a
decimal literal; omitted rows mean probability zero.

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
    beyond that in size; the size check reads only the text.
    """
    if "/" not in text:
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


class JointTable(Record):
    """A joint distribution over ``variables``, checked on construction.

    Equality, hashing and the repr see ``variables``, ``cardinalities``,
    ``probs`` and ``decimal_source``; the integer masses over
    ``denominator`` and the marginal cache are derived from them.
    """

    __slots__ = ("variables", "cardinalities", "probs", "decimal_source",
                 "denominator", "_scaled", "_marginals")
    _fields = ("variables", "cardinalities", "probs", "decimal_source")

    def __init__(self, variables: tuple[str, ...], cardinalities: tuple[int, ...],
                 probs: Mapping[tuple[int, ...], Fraction], decimal_source: bool = False):
        for config, p in probs.items():
            if len(config) != len(variables):
                raise TableError("configuration arity mismatch")
            for value, card in zip(config, cardinalities):
                if not 0 <= value < card:
                    raise TableError(f"value {value} out of range in {config}")
            if p < 0:
                raise TableError(f"negative probability for {config}")
        exact = [(config, Fraction(p)) for config, p in probs.items() if p]
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

    @classmethod
    def from_dict(cls, dag: HiddenDag, probs: Mapping[tuple[int, ...], Fraction],
                  decimal_source: bool = False) -> "JointTable":
        names = dag.observed_names()
        cards = tuple(dag.cardinality(n) for n in names)
        cleaned = {tuple(k): Fraction(v) for k, v in probs.items() if v != 0}
        return cls(names, cards, cleaned, decimal_source)

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
            masses = {}
            for config, n in rows:
                values = tuple([config[i] for i in cols])
                masses[values] = masses.get(values, 0) + n
            self._marginals[key] = masses
        return masses

    def prob(self, assignment: Mapping[str, int]) -> Fraction:
        """Marginal probability of a partial assignment."""
        names = sorted(assignment, key=self._column)
        mass = self.marginal(names).get(tuple(assignment[n] for n in names), 0)
        return Fraction(mass, self.denominator)

    def conditional(self, target: Mapping[str, int], given: Mapping[str, int]):
        """P(target | given), or None when the conditioning event has mass 0."""
        denom = self.prob(given)
        if denom == 0:
            return None
        joint = dict(given)
        joint.update(target)
        return self.prob(joint) / denom


def _parse_prob(text: str) -> tuple[Fraction, bool]:
    text = text.strip()
    try:
        value = parse_fraction(text)  # exact for decimal literals
    except ValueError as exc:
        raise TableError(f"cannot parse probability {text!r}: {exc}") from None
    return value, "/" not in text and ("." in text or "e" in text.lower())


def parse_table(text: str, dag: HiddenDag) -> JointTable:
    names = dag.observed_names()
    cards = tuple(dag.cardinality(n) for n in names)
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise TableError("empty distribution file")
    header = [h.strip() for h in rows[0]]
    if header != list(names) + ["prob"]:
        raise TableError(
            f"header must be {', '.join(names)}, prob (canonical order); got {', '.join(header)}"
        )
    probs: dict[tuple[int, ...], Fraction] = {}
    decimal_source = False
    for row in rows[1:]:
        if len(row) != len(names) + 1:
            raise TableError(f"row {row!r} has {len(row)} fields, expected {len(names) + 1}")
        try:
            config = tuple(int(cell) for cell in row[:-1])
        except ValueError as exc:
            raise TableError(f"non-integer value in row {row!r}") from exc
        if config in probs:
            raise TableError(f"duplicate configuration {config}")
        p, was_decimal = _parse_prob(row[-1])
        decimal_source = decimal_source or was_decimal
        if p != 0:
            probs[config] = p
    return JointTable(names, cards, probs, decimal_source)


def load_table(path, dag: HiddenDag) -> JointTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_table(fh.read(), dag)
