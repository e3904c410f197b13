"""Assemble, flag, render and evaluate the observable constraints of a graph.

``derive_all`` runs the full pipeline: conditional independencies, districts,
per-district linear system, vertex-to-halfspace conversion, and the
extreme-point nontriviality flag. ``evaluate`` checks a derivation against an
empirical joint distribution.

A flagged constraint is only *potentially* nontrivial: substituting the
identifying functionals can reduce a flagged row to a tautology, so flagged
rows deserve manual inspection before being read as genuine restrictions.
Testing them anyway is sound, since trivial rows restrict nothing.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, mul
from typing import NamedTuple, Sequence

from ._record import Record
from ._version import __version__ as _version
from .graph import HiddenDag, validate_conditions
from .graph import parse_graph  # noqa: F401  (bound here so a tracer can wrap it)
from .independence import CIStatement, enumerate_ci
from .polyhedra import HRep, VRep, v_to_h
from .response import (
    DEFAULT_COLUMN_LIMIT,
    FunctionalSystem,
    build_functional_system,
    row_symmetries,
    star_factors,
    star_keys,
    star_probability,  # noqa: F401  (bound here so a tracer can wrap it)
    star_scaled,
)
from .tables import JointTable, _approximate
from .transform import merge_district_latents

FLAG_CAVEAT = (
    "flagged constraints are potentially nontrivial; after substituting the "
    "identifying conditionals some may reduce to tautologies, so inspect "
    "flagged rows before reading them as genuine model restrictions"
)


class ConditionsError(ValueError):
    """The graph is not in derivable form (conditions or c-degree)."""


class Constraint(NamedTuple):
    """One linear (in)equality over a district's interventional terms.

    ``terms`` maps row indices of the district's FunctionalSystem to integer
    coefficients; ``relation`` is "<=" or "=".
    """

    terms: tuple[tuple[int, int], ...]
    relation: str
    rhs: int
    flagged: bool
    witness: int | None


class DistrictResult(Record):
    """One district's derivation; a skipped district has no system."""

    _fields = ("members", "c_degree", "system", "constraints")

    def __init__(self, members: tuple[str, ...], c_degree: int,
                 system: FunctionalSystem | None, constraints: tuple[Constraint, ...]):
        self._set(members=members, c_degree=c_degree, system=system,
                  constraints=constraints)

    @property
    def skipped(self) -> bool:
        return self.system is None

    @property
    def hrep(self) -> HRep | None:
        """The canonical dense H-representation, rebuilt from ``constraints``."""
        if self.system is None:
            return None
        rows = {"<=": [], "=": []}
        for c in self.constraints:
            coeffs = [0] * self.system.n_rows
            for row, coeff in c.terms:
                coeffs[row] = coeff
            rows[c.relation].append((tuple(coeffs), c.rhs))
        return HRep(tuple(rows["<="]), tuple(rows["="]))

    @property
    def block_sizes(self) -> tuple[int, ...]:
        """The row count of each w2 block of the system; empty when skipped."""
        return () if self.system is None else self.system.block_sizes

    @cached_property
    def star_texts(self) -> tuple[str, ...]:
        """Each constraint rendered over star terms, once per derivation."""
        return self.texts(None, "star")

    def texts(self, dag: HiddenDag | None, mode: str) -> tuple[str, ...]:
        """Each constraint rendered as ``render`` does, labelling each row once."""
        labels = _row_labels(self.system, dag, mode, range(self.system.n_rows))
        term_texts = _TermTexts(labels)
        return tuple(_join_terms(c, term_texts) for c in self.constraints)


class DerivationResult(Record):
    """A graph's derivation; ``derived_graph`` is the graph it ran on (the
    input, or its merged rewrite). ``meta`` defaults to a new empty dict."""

    _fields = ("fingerprint", "graph_text", "derived_graph", "merged",
               "ci_statements", "districts", "meta")

    def __init__(self, fingerprint: str, graph_text: str, derived_graph: HiddenDag,
                 merged: bool, ci_statements: tuple[CIStatement, ...],
                 districts: tuple[DistrictResult, ...], meta: dict | None = None):
        self._set(fingerprint=fingerprint, graph_text=graph_text,
                  derived_graph=derived_graph, merged=merged,
                  ci_statements=ci_statements, districts=districts,
                  meta={} if meta is None else meta)

    @property
    def derived_graph_text(self) -> str:
        return self.derived_graph.to_text()

    @cached_property
    def check_plans(self) -> tuple["CheckPlan", ...]:
        """What ``evaluate`` reads of each derived district, once per derivation."""
        return tuple(
            _check_plan(index, record, self.derived_graph)
            for index, record in enumerate(self.districts)
            if record.system is not None
        )

    @property
    def constraints_total(self) -> int:
        return sum(len(d.constraints) for d in self.districts)

    @property
    def inequality_count(self) -> int:
        return sum(
            1 for d in self.districts for c in d.constraints if c.relation == "<="
        )

    @property
    def equality_count(self) -> int:
        return sum(
            1 for d in self.districts for c in d.constraints if c.relation == "="
        )

    @property
    def flagged_count(self) -> int:
        return sum(1 for d in self.districts for c in d.constraints if c.flagged)

    def summary(self) -> str:
        return (
            f"{self.constraints_total} constraints, "
            f"{self.inequality_count} inequalities, "
            f"{self.equality_count} equalities, "
            f"{self.flagged_count} flagged"
        )


class DeriveOptions(NamedTuple):
    merge: bool = False
    max_ci_size: int | None = None
    column_limit: int = DEFAULT_COLUMN_LIMIT
    timings: bool = False


def flag_nontrivial(h: HRep, block_sizes: Sequence[int]):
    """Per-row nontriviality flags with violating extreme-point witnesses.

    A row is flagged iff some vertex of the product of probability simplices
    violates it. The check is analytic: over the product's vertices a linear
    form attains exactly the sums of per-block maxima (or minima), so no
    enumeration is needed. Returns (ineq_flags, eq_flags) lists of
    (flagged, witness_index_or_None).
    """
    dim = sum(block_sizes)
    if h.dim != dim:
        raise ValueError(f"H-representation has dim {h.dim}, blocks sum to {dim}")
    offsets = []
    start = 0
    for size in block_sizes:
        offsets.append((start, start + size))
        start += size

    def block_extremes(coeffs):
        max_sum, min_sum = 0, 0
        argmax, argmin = [], []
        for lo, hi in offsets:
            seg = coeffs[lo:hi]
            mx = max(seg)
            mn = min(seg)
            max_sum += mx
            min_sum += mn
            argmax.append(seg.index(mx))
            argmin.append(seg.index(mn))
        return max_sum, argmax, min_sum, argmin

    def point_index(choices):
        index = 0
        stride = 1
        for choice, size in zip(choices, block_sizes):
            index += choice * stride
            stride *= size
        return index

    ineq_flags = []
    for coeffs, rhs in h.ineq:
        max_sum, argmax, _, _ = block_extremes(coeffs)
        if max_sum > rhs:
            ineq_flags.append((True, point_index(argmax)))
        else:
            ineq_flags.append((False, None))
    eq_flags = []
    for coeffs, rhs in h.eq:
        max_sum, argmax, min_sum, argmin = block_extremes(coeffs)
        if max_sum != rhs:
            eq_flags.append((True, point_index(argmax)))
        elif min_sum != rhs:
            eq_flags.append((True, point_index(argmin)))
        else:
            eq_flags.append((False, None))
    return ineq_flags, eq_flags


def _derive_district(dag: HiddenDag, district, column_limit) -> DistrictResult:
    """Build a district's system, convert its columns to facets, flag the rows.

    A lone variable without observed parents can only produce simplex facets,
    so it is skipped: no system and no constraints.
    """
    system, constraints = None, []
    if len(district.members) > 1 or dag.observed_parents(district.members):
        system = build_functional_system(dag, district, column_limit)
        hrep = v_to_h(VRep(tuple(system.columns_as_points())),
                      symmetries=row_symmetries(dag, system))
        ineq_flags, eq_flags = flag_nontrivial(hrep, system.block_sizes)
        for relation, rows, flags in (("<=", hrep.ineq, ineq_flags),
                                      ("=", hrep.eq, eq_flags)):
            for (coeffs, rhs), (flagged, witness) in zip(rows, flags):
                terms = tuple((row, c) for row, c in enumerate(coeffs) if c != 0)
                constraints.append(Constraint(terms, relation, rhs, flagged, witness))
    return DistrictResult(district.members, district.c_degree, system, tuple(constraints))


def derive_all(dag: HiddenDag, options: DeriveOptions | None = None) -> DerivationResult:
    """Run the full derivation pipeline on a hidden-variable DAG."""
    import time

    options = options or DeriveOptions()
    t0 = time.monotonic()
    report = validate_conditions(dag)
    if not report.ok:
        raise ConditionsError(
            "graph violates the structural conditions "
            f"({'; '.join(line for line in report.lines())}); run normalize first"
        )
    working = dag
    merged = False
    if any(d.c_degree > 1 for d in dag.districts()):
        if not options.merge:
            raise ConditionsError(
                "some district has c-degree > 1; rerun with merge enabled "
                "(results are then valid but possibly incomplete)"
            )
        working, _ = merge_district_latents(dag)
        merged = True

    ci = tuple(enumerate_ci(working, options.max_ci_size))
    records = tuple(
        _derive_district(working, district, options.column_limit)
        for district in working.districts()
    )

    meta = {
        "tool": "obscon",
        "version": _version,
        "options": {
            "merge": options.merge,
            "max_ci_size": options.max_ci_size,
            "column_limit": options.column_limit,
        },
        "ci_policy": "minimal-Z, merged, greedy-cover",
        # a cap below the largest possible separator may drop CI statements
        "complete": not merged and (
            options.max_ci_size is None
            or options.max_ci_size >= len(working.observed_names()) - 2
        ),
        "caveat": FLAG_CAVEAT,
    }
    if options.timings:
        meta["timings"] = {"derive_seconds": time.monotonic() - t0}
    return DerivationResult(
        fingerprint=hashlib.sha256(dag.to_text().encode()).hexdigest(),
        graph_text=dag.to_text(),
        derived_graph=working,
        merged=merged,
        ci_statements=ci,
        districts=records,
        meta=meta,
    )


# -- rendering -------------------------------------------------------------


def _row_labels(system: FunctionalSystem, dag: HiddenDag | None, mode: str,
                rows) -> dict[int, str]:
    """The labels of ``rows`` over star or observable probability terms."""
    if mode not in ("star", "observable"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "observable" and dag is None:
        raise ValueError("observable mode needs the graph")
    factors = star_factors(dag, system.district) if mode == "observable" else []
    labels = {}
    for row in rows:
        w1, w2 = system.row_labels[row]
        if mode == "star":
            given = f"|{w2.render()}" if w2.items else ""
            labels[row] = f"P*({w1.render()}{given})"
            continue
        values = dict(w1.items)
        values.update(w2.items)
        parts = []
        for member, cond in factors:
            given = "|" + ",".join(f"{name}={values[name]}" for name in cond) if cond else ""
            parts.append(f"P({member}={values[member]}{given})")
        labels[row] = "*".join(parts)
    return labels


class _TermTexts(dict):
    """A (row, coeff) term as text after a constraint's first term: ``+ L``,
    ``- L``, ``+ 2 L``, with ``labels[row]`` as L; each made once."""

    def __init__(self, labels):
        super().__init__()
        self.labels = labels

    def __missing__(self, term):
        row, coeff = term
        label = self.labels[row] if abs(coeff) == 1 else f"{abs(coeff)} {self.labels[row]}"
        text = self[term] = f"{'+' if coeff > 0 else '-'} {label}"
        return text


def _join_terms(constraint: Constraint, term_texts: _TermTexts) -> str:
    """The constraint as text, its terms written by ``term_texts``."""
    lhs = " ".join(map(term_texts.__getitem__, constraint.terms))
    if not lhs:
        lhs = "0"
    else:  # the first term drops a "+" and the space after its sign
        lhs = lhs[2:] if lhs[0] == "+" else "-" + lhs[2:]
    return f"{lhs} {constraint.relation} {constraint.rhs}"


def render(constraint: Constraint, system: FunctionalSystem,
           dag: HiddenDag | None = None, mode: str = "star") -> str:
    """Pretty-print a constraint over star or observable probability terms."""
    rows = [row for row, _ in constraint.terms]
    return _join_terms(constraint, _TermTexts(_row_labels(system, dag, mode, rows)))


# -- evaluation ------------------------------------------------------------


_ZERO = Fraction(0)


class ConstraintStatus(NamedTuple):
    """One constraint's verdict; an immutable record that builds like a tuple."""

    district_index: int
    constraint: Constraint
    text: str
    status: str  # satisfied | violated | not_evaluable
    margin: Fraction | None


class CheckPlan(NamedTuple):
    """One derived district as ``evaluate`` reads it.

    ``stars`` holds the marginal keys of every row of the system
    (``response.star_keys``). Each entry of ``rows`` is one constraint as
    (row getter, coefficients, rhs, is an equality, constraint, star text);
    the getter picks the constraint's rows out of the scaled star vector.
    """

    district_index: int
    stars: tuple
    rows: tuple


def _row_getter(rows: tuple[int, ...]):
    """``itemgetter(*rows)``, returning a sequence for a single row too."""
    if len(rows) > 1:
        return itemgetter(*rows)
    start = rows[0] if rows else 0
    return itemgetter(slice(start, start + len(rows)))


def _check_plan(index: int, record: DistrictResult, dag: HiddenDag) -> CheckPlan:
    """The plan of the district ``result.districts[index]`` of a derivation on ``dag``."""
    rows = []
    for constraint, text in zip(record.constraints, record.star_texts):
        picked, coeffs = zip(*constraint.terms) if constraint.terms else ((), ())
        rows.append((_row_getter(picked), coeffs, constraint.rhs,
                     constraint.relation == "=", constraint, text))
    stars = star_keys(dag, record.system.district, record.system.row_labels)
    return CheckPlan(index, stars, tuple(rows))


class CIStatus(NamedTuple):
    statement: CIStatement
    status: str
    margin: Fraction


class ViolationReport(NamedTuple):
    constraint_statuses: tuple[ConstraintStatus, ...]
    ci_statuses: tuple[CIStatus, ...]
    tolerance: Fraction

    @property
    def falsified(self) -> bool:
        return any(s.status == "violated" for s in self.constraint_statuses) or any(
            s.status == "violated" for s in self.ci_statuses
        )

    def lines(self) -> list[str]:
        out = []
        for s in self.ci_statuses:
            margin = _margin_str(s.margin, str)
            out.append(f"[{s.status}] CI {s.statement.render()} (margin {margin})")
        for s in self.constraint_statuses:
            margin = "" if s.margin is None else f" (margin {_margin_str(s.margin, str)})"
            out.append(f"[{s.status}] {s.text}{margin}")
        verdict = "falsified" if self.falsified else "consistent"
        out.append(f"model {verdict}")
        return out


def _ci_margin(table: JointTable, stmt: CIStatement) -> Fraction:
    """Largest |P(l,r,g) P(g) - P(l,g) P(r,g)| over the values of a statement.

    The term vanishes unless P(l,g) > 0 and P(r,g) > 0, so only the lhs and
    rhs values that occur with each conditioning value are visited.
    """
    lhs, rhs, given = stmt.lhs, stmt.rhs, stmt.given
    # finest first, so that the others are summed from it
    mass_all = table.marginal(lhs + rhs + given)
    mass_lg = table.marginal(lhs + given)
    mass_rg = table.marginal(rhs + given)
    mass_g = table.marginal(given)
    sides: dict[tuple[int, ...], tuple[list, list]] = {g: ([], []) for g in mass_g}
    for key in mass_lg:
        sides[key[len(lhs):]][0].append(key[:len(lhs)])
    for key in mass_rg:
        sides[key[len(rhs):]][1].append(key[:len(rhs)])
    best = 0
    for g, (l_values, r_values) in sides.items():
        n_g = mass_g[g]
        for l in l_values:
            n_lg = mass_lg[l + g]
            for r in r_values:
                gap = abs(mass_all.get(l + r + g, 0) * n_g - n_lg * mass_rg[r + g])
                if gap > best:
                    best = gap
    return Fraction(best, table.denominator ** 2)


def evaluate(result: DerivationResult, dag: HiddenDag, table: JointTable,
             tolerance: Fraction | None = None) -> ViolationReport:
    """Check every derived constraint and CI statement against a joint table.

    Reads each district's ``CheckPlan``, built on the derivation's first
    check and kept: the star terms come from the table's cached marginals by
    the plan's keys, over one common denominator, so a row is summed and
    compared with the tolerance in integers, and only a positive margin is
    a Fraction.
    """
    if table.variables != dag.observed_names():
        raise ValueError("table variables do not match the graph")
    if tolerance is None:
        tolerance = Fraction(1, 10 ** 9) if table.decimal_source else Fraction(0)
    tol_num, tol_den = tolerance.numerator, tolerance.denominator
    statuses = []
    add = statuses.append
    make = ConstraintStatus._make  # skips the keyword-capable __new__
    for index, stars, rows in result.check_plans:
        scale, scaled = star_scaled(table, stars)
        limit = tol_num * scale
        missing = None in scaled
        for get, coeffs, rhs, is_eq, constraint, text in rows:
            values = get(scaled)
            if missing and None in values:
                add(make((index, constraint, text, "not_evaluable", None)))
                continue
            # the row's value minus its rhs, times scale
            gap = sum(map(mul, coeffs, values)) - rhs * scale
            if is_eq:
                gap = abs(gap)
            if gap > 0:
                status = "violated" if gap * tol_den > limit else "satisfied"
                add(make((index, constraint, text, status, Fraction(gap, scale))))
            else:  # most rows are slack
                add(make((index, constraint, text, "satisfied", _ZERO)))

    ci_statuses = []
    for stmt in result.ci_statements:
        margin = _ci_margin(table, stmt)
        status = "violated" if margin > tolerance else "satisfied"
        ci_statuses.append(CIStatus(stmt, status, margin))

    return ViolationReport(tuple(statuses), tuple(ci_statuses), tolerance)


# -- serialization ----------------------------------------------------------


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _margin_str(value: Fraction, exact) -> str:
    """``exact(value)``, or six digits of it when over the int-to-str limit."""
    try:
        return exact(value)
    except ValueError:
        return _approximate(value.numerator, value.denominator)


def constraint_to_json(constraint: Constraint) -> dict:
    return {
        "rows": [row for row, _ in constraint.terms],
        "coeffs": [coeff for _, coeff in constraint.terms],
        "relation": constraint.relation,
        "rhs": constraint.rhs,
        "flagged": constraint.flagged,
        "witness": constraint.witness,
    }


def result_to_json(result: DerivationResult, dag: HiddenDag, texts: bool = False) -> dict:
    """The derivation record as a JSON document, schema 2.

    Each district's ``system`` gives ``row_labels`` (the (w1, w2) of each row
    of B) and ``col_outcomes``: each column's w1-row index in each w2 block,
    so B has a 1 in row ``block * block_size + outcome``. A constraint reads
    ``sum(coeffs[k] * p[rows[k]]) relation rhs``, with ``flagged`` and
    ``witness``; ``texts`` adds its ``text_star`` and ``text_observable``, as
    ``render`` writes them. A skipped district has a null ``system`` and no
    constraints. ``derive --format cdd`` gives the dense H-representation.
    """
    report = validate_conditions(dag)
    districts_json = []
    for record in result.districts:
        entry = {
            "members": list(record.members),
            "c_degree": record.c_degree,
            "merged": result.merged,
            "skipped": record.skipped,
            "system": None if record.system is None else record.system.to_json(),
            "block_sizes": list(record.block_sizes),
            "constraints": [constraint_to_json(c) for c in record.constraints],
        }
        if texts and record.system is not None:
            observable = record.texts(result.derived_graph, "observable")
            for doc, star, obs in zip(entry["constraints"], record.star_texts, observable):
                doc.update(text_star=star, text_observable=obs)
        districts_json.append(entry)
    return {
        "schema": 2,
        "graph": result.graph_text,
        "derived_graph": result.derived_graph_text,
        "fingerprint": result.fingerprint,
        "conditions_report": report.lines(),
        "ci": [stmt.to_json() | {"text": stmt.render()} for stmt in result.ci_statements],
        "districts": districts_json,
        "summary": {
            "total": result.constraints_total,
            "inequalities": result.inequality_count,
            "equalities": result.equality_count,
            "flagged": result.flagged_count,
        },
        "meta": result.meta,
    }


def report_to_json(report: ViolationReport) -> dict:
    zero = _frac_str(_ZERO)  # evaluate gives every slack row this one margin
    return {
        "tolerance": _frac_str(report.tolerance),
        "falsified": report.falsified,
        "ci": [
            {
                "statement": s.statement.render(),
                "status": s.status,
                "margin": _margin_str(s.margin, _frac_str),
            }
            for s in report.ci_statuses
        ],
        "constraints": [
            {
                "district": s.district_index,
                "text": s.text,
                "status": s.status,
                "margin": (None if s.margin is None else zero if s.margin is _ZERO
                           else _margin_str(s.margin, _frac_str)),
            }
            for s in report.constraint_statuses
        ],
    }
