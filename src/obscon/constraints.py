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
from itertools import chain
from operator import attrgetter, mul
from typing import Callable, NamedTuple, Sequence

from ._record import Record
from ._version import __version__ as _version
from .graph import HiddenDag, validate_conditions
from .graph import parse_graph  # noqa: F401  (bound here so a tracer can wrap it)
from .independence import CIStatement, enumerate_ci
from .polyhedra import HRep, VRep, simplex_product_hrep, v_to_h
from .response import (
    DEFAULT_COLUMN_LIMIT,
    FunctionalSystem,
    build_functional_system,
    district_shape,
    row_symmetries,
    star_keys,
    star_probability,  # noqa: F401  (bound here so a tracer can wrap it)
    star_scaled,
)
from .tables import JointTable, _approximate, _items_getter
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


class DistrictResult(NamedTuple):
    """One district's derivation; a skipped district has no system."""

    members: tuple[str, ...]
    c_degree: int
    system: FunctionalSystem | None
    constraints: tuple[Constraint, ...]

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

    def texts(self, dag: HiddenDag | None, mode: str) -> tuple[str, ...]:
        """Each constraint rendered as ``render`` does, labelling each row once."""
        term_texts = _TermTexts(_row_labels(self.system, dag, mode))
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

    A witness is the index of a vertex of the product, counted with the first
    block fastest, and the smallest such index at which the row attains its
    max; for an equality whose max equals its rhs, its min instead.

    The flags are relative to ``v_to_h``'s canonical chart, the affine hull's
    leftmost pivot columns in row-label order. Another representative of a
    row modulo the equalities can flag differently: over 12 charts, CHSH's
    24 facets gave 14 to 16 flagged rows.
    """
    dim = sum(block_sizes)
    if h.dim != dim:
        raise ValueError(f"H-representation has dim {h.dim}, blocks sum to {dim}")

    def extreme(coeffs, pick):
        """The row's ``pick`` (max or min) over the vertices, and the first
        vertex attaining it."""
        value = witness = start = 0
        stride = 1
        for size in block_sizes:
            seg = coeffs[start:start + size]
            best = pick(seg)
            value += best
            witness += seg.index(best) * stride
            start += size
            stride *= size
        return value, witness

    ineq_flags = []
    for coeffs, rhs in h.ineq:
        top, witness = extreme(coeffs, max)
        ineq_flags.append((True, witness) if top > rhs else (False, None))
    eq_flags = []
    for coeffs, rhs in h.eq:
        value, witness = extreme(coeffs, max)
        if value == rhs:
            value, witness = extreme(coeffs, min)
        eq_flags.append((True, witness) if value != rhs else (False, None))
    return ineq_flags, eq_flags


def _derive_district(dag: HiddenDag, district, column_limit, derived: dict) -> DistrictResult:
    """Build a district's system, convert its columns to facets, flag the rows.

    The route is read off the names and shape. A lone variable without
    observed parents (its ``district_shape`` has one name) is skipped: no
    system and no constraints. A ``full_product`` system (every member reads
    every external parent) spans the whole product of simplices: its HRep is
    ``simplex_product_hrep``'s closed form of the block sizes, which is
    ``v_to_h``'s HRep of its columns, and it is flagged and reused as a
    converted one. Every other system is converted by ``v_to_h``, the only
    route that enumerates columns.

    Every district gets the system ``FunctionalSystem(names, shape)``, which
    labels its rows with its own names. ``derived`` maps each
    ``district_shape`` met so far to its constraints: the build reads the
    graph only through the names and shape, ``row_symmetries`` reads the
    shape alone, and the facets, flags and terms are functions of the
    columns and blocks that the shape fixes, so a district of a known shape
    is neither built nor converted again. ``derive_all`` makes the dict,
    which lives for that one call.
    """
    names, shape = district_shape(dag, district)
    if len(names) == 1:
        return DistrictResult(district.members, district.c_degree, None, ())
    constraints = derived.get(shape)
    if constraints is None:
        system = build_functional_system(dag, district, column_limit)
        blocks = system.block_sizes
        if system.full_product:
            hrep = simplex_product_hrep(blocks)
        else:
            hrep = v_to_h(VRep(tuple(system.columns_as_points())),
                          symmetries=row_symmetries(system))
        constraints = derived[shape] = _to_constraints(hrep, blocks)
    return DistrictResult(district.members, district.c_degree,
                          FunctionalSystem(names, shape), constraints)


def _to_constraints(hrep: HRep, block_sizes: Sequence[int]) -> tuple[Constraint, ...]:
    """The rows of ``hrep`` as sparse constraints, flagged over the blocks."""
    ineq_flags, eq_flags = flag_nontrivial(hrep, block_sizes)
    constraints = []
    for relation, rows, flags in (("<=", hrep.ineq, ineq_flags), ("=", hrep.eq, eq_flags)):
        for (coeffs, rhs), (flagged, witness) in zip(rows, flags):
            terms = tuple((row, c) for row, c in enumerate(coeffs) if c != 0)
            constraints.append(Constraint(terms, relation, rhs, flagged, witness))
    return tuple(constraints)


def derive_all(dag: HiddenDag, options: DeriveOptions | None = None) -> DerivationResult:
    """Run the full derivation pipeline on a hidden-variable DAG.

    Districts of one local shape share one build and one conversion (see
    ``_derive_district``), through one dict made here, which lives for this
    call only: two calls on one graph each build and convert every distinct
    shape.
    """
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
    districts = dag.districts()
    merged = any(d.c_degree > 1 for d in districts)
    if merged:
        if not options.merge:
            raise ConditionsError(
                "some district has c-degree > 1; rerun with merge enabled "
                "(results are then valid but possibly incomplete)"
            )
        working, _ = merge_district_latents(dag)
        districts = working.districts()

    ci = tuple(enumerate_ci(working, options.max_ci_size))
    derived = {}
    records = tuple(
        _derive_district(working, district, options.column_limit, derived)
        for district in districts
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
        meta["timings"] = {"derive_seconds": time.monotonic() - t0,
                           "conversions": len(derived)}
    graph_text = dag.to_text()
    return DerivationResult(
        fingerprint=hashlib.sha256(graph_text.encode()).hexdigest(),
        graph_text=graph_text,
        derived_graph=working,
        merged=merged,
        ci_statements=ci,
        districts=records,
        meta=meta,
    )


# -- rendering -------------------------------------------------------------


def _row_labels(system: FunctionalSystem, dag: HiddenDag | None, mode: str) -> list[str]:
    """Every row's label over star or observable probability terms.

    An observable label is the row's identifying product, read from the same
    ``star_keys`` that ``evaluate`` reads.
    """
    if mode == "star":
        return [f"P*({w1.render()}{'|' + w2.render() if w2.items else ''})"
                for w1, w2 in system.row_labels]
    if mode != "observable":
        raise ValueError(f"unknown mode {mode!r}")
    if dag is None:
        raise ValueError("observable mode needs the graph")
    factors = []  # per identifying factor, its text in each row
    for cond, joint, _, joint_keys in star_keys(dag, system.members, system.row_labels):
        bar = "|" if cond else ""
        factors.append([f"P({joint[-1]}={key[-1]}{bar}{','.join(map('{}={}'.format, cond, key))})"
                        for key in joint_keys])
    return ["*".join(parts) for parts in zip(*factors)]


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
    return _join_terms(constraint, _TermTexts(_row_labels(system, dag, mode)))


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
    (``response.star_keys``). The district's constraints share one list of
    distinct (star, coefficient) pairs: ``take`` picks each pair's star out
    of the scaled star vector with the common denominator appended at index
    K, one past the last row, and ``coeffs`` holds the pairs' coefficients;
    a nonzero rhs is the pair (K, -rhs). A table then costs one product per
    pair. Each entry of ``rows`` is one constraint as (pair getter, is an
    equality, bitmask of its star rows, its satisfied record, its
    not-evaluable record); the getter picks the constraint's products, whose
    sum is its value minus its rhs, times the denominator.
    """

    district_index: int
    stars: tuple
    take: Callable
    coeffs: tuple
    rows: tuple


def _check_plan(index: int, record: DistrictResult, dag: HiddenDag) -> CheckPlan:
    """The plan of the district ``result.districts[index]`` of a derivation on ``dag``."""
    scale_row = record.system.n_rows  # the denominator's index in the scaled stars
    terms = [c.terms + (((scale_row, -c.rhs),) if c.rhs else ()) for c in record.constraints]
    distinct = dict.fromkeys(chain.from_iterable(terms))
    slot = dict(zip(distinct, range(len(distinct))))  # (star row, coeff) -> its product
    picked, coeffs = zip(*distinct) if distinct else ((), ())
    bits = [0 if row == scale_row else 1 << row for row in picked]
    rows = []
    for constraint, text, pairs in zip(record.constraints, record.texts(None, "star"), terms):
        slots = tuple(map(slot.__getitem__, pairs))
        rows.append((_items_getter(slots), constraint.relation == "=",
                     sum(map(bits.__getitem__, slots)),
                     ConstraintStatus(index, constraint, text, "satisfied", _ZERO),
                     ConstraintStatus(index, constraint, text, "not_evaluable", None)))
    stars = star_keys(dag, record.members, record.system.row_labels)
    return CheckPlan(index, stars, _items_getter(picked), coeffs, tuple(rows))


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
        status = attrgetter("status")
        return ("violated" in map(status, self.constraint_statuses)
                or "violated" in map(status, self.ci_statuses))

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
    check and kept. The star terms come from the table's cached marginals
    by the plan's keys, over one common denominator; each distinct
    (star, coefficient) pair of the district is multiplied once, and a
    constraint is the integer sum of its pairs' products. A row that is
    slack or not evaluable gets the plan's prebuilt record, and only a
    positive margin is a new Fraction. ``tolerance`` defaults to 1e-9 for
    a table read from decimals and 0 otherwise; a negative one raises
    ``ValueError``, and so does a table whose variables or cardinalities
    differ from the graph's observed ones.

    Known gap (ROADMAP item 1): the star terms use ``star_factors``, which
    conditions each member on its observed ancestors among the district's
    members and their observed parents. A Bell-type star is then the
    product P(a|x)·P(b|y), so no district row of CHSH, I3322 or the
    tripartite Bell scenario can come out violated. The fix waits for a
    benchmark change that also rewrites the copy of this rule in
    ``bench/gate.py``.
    """
    if table.variables != dag.observed_names():
        raise ValueError("table variables do not match the graph")
    if tuple(table.cardinalities) != tuple(map(dag.cardinality, table.variables)):
        raise ValueError("table cardinalities do not match the graph")
    if tolerance is None:
        tolerance = Fraction(1, 10 ** 9) if table.decimal_source else Fraction(0)
    elif tolerance < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tolerance}")
    tol_num, tol_den = tolerance.numerator, tolerance.denominator
    statuses = []
    add = statuses.append
    make = ConstraintStatus._make  # skips the keyword-capable __new__
    for index, stars, take, coeffs, rows in result.check_plans:
        scale, scaled = star_scaled(table, stars)
        limit = tol_num * scale
        missing = 0  # bitmask of the rows that are not evaluable
        if None in scaled:
            for row, value in enumerate(scaled):
                if value is None:
                    missing |= 1 << row
                    scaled[row] = 0
        scaled.append(scale)
        products = list(map(mul, coeffs, take(scaled)))
        for get, is_eq, mask, satisfied, unevaluable in rows:
            if mask & missing:
                add(unevaluable)
                continue
            # the row's value minus its rhs, times scale
            gap = sum(get(products))
            if is_eq:
                gap = abs(gap)
            if gap <= 0:  # most rows are slack
                add(satisfied)
            else:
                status = "violated" if gap * tol_den > limit else "satisfied"
                add(make((index, satisfied.constraint, satisfied.text, status,
                          Fraction(gap, scale))))

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
    """The derivation record as a JSON document, schema 3.

    Each district's ``system`` gives its ``members``, ``external_parents``
    and ``row_labels`` (the (w1, w2) of each row of B). B itself is not
    written: it is fixed by the ``district_shape`` of the district's
    members in ``derived_graph``, and ``FunctionalSystem.columns`` rebuilds
    it from that. A constraint reads
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
            stars = record.texts(None, "star")
            observable = record.texts(result.derived_graph, "observable")
            for doc, star, obs in zip(entry["constraints"], stars, observable):
                doc.update(text_star=star, text_observable=obs)
        districts_json.append(entry)
    return {
        "schema": 3,
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
                "statement": statement.render(),
                "status": status,
                "margin": _margin_str(margin, _frac_str),
            }
            for statement, status, margin in report.ci_statuses
        ],
        "constraints": [
            {
                "district": index,
                "text": text,
                "status": status,
                "margin": (None if margin is None else zero if margin is _ZERO
                           else _margin_str(margin, _frac_str)),
            }
            for index, _, text, status, margin in report.constraint_statuses
        ],
    }
