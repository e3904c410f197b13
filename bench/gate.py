"""Output gate: every derive op and every check op is checked.

A derive op must reproduce the pinned counts and the digest of its canonical
constraint set. The digest is computed from the ``DerivationResult`` (each
constraint as relation, rhs and its terms keyed by the (w1, w2) row labels,
sorted), not from the JSON bytes, so a deliberate change of the JSON schema
does not trip it.

A check op must report the status counts that an independent oracle
computes from the table's exact probabilities. The oracle shares no code
with ``obscon.evaluate``: it takes the districts' members and row labels
from the derivation, recomputes the identifying product of conditionals
from its own copy of the graph and sums each row over a common denominator.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction
from math import lcm

from workloads import Expected, Graph


def constraint_rows(result):
    """The canonical constraint set: sorted (relation, rhs, keyed terms)."""
    rows = []
    for record in result.districts:
        if record.system is None:
            continue
        labels = record.system.row_labels
        for c in record.constraints:
            terms = sorted(
                (labels[row][0].items, labels[row][1].items, coeff)
                for row, coeff in c.terms
            )
            rows.append((c.relation, c.rhs, terms))
    rows.sort()
    return rows


def derivation_digest(result) -> str:
    ci = sorted((s.lhs, s.rhs, s.given) for s in result.ci_statements)
    payload = json.dumps({"constraints": constraint_rows(result), "ci": ci},
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def derivation_counts(result) -> dict[str, int]:
    constraints = [c for record in result.districts for c in record.constraints]
    return {
        "total": len(constraints),
        "inequalities": sum(1 for c in constraints if c.relation == "<="),
        "equalities": sum(1 for c in constraints if c.relation == "="),
        "flagged": sum(1 for c in constraints if c.flagged),
        "ci": len(result.ci_statements),
    }


def check_derivation(result, payload: str, expected: Expected | None) -> list[str]:
    """Mismatches between a derive op's outputs and the pinned expectation."""
    problems = []
    counts = derivation_counts(result)
    doc = json.loads(payload)
    summary = doc.get("summary", {}) if isinstance(doc, dict) else {}
    for key in ("total", "inequalities", "equalities", "flagged"):
        if key in summary and summary[key] != counts[key]:
            problems.append(f"JSON summary {key} {summary[key]} != result {counts[key]}")
    if expected is None:
        return problems
    for key, value in counts.items():
        want = getattr(expected, key)
        if value != want:
            problems.append(f"{key}: got {value}, pinned {want}")
    if expected.digest is not None:
        digest = derivation_digest(result)
        if digest != expected.digest:
            problems.append(f"digest {digest} != pinned {expected.digest}")
    return problems


# -- status oracle ------------------------------------------------------------


class _Marginals:
    def __init__(self, graph: Graph, probs):
        self.index = graph.index
        self.probs = probs
        self.cache: dict[tuple[str, ...], dict] = {}

    def prob(self, assignment: dict[str, int]) -> Fraction:
        names = tuple(sorted(assignment, key=self.index.__getitem__))
        table = self.cache.get(names)
        if table is None:
            cols = [self.index[n] for n in names]
            table = {}
            for config, p in self.probs.items():
                key = tuple(config[i] for i in cols)
                table[key] = table.get(key, 0) + p
            self.cache[names] = table
        return table.get(tuple(assignment[n] for n in names), Fraction(0))


def _star_factors(graph: Graph, members):
    order = graph.index
    pool = set(members)
    for m in members:
        pool |= {p for p in graph.parents(m) if p in order}
    return [
        (m, sorted((pool & graph.observed_ancestors(m)) - {m}, key=order.__getitem__))
        for m in members
    ]


def expected_statuses(result, table_graph: Graph, probs, tolerance: Fraction) -> Counter:
    """Status counts that ``evaluate`` must report for this table."""
    working = Graph.parse(result.derived_graph_text)
    marg = _Marginals(table_graph, probs)
    counts: Counter = Counter()
    for record in result.districts:
        if record.skipped or record.system is None:
            continue
        factors = _star_factors(working, record.members)
        stars = []
        for w1, w2 in record.system.row_labels:
            values = dict(w1.items)
            values.update(w2.items)
            star = Fraction(1)
            for member, cond in factors:
                given = {n: values[n] for n in cond}
                denom = marg.prob(given)
                if denom == 0:
                    star = None
                    break
                star *= marg.prob({**given, member: values[member]}) / denom
            stars.append(star)
        scale = lcm(*(s.denominator for s in stars if s is not None))
        ints = [None if s is None else s.numerator * (scale // s.denominator) for s in stars]
        for c in record.constraints:
            if any(ints[row] is None for row, _ in c.terms):
                counts["not_evaluable"] += 1
                continue
            gap = sum(coeff * ints[row] for row, coeff in c.terms) - c.rhs * scale
            if c.relation == "=":
                gap = abs(gap)
            # gap / scale > tolerance, without leaving the integers
            over = gap * tolerance.denominator > tolerance.numerator * scale
            counts["violated" if over else "satisfied"] += 1
    for stmt in result.ci_statements:
        margin = _ci_margin(marg, stmt)
        counts["ci_violated" if margin > tolerance else "ci_satisfied"] += 1
    return counts


def _ci_margin(marg: _Marginals, stmt) -> Fraction:
    """Largest |P(l,r,g) P(g) - P(l,g) P(r,g)| over all values of a CI statement.

    The term vanishes unless P(l,g) > 0 and P(r,g) > 0, so only the values
    that occur in the table's support are visited.
    """
    def cols(names):
        return [marg.index[n] for n in names]

    lhs, rhs, given = cols(stmt.lhs), cols(stmt.rhs), cols(stmt.given)
    sides: dict[tuple, tuple[set, set]] = {}
    for config, p in marg.probs.items():
        if p:
            ls, rs = sides.setdefault(tuple(config[i] for i in given), (set(), set()))
            ls.add(tuple(config[i] for i in lhs))
            rs.add(tuple(config[i] for i in rhs))
    margin = Fraction(0)
    for g, (ls, rs) in sides.items():
        g_vals = dict(zip(stmt.given, g))
        p_g = marg.prob(g_vals)
        for lv in ls:
            l_vals = dict(zip(stmt.lhs, lv))
            p_lg = marg.prob({**l_vals, **g_vals})
            for rv in rs:
                r_vals = dict(zip(stmt.rhs, rv))
                p_all = marg.prob({**l_vals, **r_vals, **g_vals})
                p_rg = marg.prob({**r_vals, **g_vals})
                margin = max(margin, abs(p_all * p_g - p_lg * p_rg))
    return margin


def reported_statuses(report_doc: dict) -> Counter:
    counts = Counter(entry["status"] for entry in report_doc["constraints"])
    counts.update("ci_" + entry["status"] for entry in report_doc["ci"])
    return counts


def check_report(report_doc: dict, expected: Counter, kind: str,
                 tolerance: Fraction) -> list[str]:
    problems = []
    got = reported_statuses(report_doc)
    if got != expected:
        problems.append(f"{kind} table: statuses {dict(got)} != oracle {dict(expected)}")
    if kind == "structural" and set(got) - {"satisfied", "ci_satisfied"}:
        problems.append(f"structural-model table not fully satisfied: {dict(got)}")
    if Fraction(report_doc["tolerance"]) != tolerance:
        problems.append(f"{kind} table: tolerance {report_doc['tolerance']} != {tolerance}")
    return problems


def tolerance_for(decimal: bool) -> Fraction:
    """The tolerance ``evaluate`` applies by default: 1e-9 for decimal tables."""
    return Fraction(1, 10 ** 9) if decimal else Fraction(0)
