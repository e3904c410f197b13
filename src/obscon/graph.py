"""Hidden-variable DAGs: parsing, structural queries, districts, validity conditions.

Variables are either observed (discrete, with a cardinality >= 2) or latent
(no cardinality; arbitrary state space). The declaration order in the graph
file is the canonical order; every configuration enumeration downstream
derives from it, so outputs are reproducible bit for bit.
"""

from __future__ import annotations

import heapq
from typing import Iterable, NamedTuple, Sequence


class GraphParseError(ValueError):
    """Raised on malformed graph text; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class GraphStructureError(ValueError):
    """Raised when a graph violates a structural invariant (cycle, bad edge)."""


class _VariableFields(NamedTuple):
    name: str
    kind: str  # "observed" | "latent"
    cardinality: int | None = None


class Variable(_VariableFields):
    """A declared variable; its kind and cardinality are checked on construction."""

    __slots__ = ()

    def __new__(cls, name: str, kind: str, cardinality: int | None = None):
        if kind not in ("observed", "latent"):
            raise GraphStructureError(f"unknown variable kind {kind!r}")
        if kind == "observed":
            if cardinality is None or cardinality < 2:
                raise GraphStructureError(
                    f"observed variable {name!r} needs cardinality >= 2"
                )
        elif cardinality is not None:
            raise GraphStructureError(
                f"latent variable {name!r} must not carry a cardinality"
            )
        return super().__new__(cls, name, kind, cardinality)

    @classmethod
    def _make(cls, iterable) -> "Variable":
        return cls(*iterable)  # checked, as is every ``_replace``

    @property
    def observed(self) -> bool:
        return self.kind == "observed"


class District(NamedTuple):
    """A confounded component: observed members plus the latents over them.

    ``members`` and ``latents`` are tuples sorted by canonical variable index.
    """

    members: tuple[str, ...]
    latents: tuple[str, ...]

    @property
    def c_degree(self) -> int:
        return max(1, len(self.latents))


class HiddenDag:
    """Immutable DAG over observed and latent variables.

    All queries are pure; instances are safe to share between threads or
    processes. Equality compares the variable tuple (order included) and the
    edge set.
    """

    def __init__(self, variables: Sequence[Variable], edges: Iterable[tuple[str, str]]):
        self.variables: tuple[Variable, ...] = tuple(variables)
        self._by_name = {}
        for v in self.variables:
            if v.name in self._by_name:
                raise GraphStructureError(f"duplicate variable name {v.name!r}")
            self._by_name[v.name] = v
        self._index = {v.name: i for i, v in enumerate(self.variables)}

        edge_list = []
        edge_set = set()
        for parent, child in edges:
            for end in (parent, child):
                if end not in self._by_name:
                    raise GraphStructureError(f"edge endpoint {end!r} is not declared")
            if parent == child:
                raise GraphStructureError(f"self-loop on {parent!r}")
            if (parent, child) in edge_set:
                raise GraphStructureError(f"duplicate edge {parent!r} -> {child!r}")
            edge_set.add((parent, child))
            edge_list.append((parent, child))
        self.edges: tuple[tuple[str, str], ...] = tuple(
            sorted(edge_list, key=lambda e: (self._index[e[0]], self._index[e[1]]))
        )

        self._parents = {v.name: [] for v in self.variables}
        self._children = {v.name: [] for v in self.variables}
        for parent, child in self.edges:
            self._parents[child].append(parent)
            self._children[parent].append(child)

        self._topo = self._topological_sort()  # raises on cycles
        self._conditions: ConditionReport | None = None  # validate_conditions fills it

    # -- basic queries -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, HiddenDag):
            return NotImplemented
        return self.variables == other.variables and set(self.edges) == set(other.edges)

    def __hash__(self):
        return hash((self.variables, frozenset(self.edges)))

    def __repr__(self):
        obs = len(self.observed_names())
        lat = len(self.latent_names())
        return f"HiddenDag({obs} observed, {lat} latent, {len(self.edges)} edges)"

    def variable(self, name: str) -> Variable:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def index(self, name: str) -> int:
        self.variable(name)
        return self._index[name]

    def is_observed(self, name: str) -> bool:
        return self.variable(name).observed

    def cardinality(self, name: str) -> int:
        v = self.variable(name)
        if not v.observed:
            raise ValueError(f"latent variable {name!r} has no cardinality")
        return v.cardinality

    def observed_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.observed)

    def latent_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if not v.observed)

    def parents(self, name: str) -> tuple[str, ...]:
        self.variable(name)
        return tuple(self._parents[name])

    def children(self, name: str) -> tuple[str, ...]:
        self.variable(name)
        return tuple(self._children[name])

    def observed_children(self, name: str) -> tuple[str, ...]:
        return tuple(c for c in self.children(name) if self.is_observed(c))

    def sort_observed(self, names: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(names, key=self._index.__getitem__))

    # -- spec operations ------------------------------------------------

    def observed_parents(self, s: Iterable[str]) -> frozenset[str]:
        """Union of observed parents over ``s``; may intersect ``s`` itself."""
        result = set()
        for name in s:
            if not self.is_observed(name):
                raise ValueError(f"{name!r} is not an observed variable")
            result.update(p for p in self._parents[name] if self.is_observed(p))
        return frozenset(result)

    def observed_ancestors(self, s: Iterable[str]) -> frozenset[str]:
        """Reflexive closure of the observed-parent relation over ``s``."""
        frontier = list(s)
        for name in frontier:
            if not self.is_observed(name):
                raise ValueError(f"{name!r} is not an observed variable")
        seen = set(frontier)
        while frontier:
            name = frontier.pop()
            for p in self._parents[name]:
                if self.is_observed(p) and p not in seen:
                    seen.add(p)
                    frontier.append(p)
        return frozenset(seen)

    def ancestors(self, s: Iterable[str]) -> frozenset[str]:
        """Reflexive ancestor closure through all variables, latents included."""
        frontier = [self.variable(n).name for n in s]
        seen = set(frontier)
        while frontier:
            name = frontier.pop()
            for p in self._parents[name]:
                if p not in seen:
                    seen.add(p)
                    frontier.append(p)
        return frozenset(seen)

    def districts(self) -> list[District]:
        """Partition of the observed variables by latent-origin connectivity.

        Drop every edge that does not leave a latent variable; the connected
        components of the observed set are the districts, listed by smallest
        member index, with members sorted canonically.
        """
        observed = self.observed_names()
        dsu = {name: name for name in observed}

        def find(x):
            while dsu[x] != x:
                dsu[x] = dsu[dsu[x]]
                x = dsu[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                dsu[ra] = rb

        for u in self.latent_names():
            ch = self.observed_children(u)
            for a, b in zip(ch, ch[1:]):
                union(a, b)
        groups: dict[str, list[str]] = {}
        for name in observed:
            groups.setdefault(find(name), []).append(name)

        result = []
        for members in groups.values():
            members = self.sort_observed(members)
            latents = tuple(
                u for u in self.latent_names() if set(self.observed_children(u)) & set(members)
            )
            result.append(District(members=members, latents=latents))
        result.sort(key=lambda d: self._index[d.members[0]])
        return result

    def c_degree(self, district: District) -> int:
        if district not in self.districts():
            raise ValueError(f"{district} is not a district of this graph")
        return district.c_degree

    def graph_c_degree(self) -> int:
        return max((d.c_degree for d in self.districts()), default=1)

    def topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm, preferring latents and then declaration order.

        On graphs with exogenous latents this puts every latent before every
        observed variable.
        """
        return self._topo

    def _topological_sort(self) -> tuple[str, ...]:
        in_degree = {v.name: len(self._parents[v.name]) for v in self.variables}
        ready = [
            (v.observed, self._index[v.name], v.name)
            for v in self.variables
            if in_degree[v.name] == 0
        ]
        heapq.heapify(ready)
        order = []
        while ready:
            _, _, name = heapq.heappop(ready)
            order.append(name)
            for child in self._children[name]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    heapq.heappush(
                        ready, (self.is_observed(child), self._index[child], child)
                    )
        if len(order) != len(self.variables):
            raise GraphStructureError("graph contains a cycle")
        return tuple(order)

    def to_text(self) -> str:
        """Serialize back to the input file format, preserving canonical order."""
        lines = []
        for v in self.variables:
            if v.observed:
                lines.append(f"var {v.name} {v.cardinality}")
            else:
                lines.append(f"latent {v.name}")
        for parent, child in self.edges:
            lines.append(f"edge {parent} {child}")
        return "\n".join(lines) + "\n"


class ConditionReport(NamedTuple):
    """Outcome of the structural validity check.

    ``violations`` holds (condition, latent, message) triples; an empty list
    means that latents are exogenous and their observed-child sets are
    distinct with at least two members each.
    """

    violations: tuple[tuple[str, str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        if self.ok:
            return ["conditions: ok"]
        return [f"{cond} violated by {who}: {msg}" for cond, who, msg in self.violations]


def validate_conditions(dag: HiddenDag) -> ConditionReport:
    """Check that latents are exogenous (C1) and non-nested with >= 2 observed children (C2).

    A graph is immutable, so its report is computed once and kept on it.
    """
    if dag._conditions is None:
        dag._conditions = _check_conditions(dag)
    return dag._conditions


def _check_conditions(dag: HiddenDag) -> ConditionReport:
    violations = []
    latents = dag.latent_names()
    for u in latents:
        if dag.parents(u):
            violations.append(
                ("C1", u, f"latent has parents {', '.join(dag.parents(u))}")
            )
    child_sets = {u: frozenset(dag.observed_children(u)) for u in latents}
    for u in latents:
        if len(child_sets[u]) < 2:
            violations.append(
                ("C2", u, f"latent has {len(child_sets[u])} observed children (need >= 2)")
            )
            continue
        for w in latents:
            if w != u and child_sets[u] <= child_sets[w]:
                violations.append(
                    ("C2", u, f"observed children are contained in those of {w}")
                )
                break
    return ConditionReport(tuple(violations))


def parse_graph(text: str) -> HiddenDag:
    """Parse the line-oriented graph format.

    ``var <name> <cardinality>`` declares an observed variable, ``latent
    <name>`` a latent one, ``edge <parent> <child>`` a directed edge. ``#``
    starts a comment; declaration order fixes the canonical variable order.
    """
    variables: list[Variable] = []
    edges: list[tuple[str, str]] = []
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0]
        try:
            if keyword == "var":
                if len(fields) != 3:
                    raise GraphParseError("expected 'var <name> <cardinality>'", lineno)
                name, card = fields[1], fields[2]
                # isdigit alone admits digits such as '²' that int() rejects
                if not (card.isascii() and card.isdigit()) or int(card) < 2:
                    raise GraphParseError(
                        f"observed variable {name!r} needs an integer cardinality >= 2",
                        lineno,
                    )
                variables.append(Variable(name, "observed", int(card)))
            elif keyword == "latent":
                if len(fields) != 2:
                    raise GraphParseError(
                        "expected 'latent <name>' (latents carry no cardinality)", lineno
                    )
                variables.append(Variable(fields[1], "latent"))
            elif keyword == "edge":
                if len(fields) != 3:
                    raise GraphParseError("expected 'edge <parent> <child>'", lineno)
                edges.append((fields[1], fields[2]))
            else:
                raise GraphParseError(f"unknown directive {keyword!r}", lineno)
        except GraphStructureError as exc:
            raise GraphParseError(str(exc), lineno) from exc
        if keyword in ("var", "latent"):
            name = fields[1]
            if name in names:
                raise GraphParseError(f"duplicate variable name {name!r}", lineno)
            names.add(name)
    if not variables:
        raise GraphParseError("graph declares no variables")
    try:
        return HiddenDag(variables, edges)
    except GraphStructureError as exc:
        raise GraphParseError(str(exc)) from exc


def load_graph(path) -> HiddenDag:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())
