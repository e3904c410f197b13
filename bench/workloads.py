"""Benchmark workloads: the graphs, the seeded tables and the pinned outputs.

Everything here is independent of obscon. The benchmark hands the program
only graph text and CSV text; the structured ``Graph`` below is the
benchmark's own copy, used to generate tables and by the status oracle in
``gate.py``.

The graphs do not depend on ``--seed``: the seed draws the tables that the
check ops evaluate. A benchmark is judged steady by the spread of each
metric over runs with different seeds, so a seed must not change how much
work a derive op does (the CI cost of random 14-variable DAGs varies about 2x by
structure). ``--graph-seed`` draws another ``sparse14`` structure, for
confirming a CI-enumeration claim on a second graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product


@dataclass(frozen=True)
class Graph:
    """A hidden-variable DAG as plain data: observed (name, card), latents, edges."""

    observed: tuple[tuple[str, int], ...]
    latents: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    @classmethod
    def parse(cls, text: str) -> "Graph":
        observed, latents, edges = [], [], []
        for raw in text.splitlines():
            fields = raw.split("#", 1)[0].split()
            if not fields:
                continue
            if fields[0] == "var":
                observed.append((fields[1], int(fields[2])))
            elif fields[0] == "latent":
                latents.append(fields[1])
            elif fields[0] == "edge":
                edges.append((fields[1], fields[2]))
            else:
                raise ValueError(f"unknown directive {fields[0]!r}")
        return cls(tuple(observed), tuple(latents), tuple(edges))

    def text(self) -> str:
        lines = [f"var {name} {card}" for name, card in self.observed]
        lines += [f"latent {name}" for name in self.latents]
        lines += [f"edge {p} {c}" for p, c in self.edges]
        return "\n".join(lines) + "\n"

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.observed)

    @property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @property
    def cards(self) -> tuple[int, ...]:
        return tuple(card for _, card in self.observed)

    def parents(self, name: str) -> tuple[str, ...]:
        return tuple(p for p, c in self.edges if c == name)

    def observed_ancestors(self, name: str) -> set[str]:
        """Reflexive closure of the observed-parent relation."""
        observed = set(self.names)
        seen, frontier = {name}, [name]
        while frontier:
            for p in self.parents(frontier.pop()):
                if p in observed and p not in seen:
                    seen.add(p)
                    frontier.append(p)
        return seen

    def topological_observed(self) -> list[str]:
        order, placed = [], set(self.latents)
        while len(order) < len(self.observed):
            for name in self.names:
                if name not in placed and all(p in placed for p in self.parents(name)):
                    order.append(name)
                    placed.add(name)
        return order


I3322 = Graph.parse("""\
var X 3
var Y 3
var A 2
var B 2
latent U
edge X A
edge Y B
edge U A
edge U B
""")

CHSH = Graph.parse("""\
var X 2
var Y 2
var A 2
var B 2
latent U
edge X A
edge Y B
edge U A
edge U B
""")

# the six-variable, two-district example with a c-degree-2 district; a copy,
# so that a change to the package's bundled examples cannot move the benchmark
MIXED_CDEGREE = Graph.parse("""\
var V1 2
var V2 2
var V3 2
var V4 2
var V5 2
var V6 2
latent U1
latent U2
latent U3
edge V1 V2
edge V2 V3
edge V6 V3
edge V3 V4
edge V4 V5
edge V1 V6
edge U1 V2
edge U1 V4
edge U2 V1
edge U2 V6
edge U2 V3
edge U3 V4
edge U3 V5
""")

IV = Graph.parse("""\
var Z 2
var X 2
var Y 2
latent U
edge Z X
edge X Y
edge U X
edge U Y
""")


def sparse_graph(graph_seed: int, n: int = 14, n_latent: int = 3) -> Graph:
    """Sparse binary DAG: each variable has 1-2 parents among the previous four.

    Each latent confounds a parent-child pair of one-parent variables, and
    the pairs are disjoint, so every district has c-degree 1 and at most two
    members (at most 16 response columns).
    """
    rng = random.Random(graph_seed)
    while True:
        parents = {0: []}
        for i in range(1, n):
            candidates = list(range(max(0, i - 4), i))
            k = rng.choice((1, 2)) if len(candidates) >= 2 else 1
            parents[i] = sorted(rng.sample(candidates, k))
        pairs = [(p, c) for c in range(n) for p in parents[c]
                 if len(parents[c]) == 1 and len(parents[p]) == 1]
        rng.shuffle(pairs)
        chosen, used = [], set()
        for p, c in pairs:
            if p not in used and c not in used:
                chosen.append((p, c))
                used |= {p, c}
        if len(chosen) >= n_latent:
            break
    name = "V{:02d}".format  # zero-padded, so name order is index order
    edges = [(name(p + 1), name(c + 1)) for c in range(n) for p in parents[c]]
    for j, (p, c) in enumerate(sorted(chosen[:n_latent])):
        edges += [(f"U{j + 1}", name(p + 1)), (f"U{j + 1}", name(c + 1))]
    return Graph(
        tuple((name(i + 1), 2) for i in range(n)),
        tuple(f"U{j + 1}" for j in range(n_latent)),
        tuple(edges),
    )


# -- seeded tables ------------------------------------------------------------


def _configs(graph: Graph):
    return list(product(*(range(card) for card in graph.cards)))


def _positive_simplex_point(rng: random.Random, size: int, top: int = 997):
    nums = [rng.randint(1, top) for _ in range(size)]
    total = sum(nums)
    return [Fraction(v, total) for v in nums]


def structural_table(graph: Graph, rng: random.Random, latent_card: int = 3):
    """Exact joint of a random structural model on the graph, full support.

    Latents get ``latent_card`` states; every observed variable gets a
    strictly positive conditional table over all its parents, latents
    included. Such a table lies in the model, so every constraint holds.
    """
    latent_dists = {u: _positive_simplex_point(rng, latent_card) for u in graph.latents}
    cards = dict(graph.observed)
    cpds = {}
    for w in graph.names:
        parents = graph.parents(w)
        sizes = [cards.get(p, latent_card) for p in parents]
        cpds[w] = (parents, {
            combo: _positive_simplex_point(rng, cards[w])
            for combo in product(*(range(s) for s in sizes))
        })
    order = graph.topological_observed()
    joint: dict[tuple[int, ...], Fraction] = {}
    for latent_combo in product(range(latent_card), repeat=len(graph.latents)):
        base = Fraction(1)
        for u, value in zip(graph.latents, latent_combo):
            base *= latent_dists[u][value]
        values = dict(zip(graph.latents, latent_combo))
        for config in _configs(graph):
            values.update(zip(graph.names, config))
            weight = base
            for w in order:
                parents, table = cpds[w]
                weight *= table[tuple(values[p] for p in parents)][values[w]]
            joint[config] = joint.get(config, Fraction(0)) + weight
    return joint


def dense_table(graph: Graph, rng: random.Random):
    """Random full-support table; usually violates some constraint."""
    configs = _configs(graph)
    weights = [rng.randint(1, 10 ** 6) for _ in configs]
    total = sum(weights)
    return {c: Fraction(w, total) for c, w in zip(configs, weights)}


def sparse_table(graph: Graph, rng: random.Random):
    """Random table on a few configurations; most rows are not evaluable."""
    # four rows: more would make a 14-variable check op take over 5 s
    k = 4
    chosen = set()
    while len(chosen) < k:
        chosen.add(tuple(rng.randrange(card) for card in graph.cards))
    weights = {c: rng.randint(1, 1000) for c in sorted(chosen)}
    total = sum(weights.values())
    return {c: Fraction(w, total) for c, w in weights.items()}


DECIMAL_PLACES = 12


def round_to_decimals(probs):
    """Round to ``DECIMAL_PLACES`` places, keeping the exact sum 1.

    Largest remainders get the leftover units, so the decimal CSV parses
    back to a valid table.
    """
    scale = 10 ** DECIMAL_PLACES
    floors = {c: (p.numerator * scale) // p.denominator for c, p in probs.items()}
    spare = scale - sum(floors.values())
    by_remainder = sorted(probs, key=lambda c: (floors[c] - probs[c] * scale, c))
    for c in by_remainder[:spare]:
        floors[c] += 1
    return {c: Fraction(u, scale) for c, u in floors.items() if u}


def table_csv(graph: Graph, probs, decimal: bool = False) -> str:
    lines = [",".join(graph.names) + ",prob"]
    for config in sorted(probs):
        p = probs[config]
        if decimal:
            whole, frac = divmod(p.numerator * 10 ** DECIMAL_PLACES // p.denominator,
                                 10 ** DECIMAL_PLACES)
            text = f"{whole}.{frac:0{DECIMAL_PLACES}d}"
        else:
            text = f"{p.numerator}/{p.denominator}"
        lines.append(",".join(map(str, config)) + "," + text)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Table:
    kind: str
    csv: str
    probs: dict
    decimal: bool


_KIND_SOURCE = {
    "structural": structural_table,
    "dense": dense_table,
    "sparse": sparse_table,
    "decimal": structural_table,  # a rounded model table: the tolerance decides
    "decimal_sparse": sparse_table,
}


def make_table(graph: Graph, kind: str, rng: random.Random) -> Table:
    probs = _KIND_SOURCE[kind](graph, rng)
    decimal = kind.startswith("decimal")
    if decimal:
        probs = round_to_decimals(probs)
    return Table(kind, table_csv(graph, probs, decimal), probs, decimal)


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    """Pinned outputs of one derivation: counts and the constraint-set digest."""

    total: int
    inequalities: int
    equalities: int
    flagged: int
    ci: int
    digest: str | None  # None: counts only


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: Graph
    merge: bool
    table_kinds: tuple[str, ...]  # cycled over the check ops
    checks: int  # check ops per run; fixed, so the tail percentile is too
    rounds: int  # a run is this many rounds of one derive op and its share of checks
    expected: Expected | None  # None: not pinned (another --graph-seed)

    def tables(self, seed: int) -> list[Table]:
        rng = random.Random(seed)
        return [
            make_table(self.graph, self.table_kinds[i % len(self.table_kinds)], rng)
            for i in range(self.checks)
        ]


FOUR_KINDS = ("structural", "dense", "sparse", "decimal")

SPARSE_GRAPH_SEED = 0

WORKLOADS = {
    "i3322": Workload(
        "i3322",
        "DD-bound: one 36-row district whose 64 columns span a 16-dimensional cone",
        I3322, False, FOUR_KINDS, 60, 3,
        Expected(705, 684, 21, 688, 2,
                 "e4ba69ff6f488b83c2302f9b785b055a81f18d767341652f45ca794404b72e15"),
    ),
    "sparse14": Workload(
        "sparse14",
        "CI-bound: 14 binary variables, 11 small districts, many tiny DD calls",
        sparse_graph(SPARSE_GRAPH_SEED), False, ("sparse", "decimal_sparse"), 3, 3,
        Expected(102, 76, 26, 12, 9,
                 "77eb4023eaed35e63375e7456db1ecb70c4fe70158427cf7be3111f21fef6899"),
    ),
    "mixed_check": Workload(
        "mixed_check",
        "serialization and evaluation of one merged derivation over four table kinds",
        MIXED_CDEGREE, True, FOUR_KINDS, 60, 6,
        Expected(1161, 1144, 17, 1126, 2,
                 "339e15a1d67999d0ee611ea336c0eb4aaba01b6b2959bdb960c382cab6adf30a"),
    ),
}


def sparse14_for(graph_seed: int) -> Workload:
    """The sparse14 workload on another structure; its outputs are not pinned."""
    base = WORKLOADS["sparse14"]
    if graph_seed == SPARSE_GRAPH_SEED:
        return base
    return replace(base, graph=sparse_graph(graph_seed), expected=None)
