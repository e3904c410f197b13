"""Response-function enumeration and the per-district linear system p = B r.

Conventions (all enumeration is deterministic and derives from the canonical
variable order):

* Configurations of an ordered variable list enumerate with the FIRST
  variable moving fastest (odometer with the leftmost wheel spinning).
* A response function of W with observed parents (P1..Pk), in variable
  order, is the tuple of its outputs on the parent configurations ranked
  with the LAST parent fastest. Its level is that tuple's index in the
  order of ``product(range(|W|), repeat=D)``, D the number of parent
  configurations: a base-|W| numeral read most-significant digit first.
* Rows of B are (w1, w2) pairs, grouped by w2 configuration (w2 outermost).
* Columns of B are joint response assignments, grouped by the row of the
  first w2 block they are compatible with (in row order) and ordered within a
  group by joint response level with the first member's level fastest.

The column convention reproduces the ordering used in published derivations
for the binary instrumental-variable system.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import mul
from typing import NamedTuple, Sequence

from .graph import District, HiddenDag, validate_conditions
from .tables import JointTable

DEFAULT_COLUMN_LIMIT = 10_000_000


class ColumnLimitError(RuntimeError):
    """The joint response space is larger than the configured column limit;
    ``estimate`` is its size, or None when that is over the limit squared."""

    def __init__(self, estimate: int | None, limit: int):
        self.estimate = estimate
        self.limit = limit
        needs = f"more than {limit}" if estimate is None else estimate
        super().__init__(
            f"district needs {needs} response columns, over the limit of {limit}"
        )


class Configuration(NamedTuple):
    """An assignment of values to an ordered tuple of observed variables."""

    items: tuple[tuple[str, int], ...]

    @classmethod
    def make(cls, names: Sequence[str], values: Sequence[int]) -> "Configuration":
        return cls(tuple(zip(names, values)))

    def __getitem__(self, name: str) -> int:
        for n, v in self.items:
            if n == name:
                return v
        raise KeyError(name)

    def as_dict(self) -> dict[str, int]:
        return dict(self.items)

    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.items)

    def render(self) -> str:
        return ",".join(f"{n}={v}" for n, v in self.items)


def enumerate_configs(names: Sequence[str], cards: Sequence[int]) -> list[Configuration]:
    """All configurations, first variable fastest. One empty config for no names."""
    return [
        Configuration.make(names, values[::-1])
        for values in product(*[range(c) for c in reversed(cards)])
    ]


class FunctionalSystem(NamedTuple):
    """The labeled 0/1 system p = B r for one district, stored sparsely.

    Column c of B has a single 1 in each w2 block, in the block's row
    ``col_outcomes[c][block]`` (an index into the block's w1 configurations).
    """

    district: District
    row_labels: tuple[tuple[Configuration, Configuration], ...]
    col_labels: tuple[tuple[int, ...], ...]  # one response level per member
    col_outcomes: tuple[tuple[int, ...], ...]  # one w1-row index per w2 block

    @property
    def n_rows(self) -> int:
        return len(self.row_labels)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    @property
    def w2_order(self) -> tuple[str, ...]:
        """The district's external parents, as each row's w2 lists them."""
        return tuple(name for name, _ in self.row_labels[0][1].items)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        """Rows per w2 block; every block lists all w1 configurations."""
        n_blocks = len(self.col_outcomes[0])
        return (self.n_rows // n_blocks,) * n_blocks

    def columns_as_points(self) -> list[tuple[int, ...]]:
        """Columns of B as 0/1 vectors; the V-representation generators."""
        n1 = self.block_sizes[0]
        points = []
        for outcomes in self.col_outcomes:
            point = [0] * self.n_rows
            for block, outcome in enumerate(outcomes):
                point[block * n1 + outcome] = 1
            points.append(tuple(point))
        return points

    def to_json(self) -> dict:
        return {
            "members": list(self.district.members),
            "external_parents": list(self.w2_order),
            "row_labels": [
                {"w1": a.as_dict(), "w2": b.as_dict()} for a, b in self.row_labels
            ],
            "col_labels": [list(levels) for levels in self.col_labels],
            "col_outcomes": [list(outcomes) for outcomes in self.col_outcomes],
        }


def district_shape(dag: HiddenDag, district: District) -> tuple[tuple[str, ...], tuple]:
    """A district's names and its local shape: what its system is built from.

    ``names`` is the members, then the external parents, each in canonical
    order. ``shape`` is the member count, the cardinality of each name, each
    member's observed parents (its response function's inputs, in canonical
    order) as positions in ``names``, and the members' topological order as
    positions. ``build_functional_system`` and ``row_symmetries`` read
    nothing else of the graph, so districts of one shape have one system up
    to names, and ``derive_all`` builds and converts each shape once.
    """
    members = district.members
    parents = [dag.sort_observed(dag.observed_parents([m])) for m in members]
    names = members + dag.sort_observed({p for ps in parents for p in ps} - set(members))
    position = {name: i for i, name in enumerate(names)}
    return names, (len(members), tuple(map(dag.cardinality, names)),
                   tuple(tuple(map(position.get, ps)) for ps in parents),
                   tuple(position[m] for m in dag.topological_order() if m in members))


def shape_row_labels(names: tuple[str, ...], shape: tuple) -> tuple:
    """The (w1, w2) label of each row of a system of ``district_shape``'s
    names and shape: w2 outermost, each group listing every w1."""
    n, cards = shape[0], shape[1]
    w1_configs = enumerate_configs(names[:n], cards[:n])
    return tuple((w1c, w2c) for w2c in enumerate_configs(names[n:], cards[n:])
                 for w1c in w1_configs)


def build_functional_system(dag: HiddenDag, district: District,
                            column_limit: int = DEFAULT_COLUMN_LIMIT) -> FunctionalSystem:
    """Construct the labeled system p = B r for a c-degree-1 district.

    The graph is read for its structural conditions and the district's
    ``district_shape``; positions and cardinalities come from the shape.
    """
    report = validate_conditions(dag)
    if not report.ok:
        raise ValueError("graph violates the structural conditions; normalize it first")
    if district.c_degree > 1:
        raise ValueError(
            f"district {{{', '.join(district.members)}}} has c-degree "
            f"{district.c_degree}; merge its latents first"
        )
    names, shape = district_shape(dag, district)
    n, cards, parents, order = shape
    domains = [math.prod(cards[p] for p in ps) for ps in parents]
    # each factor |W| ** e has |W| >= 2, so an exponent past the limit's bit
    # length is over the limit alone: stop before computing a huge power,
    # and name the count exactly only up to the limit squared
    n_cols = 1
    for card, domain in zip(cards[:n], domains):
        if domain > column_limit.bit_length() or n_cols > column_limit ** 2:
            raise ColumnLimitError(None, column_limit)
        n_cols *= card ** domain
    if n_cols > column_limit:
        raise ColumnLimitError(n_cols if n_cols <= column_limit ** 2 else None, column_limit)

    # a member's functions in level order, each the tuple of its outputs by
    # parent configuration; both orders are product's, last place fastest
    tables = [list(product(range(card), repeat=domain))
              for card, domain in zip(cards[:n], domains)]
    ranks = [{config: j for j, config in enumerate(product(*[range(cards[p]) for p in ps]))}
             for ps in parents]
    row_labels = shape_row_labels(names, shape)
    n1 = math.prod(cards[:n])
    w2_values = [w2c.values() for _, w2c in row_labels[::n1]]  # one per w2 block
    # a w1 configuration's row in its block, the first member fastest
    strides = [math.prod(cards[:i]) for i in range(n)]

    columns = []
    # joint response levels with the first member fastest
    for reversed_levels in product(*[range(len(table)) for table in reversed(tables)]):
        levels = reversed_levels[::-1]
        outcomes = []
        for w2 in w2_values:
            values = [0] * n + list(w2)
            # members in topological order, so each one's parents are set before it
            for i in order:
                config = tuple([values[p] for p in parents[i]])
                values[i] = tables[i][levels[i]][ranks[i][config]]
            outcomes.append(sum(map(mul, values, strides)))
        columns.append((levels, tuple(outcomes)))
    # group by the first w2 block's row; the stable sort keeps level order within
    columns.sort(key=lambda column: column[1][0])
    col_labels, col_outcomes = zip(*columns)
    return FunctionalSystem(district, row_labels, col_labels, col_outcomes)


def row_symmetries(dag: HiddenDag, system: FunctionalSystem):
    """Row permutations of B that should map its columns onto themselves.

    Yields permutations ``perm`` of the row indices, read as the coordinate
    permutation sending a column x to the column y with ``y[perm[r]] = x[r]``.
    They are proposals: ``polyhedra.v_to_h`` keeps only those that map the
    column set onto itself. There are three kinds:

    * adjacent transpositions of each external parent's values;
    * for each member W and each configuration c of W's observed parents,
      adjacent transpositions of W's values on the rows where W's parents
      equal c;
    * for each pair of members of equal cardinality, the involution that
      swaps them and pairs the external parents of one but not the other,
      in variable order, when it sends every member's observed-parent set
      to its image's. Transpositions generate every permutation of
      interchangeable members, as in the Bell scenarios' party swaps.

    Positions, cardinalities and parents are read from the district's
    ``district_shape``, the values of each row from ``system.row_labels``.
    A generator: nothing is built until ``v_to_h`` reads it, which it does
    only for large point sets.
    """
    _, (n, cards, parents, _) = district_shape(dag, system.district)
    rows = [w1.values() + w2.values() for w1, w2 in system.row_labels]
    index = {row: r for r, row in enumerate(rows)}

    # an external parent has no condition: its one configuration is ()
    for k in [*range(n, len(cards)), *range(n)]:
        at = parents[k] if k < n else ()
        for config in product(*[range(cards[i]) for i in at]):
            for a in range(cards[k] - 1):
                swap = {a: a + 1, a + 1: a}
                yield tuple(
                    index[row[:k] + (swap[row[k]],) + row[k + 1:]]
                    if row[k] in swap and tuple(row[i] for i in at) == config else r
                    for r, row in enumerate(rows))
    for first in range(n):
        for second in range(first + 1, n):
            ext_first, ext_second = (
                sorted({p for p in parents[m] if p >= n} - set(parents[o]))
                for m, o in ((first, second), (second, first)))
            pairs = [(first, second)] + list(zip(ext_first, ext_second))
            if len(ext_first) != len(ext_second) or any(cards[a] != cards[b] for a, b in pairs):
                continue
            image = list(range(len(cards)))
            for a, b in pairs:
                image[a], image[b] = b, a
            if all({image[p] for p in parents[m]} == set(parents[image[m]]) for m in range(n)):
                yield tuple(index[tuple(map(row.__getitem__, image))] for row in rows)


def star_factors(dag: HiddenDag, district: District) -> list[tuple[str, tuple[str, ...]]]:
    """Per-member (variable, conditioning set) pairs of the identifying product.

    The factor for member W conditions on every variable that is a parent of
    the district or a co-member, is an observed ancestor of W, and is not W
    itself.

    This rule is not Tian's c-component factorisation (ROADMAP item 1). On a
    Bell-type district it gives a product, P(a|x)·P(b|y) on CHSH, which is
    always local, so ``check`` cannot report a violated district row on
    CHSH, I3322 or the tripartite Bell scenario. The fix waits for a
    benchmark change that also rewrites the copy of this rule in
    ``bench/gate.py``.
    """
    members = set(district.members)
    pool = dag.observed_parents(members) | members
    factors = []
    for m in district.members:
        cond = (pool & dag.observed_ancestors([m])) - {m}
        factors.append((m, dag.sort_observed(cond)))
    return factors


def star_keys(dag: HiddenDag, district: District,
              labels: Sequence[tuple[Configuration, Configuration]]) -> tuple:
    """The table marginals that the rows of ``labels`` read, as keys.

    One entry per identifying factor (member W, conditioning names C) of
    ``star_factors``: C, C + (W,), and each row's values of C (the key of
    its conditioning mass) and of C + (W,) (the key of its joint mass).
    Built once per system, so a table is then read by key lookups alone.

    These keys are the one place where the factors meet the rows: ``check``
    evaluates them, and ``--texts`` writes its observable labels from them.
    """
    rows = [dict(w1.items + w2.items) for w1, w2 in labels]
    keys = []
    for member, cond in star_factors(dag, district):
        given = [tuple([values[name] for name in cond]) for values in rows]
        joint = [key + (values[member],) for key, values in zip(given, rows)]
        keys.append((cond, cond + (member,), tuple(given), tuple(joint)))
    return tuple(keys)


def star_scaled(table: JointTable, keys: tuple) -> tuple[int, list[int | None]]:
    """Each row's interventional probability times one common denominator.

    Returns (denominator, numerators): the denominator is the lcm of the
    rows' reduced denominators, and a numerator is ``None`` when some
    conditioning event of its row has probability zero (not evaluable).
    Each factor reads its two marginals once for all rows, the joint one
    first, from which the table sums the conditioning one; both masses of a
    conditional share the table's denominator, which cancels.
    """
    nums = dens = None  # every district has a member, so a factor
    for cond, joint, given_keys, joint_keys in keys:
        joint_mass = table.marginal(joint).get
        given_mass = table.marginal(cond).get
        given = [given_mass(key, 0) for key in given_keys]
        joint = [joint_mass(key, 0) for key in joint_keys]
        if nums is None:
            nums, dens = joint, given
        else:
            nums, dens = list(map(mul, nums, joint)), list(map(mul, dens, given))
    scaled, reduced = [], []
    for num, den in zip(nums, dens):
        if den:
            g = math.gcd(num, den)
            scaled.append(num // g)
            reduced.append(den // g)
        else:
            scaled.append(None)
            reduced.append(1)
    scale = math.lcm(*reduced)
    return scale, [
        None if num is None else num * (scale // den) for num, den in zip(scaled, reduced)
    ]


def star_probability(table: JointTable, dag: HiddenDag, district: District,
                     w1: Configuration, w2: Configuration) -> Fraction | None:
    """Interventional probability of (w1 | w2) from an empirical table.

    Returns the product of identifying conditionals, or ``None`` when some
    conditioning event has probability zero (not evaluable).
    """
    scale, (scaled,) = star_scaled(table, star_keys(dag, district, [(w1, w2)]))
    return None if scaled is None else Fraction(scaled, scale)
