"""Response-function enumeration and the per-district linear system p = B r.

Conventions (all enumeration is deterministic and derives from the canonical
variable order):

* Configurations of an ordered variable list enumerate with the FIRST
  variable moving fastest (odometer with the leftmost wheel spinning).
* A response level for W with parents (P1..Pk) encodes the function table as
  a base-|W| numeral read most-significant-digit first, digit j being the
  output on the j-th parent configuration, where parent configurations are
  ranked lexicographically with the LAST parent fastest.
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
from typing import Mapping, NamedTuple, Sequence

from .graph import District, HiddenDag, validate_conditions
from .tables import JointTable

DEFAULT_COLUMN_LIMIT = 10_000_000


class ColumnLimitError(RuntimeError):
    """The joint response space is larger than the configured column limit."""

    def __init__(self, estimate: int, limit: int):
        self.estimate = estimate
        self.limit = limit
        super().__init__(
            f"district needs {estimate} response columns, over the limit of {limit}"
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


class ResponseSpec(NamedTuple):
    """Shape of the response variable for one observed variable."""

    variable: str
    cardinality: int
    parent_order: tuple[str, ...]
    parent_cards: tuple[int, ...]

    @property
    def parent_domain_size(self) -> int:
        return math.prod(self.parent_cards)

    @property
    def level_count(self) -> int:
        return self.cardinality ** self.parent_domain_size

    def config_index(self, parent_config: Mapping[str, int] | Configuration) -> int:
        """Rank of a parent configuration, last parent fastest."""
        index = 0
        for name, card in zip(self.parent_order, self.parent_cards):
            value = parent_config[name]
            if not 0 <= value < card:
                raise ValueError(f"value {value} for {name} out of range")
            index = index * card + value
        return index


def response_levels(dag: HiddenDag, w: str) -> ResponseSpec:
    """Response variable shape for ``w``: |W| ** (product of parent cardinalities)."""
    parents = dag.sort_observed(dag.observed_parents([w]))
    return ResponseSpec(
        variable=w,
        cardinality=dag.cardinality(w),
        parent_order=parents,
        parent_cards=tuple(dag.cardinality(p) for p in parents),
    )


def eval_response(spec: ResponseSpec, level: int,
                  parent_config: Mapping[str, int] | Configuration) -> int:
    """Output of response function ``level`` on ``parent_config``.

    Decodes ``level`` as a base-|W| numeral, most significant digit first;
    digit j is the output on the j-th parent configuration.
    """
    if not 0 <= level < spec.level_count:
        raise ValueError(f"level {level} out of range for {spec.variable}")
    j = spec.config_index(parent_config)
    power = spec.cardinality ** (spec.parent_domain_size - 1 - j)
    return (level // power) % spec.cardinality


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

    @property
    def row_blocks(self) -> tuple[tuple[int, ...], ...]:
        """Row indices grouped by w2 configuration: consecutive runs of a block size."""
        n1 = self.block_sizes[0]
        return tuple(tuple(range(start, start + n1)) for start in range(0, self.n_rows, n1))

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

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """B as dense 0/1 rows."""
        return tuple(zip(*self.columns_as_points()))

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


def external_parents(dag: HiddenDag, district: District) -> tuple[str, ...]:
    members = set(district.members)
    return dag.sort_observed(dag.observed_parents(members) - members)


def build_functional_system(dag: HiddenDag, district: District,
                            column_limit: int = DEFAULT_COLUMN_LIMIT) -> FunctionalSystem:
    """Construct the labeled system p = B r for a c-degree-1 district."""
    report = validate_conditions(dag)
    if not report.ok:
        raise ValueError("graph violates the structural conditions; normalize it first")
    if district.c_degree > 1:
        raise ValueError(
            f"district {{{', '.join(district.members)}}} has c-degree "
            f"{district.c_degree}; merge its latents first"
        )
    members = district.members
    specs = [response_levels(dag, m) for m in members]
    n_cols = math.prod(spec.level_count for spec in specs)
    if n_cols > column_limit:
        raise ColumnLimitError(n_cols, column_limit)

    # members in topological order, so each one's parents are set before it
    position = {m: i for i, m in enumerate(members)}
    steps = [(m, position[m], specs[position[m]])
             for m in dag.topological_order() if m in position]
    w2 = external_parents(dag, district)
    w1_configs = enumerate_configs(members, [dag.cardinality(m) for m in members])
    w2_configs = enumerate_configs(w2, [dag.cardinality(p) for p in w2])
    w1_index = {cfg.values(): i for i, cfg in enumerate(w1_configs)}

    columns = []
    # joint response levels with the first member fastest
    for reversed_levels in product(*[range(spec.level_count) for spec in reversed(specs)]):
        levels = reversed_levels[::-1]
        outcomes = []
        for w2c in w2_configs:
            values = dict(w2c.items)
            for member, i, spec in steps:
                values[member] = eval_response(spec, levels[i], values)
            outcomes.append(w1_index[tuple(values[m] for m in members)])
        columns.append((levels, tuple(outcomes)))
    # group by the first w2 block's row; the stable sort keeps level order within
    columns.sort(key=lambda column: column[1][0])
    return FunctionalSystem(
        district=district,
        row_labels=tuple((w1c, w2c) for w2c in w2_configs for w1c in w1_configs),
        col_labels=tuple(levels for levels, _ in columns),
        col_outcomes=tuple(outcomes for _, outcomes in columns),
    )


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

    A generator: nothing is built until ``v_to_h`` reads it, which it does
    only for large point sets.
    """
    members = system.district.members
    names = members + system.w2_order
    position = {name: i for i, name in enumerate(names)}
    cards = [dag.cardinality(name) for name in names]
    rows = [w1.values() + w2.values() for w1, w2 in system.row_labels]
    index = {row: r for r, row in enumerate(rows)}

    def swap_values(k, a, where=lambda row: True):
        swap = {a: a + 1, a + 1: a}
        return tuple(
            index[row[:k] + (swap[row[k]],) + row[k + 1:]]
            if row[k] in swap and where(row) else r
            for r, row in enumerate(rows)
        )

    for k in range(len(members), len(names)):
        for a in range(cards[k] - 1):
            yield swap_values(k, a)
    parents = {m: response_levels(dag, m).parent_order for m in members}
    for m in members:
        k = position[m]
        at = [position[p] for p in parents[m]]
        for config in product(*[range(cards[i]) for i in at]):
            for a in range(cards[k] - 1):
                yield swap_values(k, a, lambda row: tuple(row[i] for i in at) == config)
    for i, first in enumerate(members):
        for second in members[i + 1:]:
            if cards[position[first]] != cards[position[second]]:
                continue
            ext_first, ext_second = (
                sorted(set(parents[m]) - set(members) - set(parents[o]), key=position.get)
                for m, o in ((first, second), (second, first)))
            pairs = [(first, second)] + list(zip(ext_first, ext_second))
            if len(ext_first) != len(ext_second) or any(
                    cards[position[a]] != cards[position[b]] for a, b in pairs):
                continue
            image = {name: name for name in names}
            for a, b in pairs:
                image[a], image[b] = b, a
            if all({image[p] for p in parents[m]} == set(parents[image[m]]) for m in members):
                target = [position[image[name]] for name in names]
                yield tuple(index[tuple(map(row.__getitem__, target))] for row in rows)


def star_factors(dag: HiddenDag, district: District) -> list[tuple[str, tuple[str, ...]]]:
    """Per-member (variable, conditioning set) pairs of the identifying product.

    The factor for member W conditions on every variable that is a parent of
    the district or a co-member, is an observed ancestor of W, and is not W
    itself.
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
    """
    rows = []
    for w1, w2 in labels:
        values = dict(w1.items)
        values.update(w2.items)
        rows.append(values)
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


def star_vector(table: JointTable, dag: HiddenDag, district: District,
                labels: Sequence[tuple[Configuration, Configuration]],
                ) -> list[Fraction | None]:
    """Interventional probabilities of many (w1 | w2) rows of one district.

    Each entry is the product of the identifying conditionals, or ``None``
    when some conditioning event has probability zero (not evaluable): the
    rows' ``star_keys`` read through ``star_scaled``. ``evaluate`` keeps the
    keys of every derived district and uses the integers directly.
    """
    scale, scaled = star_scaled(table, star_keys(dag, district, labels))
    return [None if s is None else Fraction(s, scale) for s in scaled]


def star_probability(table: JointTable, dag: HiddenDag, district: District,
                     w1: Configuration, w2: Configuration) -> Fraction | None:
    """Interventional probability of (w1 | w2) from an empirical table.

    Returns the product of identifying conditionals, or ``None`` when some
    conditioning event has probability zero (not evaluable).
    """
    return star_vector(table, dag, district, [(w1, w2)])[0]
