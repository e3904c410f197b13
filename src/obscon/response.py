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

The district's ``district_shape`` names and shape fix both, and they are all
a ``FunctionalSystem`` stores. The shape also tells whether the columns are
every vertex of the product of the block simplices
(``FunctionalSystem.full_product``); ``FunctionalSystem.columns`` enumerates
the columns only for a conversion of a system that is not.

The column convention reproduces the ordering used in published derivations
for the binary instrumental-variable system.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, count, product, repeat
from operator import floordiv, mul, not_
from typing import NamedTuple, Sequence

from .graph import District, HiddenDag, validate_conditions
from .tables import JointTable

DEFAULT_COLUMN_LIMIT = 10_000_000


class ColumnLimitError(RuntimeError):
    """A district's work is larger than the configured column limit:
    ``estimate`` ``unit`` (its response columns, or a full product's
    closed-form inequality coefficients), or None when that is over the
    limit squared."""

    def __init__(self, estimate: int | None, limit: int, unit: str = "response columns"):
        self.estimate = estimate
        self.limit = limit
        needs = f"more than {limit}" if estimate is None else estimate
        super().__init__(
            f"district needs {needs} {unit}, over the limit of {limit}"
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

    def render(self) -> str:
        return ",".join(f"{n}={v}" for n, v in self.items)


def _value_tuples(cards: Sequence[int]) -> list[tuple[int, ...]]:
    """Every value tuple of variables of these cardinalities, first fastest."""
    return [values[::-1] for values in product(*[range(c) for c in reversed(cards)])]


class FunctionalSystem(NamedTuple):
    """The labeled 0/1 system p = B r for one district, stored as its shape.

    ``names`` and ``shape`` are the district's ``district_shape``, and they
    fix B: its rows and its columns are read off them. ``columns()``
    enumerates the columns, on each call; column c of B has a single 1 in
    each w2 block, in the block's row ``col_outcomes[c][block]`` (an index
    into the block's w1 configurations).
    """

    names: tuple[str, ...]  # the members, then the external parents
    shape: tuple

    @property
    def members(self) -> tuple[str, ...]:
        return self.names[:self.shape[0]]

    @property
    def full_product(self) -> bool:
        """Whether the columns realize every combination of block outcomes.

        That holds iff every member's observed parents include every
        external parent; the shape says it, so no column is enumerated.

        * If: any two w2 blocks differ on some external parent, which every
          member reads. Taking the members in topological order, each one
          therefore sees different inputs in different blocks, and can
          output any target value in each block.
        * Only if: say member m does not read external parent P. Take two
          blocks that differ only in P (every cardinality is at least 2).
          Where the other members agree on both blocks, m gets the same
          input in both, so a target in which the others agree and m
          differs is never realized.
        """
        n, _, parents, _ = self.shape
        return all(set(range(n, len(self.names))).issubset(ps) for ps in parents)

    @property
    def n_rows(self) -> int:
        return math.prod(self.shape[1])

    @property
    def n_cols(self) -> int:
        return _column_count(self.shape)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        """Rows per w2 block; every block lists all w1 configurations."""
        n, cards = self.shape[0], self.shape[1]
        return (math.prod(cards[:n]),) * math.prod(cards[n:])

    @property
    def row_labels(self) -> tuple[tuple[Configuration, Configuration], ...]:
        """The (w1, w2) label of each row, w2 outermost and each group
        listing every w1; built on each read."""
        n, cards = self.shape[0], self.shape[1]
        members, parents = self.names[:n], self.names[n:]
        w1_configs = [Configuration.make(members, v) for v in _value_tuples(cards[:n])]
        return tuple((w1c, w2c) for w2c in (Configuration.make(parents, v)
                                            for v in _value_tuples(cards[n:]))
                     for w1c in w1_configs)

    def columns(self) -> tuple[tuple, tuple]:
        """(col_labels, col_outcomes): each column's response level per
        member, and its w1-row index in each w2 block; enumerated on each call.
        """
        n, cards, parents, order = self.shape
        # a member's functions in level order, each the tuple of its outputs by
        # parent configuration; both orders are product's, last place fastest
        tables = [list(product(range(card), repeat=math.prod(cards[p] for p in ps)))
                  for card, ps in zip(cards, parents)]
        ranks = [{config: j for j, config in enumerate(product(*[range(cards[p]) for p in ps]))}
                 for ps in parents]
        w2_values = _value_tuples(cards[n:])  # one per w2 block
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
        return tuple(zip(*columns))

    def columns_as_points(self) -> list[tuple[int, ...]]:
        """Columns of B as 0/1 vectors; the V-representation generators."""
        n1, n_rows = self.block_sizes[0], self.n_rows
        points = []
        for outcomes in self.columns()[1]:
            point = [0] * n_rows
            for block, outcome in enumerate(outcomes):
                point[block * n1 + outcome] = 1
            points.append(tuple(point))
        return points

    def to_json(self) -> dict:
        return {
            "members": list(self.members),
            "external_parents": list(self.names[self.shape[0]:]),
            "row_labels": [
                {"w1": a.as_dict(), "w2": b.as_dict()} for a, b in self.row_labels
            ],
        }


def _column_count(shape: tuple, limit: int | None = None) -> int:
    """The number of columns of B, the product of each member's |W| ** domain.

    Under a ``limit`` it raises ``ColumnLimitError`` past it. Each factor
    has |W| >= 2, so an exponent past the limit's bit length is over the
    limit alone: it stops before computing a huge power, and names the
    count exactly only up to the limit squared.
    """
    _, cards, parents, _ = shape
    count = 1
    for card, ps in zip(cards, parents):
        domain = math.prod(cards[p] for p in ps)
        if limit is not None and (domain > limit.bit_length() or count > limit ** 2):
            raise ColumnLimitError(None, limit)
        count *= card ** domain
    if limit is not None and count > limit:
        raise ColumnLimitError(count if count <= limit ** 2 else None, limit)
    return count


def district_shape(dag: HiddenDag, district: District) -> tuple[tuple[str, ...], tuple]:
    """A district's names and its local shape: what its system is built from.

    ``names`` is the members, then the external parents, each in canonical
    order. ``shape`` is the member count, the cardinality of each name, each
    member's observed parents (its response function's inputs, in canonical
    order) as positions in ``names``, and the members' topological order as
    positions. ``build_functional_system`` reads nothing else of the graph
    and stores both in its system, where ``row_symmetries`` reads the shape,
    so districts of one shape have one system up to names, and
    ``derive_all`` builds and converts each shape once.
    """
    members = district.members
    parents = [dag.sort_observed(dag.observed_parents([m])) for m in members]
    names = members + dag.sort_observed({p for ps in parents for p in ps} - set(members))
    position = {name: i for i, name in enumerate(names)}
    return names, (len(members), tuple(map(dag.cardinality, names)),
                   tuple(tuple(map(position.get, ps)) for ps in parents),
                   tuple(position[m] for m in dag.topological_order() if m in members))


def build_functional_system(dag: HiddenDag, district: District,
                            column_limit: int = DEFAULT_COLUMN_LIMIT) -> FunctionalSystem:
    """The labeled system p = B r of a c-degree-1 district, as its names and shape.

    The graph is read for its structural conditions and the district's
    ``district_shape``. No column is enumerated here
    (``FunctionalSystem.columns`` does that). The cost guard counts the
    columns off the shape and raises ``ColumnLimitError`` past
    ``column_limit``, except for a full product, whose columns are never
    listed, when the coefficients of its closed-form inequalities
    (``polyhedra.simplex_product_hrep``) are within the limit.
    """
    report = validate_conditions(dag)
    if not report.ok:
        raise ValueError("graph violates the structural conditions; normalize it first")
    if district.c_degree > 1:
        raise ValueError(
            f"district {{{', '.join(district.members)}}} has c-degree "
            f"{district.c_degree}; merge its latents first"
        )
    system = FunctionalSystem(*district_shape(dag, district))
    try:
        _column_count(system.shape, column_limit)
    except ColumnLimitError:
        if not system.full_product:
            raise
        # never listed, a full product's columns are refused only when its
        # closed form, one inequality per row of B with a coefficient per
        # row of B, is over the limit too
        coefficients = system.n_rows ** 2
        if coefficients > column_limit:
            raise ColumnLimitError(coefficients if coefficients <= column_limit ** 2 else None,
                                   column_limit, "closed-form inequality coefficients"
                                   ) from None
    return system


def row_symmetries(system: FunctionalSystem):
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

    Positions, cardinalities and parents are read from ``system.shape``,
    and so are the values of each row: members then external parents, in
    row order. A generator: nothing is built until ``v_to_h`` reads it,
    which it does only for large point sets.
    """
    n, cards, parents, _ = system.shape
    rows = _value_tuples(cards)
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


def star_factors(dag: HiddenDag, members: tuple[str, ...]) -> list[tuple[str, tuple[str, ...]]]:
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
    pool = set(members)
    pool |= dag.observed_parents(pool)
    factors = []
    for m in members:
        cond = (pool & dag.observed_ancestors([m])) - {m}
        factors.append((m, dag.sort_observed(cond)))
    return factors


def star_keys(dag: HiddenDag, members: tuple[str, ...],
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
    for member, cond in star_factors(dag, members):
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
        given = list(map(given_mass, given_keys, repeat(0)))
        joint = list(map(joint_mass, joint_keys, repeat(0)))
        if nums is None:
            nums, dens = joint, given
        else:
            nums, dens = list(map(mul, nums, joint)), list(map(mul, dens, given))
    missing = ()
    if 0 in dens:  # such a row reduces over 1 (masses are >= 0), then reads None
        missing = list(compress(count(), map(not_, dens)))
        dens = list(map(max, dens, repeat(1)))
    common = list(map(math.gcd, nums, dens))
    reduced = list(map(floordiv, dens, common))
    scale = math.lcm(*reduced)
    scaled = list(map(mul, map(floordiv, nums, common), map(floordiv, repeat(scale), reduced)))
    for row in missing:
        scaled[row] = None
    return scale, scaled


def star_probability(table: JointTable, dag: HiddenDag, district: District,
                     w1: Configuration, w2: Configuration) -> Fraction | None:
    """Interventional probability of (w1 | w2) from an empirical table.

    Returns the product of identifying conditionals, or ``None`` when some
    conditioning event has probability zero (not evaluable).
    """
    scale, (scaled,) = star_scaled(table, star_keys(dag, district.members, [(w1, w2)]))
    return None if scaled is None else Fraction(scaled, scale)
