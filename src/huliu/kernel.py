"""Finite abelian groups, operation tables, subset utilities, and the law
engine that every validator runs: a law is decided on additive generators
where it can be, and scanned in full only to place its first witness.
A decision rests on law codes only: it is exact once the laws its `after`
names hold, and the engine settles each law of a call on demand and at
most once.  The ring laws of a product over + (both distributive laws and
associativity) are stated here once, by `_product_laws`, for every table.
The engine compares whole rows: each validator call turns each table into
bytes rows once (`_ByteTable`), so a gather t[x][s_i] along a row s is one
`bytes.translate`, and a row that holds costs a constant number of C-level
calls.  Only this module builds that representation; tables above order
256 are refused, since entries must fit a byte.  A group whose table of +
is marked checked carries its row form and its group-law verdict for its
life (`_additive`), so + is converted and its group laws are proved once
per group, however many validators read it.
Subgroups are sums of cyclic subgroups:
H + <x> = {h + k·x} is already a subgroup, so one multiples walk serves
closure, the subgroup lattice and generator sequences, and one loop grows a
lattice as the sums of its atoms (cyclic subgroups here, principal ideals in
ideals.py).  The walk of x also gives the order of every k·x, so element
orders take one walk per cyclic subgroup.

Elements are indices 0..n-1 and the additive zero is pinned to index 0,
so subsets and witnesses are stable across tools and file round-trips.
Tables are row-major tuples of tuples; partial tables use SENTINEL (-1)
for undefined entries.  A table is checked for shape once: a table that
passed `check_table_shape` (or the document reader's equal check) comes
back marked as checked (`_Checked`, or `_CheckedPartial` where SENTINEL is
allowed), and a marked table is returned at once by the next check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import contains, getitem, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError, ValidationFailure, Violation

SENTINEL = -1
# Byte rows need every entry below 256 (see _ByteTable).
MAX_TABLE_ORDER = 256

Table = tuple[tuple[int, ...], ...]
Subset = frozenset[int]


def freeze_table(rows: Sequence[Sequence[int]]) -> Table:
    return tuple(tuple(map(int, row)) for row in rows)


def _row_check(
    n: int, extra: tuple[object, ...] = ()
) -> tuple[Callable[[Sequence[object]], bool], Callable[[Sequence[object]], int | None]]:
    """(fits, first_bad) for the rows of an n-by-n table whose entries are
    ints (not bools) in range(n) or one of `extra`, with its type.

    fits(row) checks a whole row at once, as the sets of its types and of its
    values, and refuses any type but int and those of `extra`.  Only a row it
    refuses is walked: first_bad(row) is the position of its first bad
    entry, or None when the row holds int subclasses and nothing worse.
    """
    valid = frozenset(range(n)).union(extra)
    types = {int, *map(type, extra)}

    def fits(row: Sequence[object]) -> bool:
        return types.issuperset(map(type, row)) and valid.issuperset(row)

    def ok(x: object) -> bool:
        if isinstance(x, bool):
            return False
        if isinstance(x, int) and 0 <= x < n:
            return True
        return any(isinstance(x, type(e)) and x == e for e in extra)

    def first_bad(row: Sequence[object]) -> int | None:
        return next((j for j, x in enumerate(row) if not ok(x)), None)

    return fits, first_bad


class _Checked(tuple):
    """A table known to be n-by-n, its rows tuples of ints in range(n), n at
    most MAX_TABLE_ORDER: one that passed `check_table_shape` or the
    document reader, or that is derived from checked tables entry by entry
    (`hlring.from_lcrng`)."""

    __slots__ = ()


class _CheckedPartial(tuple):
    """A checked table whose entries may also be SENTINEL."""

    __slots__ = ()


def check_table_shape(rows: Sequence[Sequence[int]], *, allow_sentinel: bool = False) -> Table:
    """Shape/range discipline for an n-by-n table; raises InputError.
    Orders above MAX_TABLE_ORDER are refused before any row is read.

    The table comes back marked as checked, and a marked table is returned
    at once, unless it may hold SENTINEL and a full table is asked for."""
    if type(rows) is _Checked or (allow_sentinel and type(rows) is _CheckedPartial):
        return rows
    n = len(rows)
    if n == 0:
        raise InputError("non-square-table", "table has no rows")
    if n > MAX_TABLE_ORDER:
        raise InputError(
            "order-too-large",
            f"tables are capped at order {MAX_TABLE_ORDER} (entries must fit a byte), got {n}",
        )
    fits, first_bad = _row_check(n, (SENTINEL,) if allow_sentinel else ())
    exact = True
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InputError("non-square-table", f"row {i} has length {len(row)}, expected {n}")
        if not fits(row):
            j = first_bad(row)
            if j is not None:
                raise InputError("table-entry-out-of-range", f"entry ({i},{j}) is {row[j]!r}")
            exact = False
    # Rows of plain ints are frozen as they are; int subclasses become ints.
    mark = _CheckedPartial if allow_sentinel else _Checked
    return mark(map(tuple, rows) if exact else freeze_table(rows))


def _require_whole(kind: str, *structures) -> None:
    """InputError unless each structure (a ring or an LcRng, named by `kind`)
    has its whole group as carrier, for code that reads tables over
    0..order-1."""
    for s in structures:
        if s.order != s.group.order:
            raise InputError(
                f"{kind}-not-on-whole-group",
                f"{s.name or kind} lives on {s.order} of the {s.group.order} "
                f"elements of its group; this needs a {kind} on its whole group",
            )


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Additive group on indices 0..order-1 with zero at index 0."""

    order: int
    add: Table

    @property
    def zero(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def plus(self, a: int, b: int) -> int:
        return self.add[a][b]

    @cached_property
    def negation(self) -> tuple[int, ...]:
        """negation[a] = -a, built on first use so that a table without
        inverses still reaches group_violations."""
        for a, row in enumerate(self.add):
            if 0 not in row:
                raise InputError("no-additive-inverse", f"element {a} has no inverse")
        return tuple(row.index(0) for row in self.add)

    def neg(self, a: int) -> int:
        return self.negation[a]

    def minus(self, a: int, b: int) -> int:
        return self.add[a][self.negation[b]]

    def sum(self, items: Iterable[int]) -> int:
        total = 0
        for x in items:
            total = self.add[total][x]
        return total

    # Read only through `_additive`: a group whose table is marked checked
    # (immutable) keeps these for its life; any other table gets a checked
    # copy on a new group, for one call.
    @cached_property
    def _sums(self) -> _ByteTable:
        """+ in the law engine's row form over the whole group."""
        (sums,) = _byte_tables(range(self.order), self.add)
        return sums

    @cached_property
    def _group_laws(self) -> tuple[Violation, ...]:
        """The failed abelian-group axioms of +, as `_group_violations`."""
        return tuple(_group_violations(self._sums))


def _additive(group: FiniteAbelianGroup) -> FiniteAbelianGroup:
    """The group with its table of + checked (`check_table_shape`): the group
    itself when that table is marked checked, so that the row form and the
    group-law verdict it keeps serve every later validator call; otherwise a
    group on a freshly checked copy, for one call, so that a caller's table
    (a list it may change) is never read stale."""
    add = check_table_shape(group.add)
    return group if add is group.add else FiniteAbelianGroup(group.order, add)


Row = Callable[..., tuple]

# What a row function may return for a row it has settled as holding in one
# step: two equal empty sides.
HOLDS: tuple = ((), ())


def _byte_rows(rows: Iterable[Sequence[int]]) -> list[bytes]:
    """Rows as bytes.  A partial table's SENTINEL entries, which no law
    reads, become 255."""
    rows = list(rows)
    try:
        return list(map(bytes, rows))
    except ValueError:
        return [bytes(map((255).__and__, r)) for r in rows]


class _ByteTable:
    """A table in the law engine's row form, built once per validator call.

    Rows run over a domain D of indices (the carrier): row(x) is t[x][d]
    for d in D, as bytes, and `columns[z]` is t[d][z].  Each whole row (and
    column) is also a 256-byte translate table, so at(x, s) = t[x][s_i] for
    a row s is one s.translate call; pairs(s, u) = t[s_i][u_i] gathers from
    a different row at each i.  Entries must be below 256
    (check_table_shape refuses larger orders); `table` keeps the tuples for
    single lookups.  Only rows and columns on the carrier are built: on a
    proper carrier they are keyed by element in dicts.
    """

    def __init__(self, table: Table, over: bytes):
        self.table = table
        self.over = over
        # A carrier of n distinct indices below n is the whole group.
        self.whole = len(over) == len(table)
        if self.whole:
            self._row_list = _byte_rows(table)
        else:  # only rows and columns on the carrier are read
            # The first index twice, so that itemgetter always returns a tuple.
            pick = itemgetter(over[0], *over)
            self._row_list = [r[1:] for r in _byte_rows(map(pick, pick(table)[1:]))]
        self.rows = self._keyed(self._row_list)
        self.maps = self._keyed(self._translate_tables(self._row_list))

    def _keyed(self, values: list[bytes]) -> list[bytes] | dict[int, bytes]:
        """One value per carrier element, in order, indexed by element."""
        return values if self.whole else dict(zip(self.over, values))

    def _translate_tables(self, lines: list[bytes]) -> list[bytes]:
        """Rows or columns over the carrier as translate tables, right at
        the carrier's positions."""
        if self.whole:
            return [line.ljust(256, b"\0") for line in lines]
        return [bytes.maketrans(self.over, line) for line in lines]

    @cached_property
    def sum_generators(self) -> list[int] | None:
        """`_sum_generators` of a table over the whole group, found once per
        validator call however many laws and decisions read it."""
        return _sum_generators(self.table)

    @cached_property
    def _column_list(self) -> list[bytes]:
        return list(map(bytes, zip(*self._row_list)))

    @cached_property
    def columns(self) -> list[bytes] | dict[int, bytes]:
        return self._keyed(self._column_list)

    @cached_property
    def column_maps(self) -> list[bytes] | dict[int, bytes]:
        return self._keyed(self._translate_tables(self._column_list))

    def row(self, x: int) -> bytes:
        return self.rows[x]

    def at(self, x: int, s: bytes) -> bytes:
        return s.translate(self.maps[x])

    def pairs(self, s: bytes, u: bytes) -> bytes:
        return bytes(map(getitem, map(self.maps.__getitem__, s), u))


def _byte_tables(carrier: Sequence[int], *tables: Table) -> list[_ByteTable]:
    """Each table with its rows over the carrier, for one validator call."""
    over = bytes(carrier)
    return [_ByteTable(t, over) for t in tables]


class Decision(NamedTuple):
    """A law decided on a few tuples, `domains`, instead of its own.

    The decision compares `row`, or the law's own row when it has none.  It
    is exact once every law coded in `after`, a law of the same call, holds;
    the engine settles those on demand, and while one does not hold the law
    is scanned in full.  See `_distributes`, `_multi_additive` and Light's
    test (`_group_violations`) for the three kinds and why each is exact.
    """

    domains: tuple[Sequence[int], ...]
    after: tuple[str, ...] = ()
    row: Row | None = None


class Law(NamedTuple):
    """One axiom, checked over product(*domains) in row-major order.

    row(*prefix) gets all but the last coordinate and returns both sides of
    the law as two sequences of one type over the last domain, or HOLDS
    when a one-step test shows the row holds; a nullary law (no domains)
    returns two plain values.  `message` is formatted with the witness.
    The law is skipped once an earlier law coded in `requires` failed.  A
    law with a `decision` is scanned in full only when the decision does
    not show that it holds, to place its witness.
    """

    code: str
    message: str
    domains: tuple[Sequence[int], ...]
    row: Row
    requires: tuple[str, ...] = ()
    decision: Decision | None = None


# The three kinds of decision.  Each needs + to be an abelian group on the
# carrier (Light's test decides that associativity) and `gens` to generate it.
# With the last coordinate on the whole carrier, rows stay whole rows.


def _distributes(
    carrier: Sequence[int], gens: Sequence[int], after: tuple[str, ...] = ()
) -> Decision:
    """x(y+z) = xy + xz, or (x+y)z = xz + yz, with y only on the generators.

    The y for which the law holds for all x and z are closed under +:
    x((y+y')+z) = x(y+(y'+z)) = xy + xy' + xz and x(y+y') = xy + xy', and
    the same for the right law; so they are the whole carrier, once it is
    a subgroup that `gens` generates.  With no generators the carrier is
    {0}, and the law at (0, 0, 0) must follow from the laws `after`
    (closure: 0·0 = 0).  `_product_laws` decides the right law on columns.
    """
    return Decision((carrier, gens, carrier), after)


def _multi_additive(domains: tuple[Sequence[int], ...], after: tuple[str, ...]) -> Decision:
    """A law whose two sides are additive in each variable once the tables
    they compose distribute on both sides, decided with every variable but
    the last only on generators of its domain.  `after` names those
    distributive laws, and any other law the argument rests on.

    The difference of the sides is additive in each coordinate, so from
    generators it vanishes on each whole domain in turn, and then
    everywhere.
    """
    return Decision(domains, after)


def _sum_generators(add: Table) -> list[int] | None:
    """Greedy generators of + that reach every element as a left-to-right
    sum (...((0+g1)+g2)...)+gk, or None unless index 0 is a two-sided zero.

    Only the zero law is assumed, so the list serves Light's test on a
    table that is not yet known to be associative.
    """
    rng = range(len(add))
    if list(add[0]) != list(rng) or [r[0] for r in add] != list(rng):
        return None
    gens: list[int] = []
    reached = {0}
    for x in rng:
        if x not in reached:
            gens.append(x)
            frontier = list(reached)
            while frontier:
                row = add[frontier.pop()]
                for g in gens:
                    if row[g] not in reached:
                        reached.add(row[g])
                        frontier.append(row[g])
    return gens


def _first_witness(row: Row, domains: tuple[Sequence[int], ...]) -> tuple[int, ...] | None:
    """First failing tuple in row-major order, or None when the law holds.

    Whole rows are compared at once; only a row that differs is searched
    for its first differing position.
    """
    for prefix in itertools.product(*domains[:-1]):
        lhs, rhs = row(*prefix)
        if lhs != rhs:
            if not domains:
                return ()
            return (*prefix, next(z for z, a, b in zip(domains[-1], lhs, rhs) if a != b))
    return None


def _decider(laws: Sequence[Law], holds: Callable[[str], bool]) -> Callable[[Law], bool | None]:
    """verdict(law): whether a law of `laws` holds by its decision, or None
    when it has none or `holds(code)` is false for a code in its `after`.
    `_run` asks once per law."""

    def verdict(law: Law) -> bool | None:
        decision = law.decision
        if decision is None or not all(map(holds, decision.after)):
            return None
        return _first_witness(decision.row or law.row, decision.domains) is None

    return verdict


_UNSETTLED: object = object()


def _run(laws: tuple[Law, ...]) -> tuple[Callable, dict, Callable, Callable]:
    """(state, witnesses, holds, release) for one call's laws, each settled
    on demand and at most once.  state(i): whether law i holds, or None if
    an earlier law coded in its `requires` failed (with in_order, every
    law before i is settled).  holds(code): whether every law coded `code`
    holds, for a decision's `after`; a code naming no law raises.
    release() breaks the closures' cycle, so the call's tables are freed."""
    states: list = [_UNSETTLED] * len(laws)
    witnesses: dict[int, tuple[int, ...]] = {}
    failed: list[int] = []
    index: dict[str, list[int]] = {}  # each code's positions, built on first use

    def positions(code: str) -> list[int]:
        if not index:
            for i, law in enumerate(laws):
                index.setdefault(law.code, []).append(i)
        return index.get(code, [])

    def state(i: int, in_order: bool = False) -> bool | None:
        settled = states[i]
        if settled is _UNSETTLED:
            law = laws[i]
            if law.requires and (failed or not in_order) and skipped(i, law.requires):
                settled = None
            else:
                settled = None if law.decision is None else verdict(law)
                if settled is None:  # no decision to use: a full scan
                    found = _first_witness(law.row, law.domains)
                    if found is not None:
                        witnesses[i] = found
                    settled = found is None
                if not settled:
                    failed.append(i)
            states[i] = settled
        return settled

    def skipped(i: int, requires: tuple[str, ...]) -> bool:
        for code in requires:
            for j in positions(code):
                if j < i and state(j) is False:
                    return True
        return False

    def holds(code: str) -> bool:
        coded = positions(code)
        if not coded:
            raise ValueError(f"a decision rests on {code!r}, no law of this call")
        return all(map(state, coded))

    def release() -> None:
        nonlocal verdict, skipped
        verdict = skipped = None

    verdict = _decider(laws, holds)
    return state, witnesses, holds, release


def _law_violations(laws: Iterable[Law]) -> Iterator[Violation]:
    """One violation per failed law, in table order; a law that its
    decision shows failing gets one full scan, to place its witness."""
    laws = tuple(laws)
    state, witnesses, _, release = _run(laws)
    try:
        for i, law in enumerate(laws):
            if state(i, True) is False:
                witness = witnesses[i] if i in witnesses else _first_witness(law.row, law.domains)
                yield Violation(law.code, witness, law.message.format(*witness))
    finally:
        release()


def _law_holds(laws: Iterable[Law], codes: Iterable[str]) -> list[bool]:
    """Whether the laws coded as each of `codes` hold, placing no witness
    for a law that a decision shows failing."""
    _, _, holds, release = _run(tuple(laws))
    try:
        return list(map(holds, codes))
    finally:
        release()


# The shared rows, over _ByteTables: a gather t[x][s_i] is one translate.


def _bracketed(f: _ByteTable, g: _ByteTable, h: _ByteTable, k: _ByteTable) -> Row:
    """(x g y) f z against x h (y k z), as rows over z."""
    f_rows, g_table, h_maps, k_rows = f.rows, g.table, h.maps, k.rows
    return lambda x, y: (f_rows[g_table[x][y]], k_rows[y].translate(h_maps[x]))


def _associative(op: _ByteTable) -> Row:
    """(xy)z against x(yz), as rows over z."""
    return _bracketed(op, op, op, op)


def _commutative(op: _ByteTable) -> Row:
    """xy against yx, as rows over y."""
    rows = op.rows
    return lambda x: (rows[x], op.columns[x])


def _product_laws(
    op: _ByteTable,
    add: _ByteTable,
    carrier: Sequence[int],
    gens: Sequence[int] | None,
    laws: tuple[tuple[str, str], tuple[str, str], tuple[str, str]],
    requires: tuple[str, ...] = (),
) -> tuple[Law, Law, Law]:
    """x(y+z) = xy + xz, (x+y)z = xz + yz and (xy)z = x(yz) for a product
    over + on the carrier, with the (code, message) pairs of `laws` and
    `requires`.  With generators of + (`gens`), both distributive laws are
    decided by `_distributes` and associativity by `_multi_additive` after
    them; with None, each is scanned in full."""
    op_table, op_rows, op_maps = op.table, op.rows, op.maps
    add_table, add_rows, add_maps = add.table, add.rows, add.maps
    gathered: list = [None, ()]

    def left(x: int, y: int) -> tuple:
        """x(y+z) against xy + xz, as rows over z: two translates."""
        return add_rows[y].translate(op_maps[x]), op_rows[x].translate(add_maps[op_table[x][y]])

    def right(x: int, y: int) -> tuple:
        """(x+y)z against xz + yz, as rows over z, gathering add[xz] once per x."""
        if gathered[0] != x:
            gathered[:] = x, list(map(add_maps.__getitem__, op_rows[x]))
        return op_rows[add_table[x][y]], bytes(map(getitem, gathered[1], op_rows[y]))

    def right_columns(z: int, g: int) -> tuple:
        """(g+x)z against gz + xz, as rows over x: over (z, g in generators,
        x), the right law with y on generators once + is commutative, which
        the group laws prove before any decision runs."""
        column = op.columns[z]
        return add_rows[g].translate(op.column_maps[z]), column.translate(add_maps[op_table[g][z]])

    cube = (carrier, carrier, carrier)
    (left_code, left_says), (right_code, right_says), (assoc, assoc_says) = laws
    decisions: tuple = (None, None, None)
    if gens is not None:
        decisions = (
            _distributes(carrier, gens),
            _distributes(carrier, gens)._replace(row=right_columns),
            _multi_additive((gens, gens, carrier), (left_code, right_code)),
        )
    return (
        Law(left_code, left_says, cube, left, requires, decisions[0]),
        Law(right_code, right_says, cube, right, requires, decisions[1]),
        Law(assoc, assoc_says, cube, _associative(op), requires, decisions[2]),
    )


GROUP_CHECKS = (
    "zero-not-at-index-zero",
    "add-not-commutative",
    "add-not-associative",
    "missing-additive-inverse",
)


def group_violations(add: Sequence[Sequence[int]]) -> list[Violation]:
    """All failed abelian-group axioms, one violation per axiom.

    Each axiom scan stops at the first failing tuple in row-major order.
    """
    t = check_table_shape(add)
    return _group_violations(*_byte_tables(range(len(t)), t))


def _group_violations(add: _ByteTable) -> list[Violation]:
    """group_violations over a table that already passed check_table_shape,
    with its rows over the whole group.

    Associativity is decided by Light's test (F. W. Light, 1949):
    (xg)z = x(gz) for every generator g.  The g for which it holds for all
    x and z contain 0 (a two-sided zero) and are closed under the product:
    (x(gh))z = ((xg)h)z = (xg)(hz) = x(g(hz)) = x((gh)z).  The generators
    reach every element as a sum (...((0+g1)+g2)...)+gk (`_sum_generators`).
    """
    t, rows, ident = add.table, add.rows, add.over
    rng = range(len(t))
    gens = add.sum_generators

    def zero_law() -> tuple:
        if rows[0] == ident and add.columns[0] == ident:
            return HOLDS
        return list(zip(t[0], [r[0] for r in t])), list(zip(rng, rng))

    def inverses() -> tuple:
        if all(map(contains, rows, itertools.repeat(0))):
            return HOLDS
        return [0 in r for r in t], [True] * len(t)

    laws = (
        Law("zero-not-at-index-zero", "index 0 does not act as zero on {}", (rng,), zero_law),
        Law("add-not-commutative", "not commutative", (rng, rng), _commutative(add)),
        Law(
            "add-not-associative",
            "not associative",
            (rng, rng, rng),
            _associative(add),
            decision=None if gens is None else Decision((rng, gens, rng)),
        ),
        Law("missing-additive-inverse", "{} has no inverse", (rng,), inverses),
    )
    return list(_law_violations(laws))


def validate_group(add: Sequence[Sequence[int]]) -> FiniteAbelianGroup:
    violations = group_violations(add)
    if violations:
        raise ValidationFailure(violations)
    table = freeze_table(add)
    return FiniteAbelianGroup(order=len(table), add=table)


def _multiples(group: FiniteAbelianGroup, x: int) -> list[int]:
    """0, x, 2x, ...: the k-th entry is k·x, and there are ord x of them."""
    multiples, y = [0], x
    while y != 0:
        multiples.append(y)
        y = group.add[y][x]
    return multiples


def _cyclic(group: FiniteAbelianGroup, x: int) -> Subset:
    """The multiples of x: the cyclic subgroup it generates."""
    if not (0 <= x < group.order):
        raise InputError("subset-out-of-range", f"index {x} not in carrier")
    return frozenset(_multiples(group, x))


def _sum(group: FiniteAbelianGroup, h: Subset, k: Subset) -> Subset:
    """h + k = {a + b} for a subgroup h, a subgroup whenever k is one.

    It is a union of cosets b + h, and b + h is already in it once b is, so
    only one b of each coset is added to h."""
    out = set(h)
    for b in k:
        if b not in out:
            out.update(map(group.add[b].__getitem__, h))
    return frozenset(out)


def subgroup_closure(group: FiniteAbelianGroup, seed: Iterable[int]) -> Subset:
    """Smallest subgroup containing the seed: the sum of the cyclic subgroups
    of its elements (idempotent, monotone)."""
    closed = frozenset({0})
    for s in seed:
        if s not in closed:
            closed = _sum(group, closed, _cyclic(group, s))
    return closed


def subset_key(subset: Subset) -> tuple[int, tuple[int, ...]]:
    """Canonical ordering key: cardinality, then lexicographic membership."""
    return (len(subset), tuple(sorted(subset)))


def format_subset(subset: Iterable[int]) -> str:
    return ",".join(str(i) for i in sorted(subset))


def parse_subset(text: str, order: int | None = None) -> Subset:
    """Comma-separated indices, in any order; repeats count once and blank
    parts are skipped.  A part is read only when it is ASCII digits once
    ASCII whitespace is stripped: int() would also read signs, underscores
    and other scripts' digits."""
    parts = [part.strip(" \t\n\r\v\f") for part in text.split(",")]
    if not all(part.isascii() and part.isdigit() for part in parts if part):
        raise InputError("bad-subset", f"cannot parse subset {text!r}")
    items = frozenset(int(part) for part in parts if part)
    if order is not None:
        for i in items:
            if i >= order:
                raise InputError("subset-out-of-range", f"index {i} not in 0..{order - 1}")
    return items


def enumerate_subgroups(group: FiniteAbelianGroup) -> list[Subset]:
    """All subgroups, each once, sorted by size then membership.

    Every subgroup is a sum of cyclic subgroups, so the lattice is grown
    from them rather than by scanning all 2^n subsets; the subset scan
    survives as the test oracle for small orders.
    """
    return _lattice(group, (_cyclic(group, x) for x in group.elements()))


def _lattice(group: FiniteAbelianGroup, atoms: Iterable[Subset]) -> list[Subset]:
    """{0} and every sum of atoms (subgroups), each once, sorted by size then
    membership: each atom is added to every sum found that does not hold it."""
    atoms = set(atoms)
    trivial = frozenset({0})
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        base = frontier.pop()
        for atom in atoms:
            if not atom <= base:
                bigger = _sum(group, base, atom)
                if bigger not in seen:
                    seen.add(bigger)
                    frontier.append(bigger)
    return sorted(seen, key=subset_key)


def generating_sequence(group: FiniteAbelianGroup, carrier: Subset) -> list[int]:
    """Greedy generator list for a subgroup (used by census machinery)."""
    gens: list[int] = []
    closed = frozenset({0})
    for x in sorted(carrier):
        if x not in closed:
            gens.append(x)
            closed = _sum(group, closed, _cyclic(group, x))
    if closed != frozenset(carrier):
        raise InputError("not-a-subgroup", f"{format_subset(carrier)} is not a subgroup")
    return gens


def element_orders(group: FiniteAbelianGroup) -> tuple[int, ...]:
    """The additive order of each element, from one walk per cyclic subgroup.

    The walk 0, x, 2x, ... of an element x of unknown order m meets every
    k·x, whose order is m / gcd(k, m); it fills in each of those not yet
    known.  An element already filled in starts no walk, so a cyclic group
    of order n costs one walk of n steps."""
    orders = [0] * group.order
    for x in group.elements():
        if orders[x]:
            continue
        multiples = _multiples(group, x)
        m = len(multiples)
        for k, y in enumerate(multiples):
            if not orders[y]:
                orders[y] = m // math.gcd(k, m)
    return tuple(orders)


def direct_sum_group(orders: Sequence[int]) -> FiniteAbelianGroup:
    """Z_{n1} x ... x Z_{nk} with mixed-radix indexing, first factor fastest.

    The table is built by arithmetic: with uᵢ the index of the i-th unit
    vector, row x is row x - uᵢ read through the permutation y ↦ y + uᵢ, for
    the first factor i where x has a nonzero coordinate.  It comes back
    marked as checked and is not validated here: the first validator that
    reads the group proves its group laws once (`_additive`), and every
    later one reuses that verdict."""
    if not orders or any(n < 1 for n in orders):
        raise InputError("bad-group-spec", f"bad cyclic orders {orders!r}")
    n = math.prod(orders)
    rows = [tuple(range(n))]
    unit = 1  # the index of the current factor's unit vector
    for k in orders:
        # y + unit: that factor's coordinate steps up, from k - 1 back to 0
        plus = [y + unit if y // unit % k < k - 1 else y - (k - 1) * unit for y in range(n)]
        for x in range(unit, unit * k):
            rows.append(tuple(map(plus.__getitem__, rows[x - unit])))
        unit *= k
    return FiniteAbelianGroup(order=n, add=check_table_shape(rows))
