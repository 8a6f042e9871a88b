"""Finite abelian groups, operation tables, subset utilities, and the law
engine that every validator runs: a law is decided on additive generators
where it can be, and scanned in full only to place its first witness.
Subgroups are sums of cyclic subgroups:
H + <x> = {h + k·x} is already a subgroup, so one multiples walk serves
closure, the subgroup lattice, generator sequences and element orders, and
one loop grows a lattice as the sums of its atoms (cyclic subgroups here,
principal ideals in ideals.py).

Elements are indices 0..n-1 and the additive zero is pinned to index 0,
so subsets and witnesses are stable across tools and file round-trips.
Tables are row-major tuples of tuples; partial tables use SENTINEL (-1)
for undefined entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import getitem, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError, ValidationFailure, Violation

SENTINEL = -1

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


def check_table_shape(rows: Sequence[Sequence[int]], *, allow_sentinel: bool = False) -> Table:
    """Shape/range discipline for an n-by-n table; raises InputError."""
    n = len(rows)
    if n == 0:
        raise InputError("non-square-table", "table has no rows")
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
    return tuple(map(tuple, rows)) if exact else freeze_table(rows)


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


Row = Callable[..., tuple]


class Decision(NamedTuple):
    """A law decided on a few tuples, `domains`, instead of its own.

    A decision that `proves` a table is one of that table's distributive
    laws over +; one that `needs` tables is sound only once every decision
    proving one of them has held.  See `_distributes`, `_multi_additive` and
    `_light` for the three kinds and why each is exact.
    """

    domains: tuple[Sequence[int], ...]
    proves: str = ""
    needs: tuple[str, ...] = ()


class Law(NamedTuple):
    """One axiom, checked over product(*domains) in row-major order.

    row(*prefix) gets all but the last coordinate and returns both sides of
    the law as two sequences of one type over the last domain; a nullary
    law (no domains) returns two plain values.  `message` is formatted with
    the witness.  The law is skipped once a law coded in `requires` failed.
    A law with a `decision` is scanned in full only when the decision does
    not show that it holds, to place its witness.
    """

    code: str
    message: str
    domains: tuple[Sequence[int], ...]
    row: Row
    requires: tuple[str, ...] = ()
    decision: Decision | None = None


# The three kinds of decision.  Each needs + to be an abelian group on the
# carrier (`_light` decides that associativity) and `gens` to generate it.
# With the last coordinate on the whole carrier, rows stay whole rows.


def _distributes(table: str, carrier: Sequence[int], gens: Sequence[int]) -> Decision:
    """x(y+z) = xy + xz, or (x+y)z = xz + yz, with y only on the generators.

    The y for which the law holds for all x and z are closed under +:
    x((y+y')+z) = x(y+(y'+z)) = xy + xy' + xz and x(y+y') = xy + xy', and
    the same for the right law; so they are the whole carrier.
    """
    return Decision((carrier, gens, carrier), proves=table)


def _multi_additive(
    tables: tuple[str, ...], carrier: Sequence[int], gens: Sequence[int]
) -> Decision:
    """A law whose two sides are additive in x, y and z once the named
    tables distribute on both sides, with x and y only on the generators.

    The difference of the sides is additive in each coordinate, so from
    (gens, gens, carrier) it vanishes on (carrier, gens, carrier) and then
    everywhere.
    """
    return Decision((gens, gens, carrier), needs=tables)


def _light(carrier: Sequence[int], gens: Sequence[int]) -> Decision:
    """Light's associativity test: (xg)z = x(gz) for every generator g.

    The g for which it holds for all x and z contain 0 (a two-sided zero) and
    are closed under the product: (x(gh))z = ((xg)h)z = (xg)(hz) =
    x(g(hz)) = x((gh)z).  `gens` must reach every element as a sum
    (...((0+g1)+g2)...)+gk, which `_sum_generators` walks for.
    """
    return Decision((carrier, gens, carrier))


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


def _decider(laws: Sequence[Law]) -> Callable[[Law], bool | None]:
    """verdict(law): whether a law of `laws` holds by its decision, or None
    when it has none or one it needs has not held.  Each decision runs at
    most once per validator call."""
    provers: dict[str, list[Law]] = {}
    for law in laws:
        if law.decision is not None and law.decision.proves:
            provers.setdefault(law.decision.proves, []).append(law)
    memo: dict[int, bool | None] = {}

    def verdict(law: Law) -> bool | None:
        decision = law.decision
        if decision is None:
            return None
        if id(law) not in memo:
            ready = all(verdict(p) for table in decision.needs for p in provers[table])
            memo[id(law)] = _first_witness(law.row, decision.domains) is None if ready else None
        return memo[id(law)]

    return verdict


def _law_violations(laws: Iterable[Law]) -> Iterator[Violation]:
    """One violation per failed law, in table order, each law decided or
    scanned on demand."""
    laws = tuple(laws)
    verdict = _decider(laws)
    failed: set[str] = set()
    for law in laws:
        if failed.isdisjoint(law.requires) and not verdict(law):
            witness = _first_witness(law.row, law.domains)
            if witness is not None:
                yield Violation(law.code, witness, law.message.format(*witness))
                failed.add(law.code)


def _law_holds(laws: Sequence[Law], gates: Sequence[Law] = ()) -> list[bool]:
    """Whether each law holds, by its decision where that settles it and by
    a full scan otherwise.  `gates` are laws that only prove tables for the
    decisions of `laws`; their own verdicts are not asked for."""
    verdict = _decider((*gates, *laws))
    return [
        _first_witness(law.row, law.domains) is None if (v := verdict(law)) is None else v
        for law in laws
    ]


def _gathers(table: Table) -> list[Callable[[Sequence[int]], tuple[int, ...]]]:
    """gathers[y](s) is the tuple of s[v] for v in table[y], built in C."""
    if len(table) == 1:  # itemgetter of a single index returns a bare value
        return [lambda s, v=table[0][0]: (s[v],)]
    return [itemgetter(*row) for row in table]


def _bracketed(f: Table, g: Table, h: Table, k: Table) -> Row:
    """(x g y) f z against x h (y k z), as rows over z."""
    over_k = _gathers(k)
    return lambda x, y: (f[g[x][y]], over_k[y](h[x]))


def _associative(op: Table) -> Row:
    """(xy)z against x(yz), as rows over z."""
    return _bracketed(op, op, op, op)


def _commutative(op: Table) -> Row:
    """xy against yx, as rows over y."""
    columns = tuple(zip(*op))
    return lambda x: (op[x], columns[x])


def _left_distributive(op: Table, add: Table) -> Row:
    """x(y+z) against xy + xz, as rows over z."""
    over_add, over_op = _gathers(add), _gathers(op)
    return lambda x, y: (over_add[y](op[x]), over_op[x](add[op[x][y]]))


def _right_distributive(op: Table, add: Table) -> Row:
    """(x+y)z against xz + yz, as rows over z."""
    over_op = _gathers(op)
    return lambda x, y: (op[add[x][y]], tuple(map(getitem, over_op[x](add), op[y])))


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
    return _group_violations(check_table_shape(add))


def _group_violations(t: Table) -> list[Violation]:
    """group_violations over a table that already passed check_table_shape."""
    rng = range(len(t))
    gens = _sum_generators(t)
    laws = (
        Law(
            "zero-not-at-index-zero",
            "index 0 does not act as zero on {}",
            (rng,),
            lambda: (list(zip(t[0], [r[0] for r in t])), list(zip(rng, rng))),
        ),
        Law("add-not-commutative", "not commutative", (rng, rng), _commutative(t)),
        Law(
            "add-not-associative",
            "not associative",
            (rng, rng, rng),
            _associative(t),
            decision=None if gens is None else _light(rng, gens),
        ),
        Law(
            "missing-additive-inverse",
            "{} has no inverse",
            (rng,),
            lambda: ([0 in r for r in t], [True] * len(t)),
        ),
    )
    return list(_law_violations(laws))


def validate_group(add: Sequence[Sequence[int]]) -> FiniteAbelianGroup:
    violations = group_violations(add)
    if violations:
        raise ValidationFailure(violations)
    table = freeze_table(add)
    return FiniteAbelianGroup(order=len(table), add=table)


def _cyclic(group: FiniteAbelianGroup, x: int) -> Subset:
    """The multiples of x: the cyclic subgroup it generates."""
    if not (0 <= x < group.order):
        raise InputError("subset-out-of-range", f"index {x} not in carrier")
    multiples, y = [0], x
    while y != 0:
        multiples.append(y)
        y = group.add[y][x]
    return frozenset(multiples)


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
    try:
        items = frozenset(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise InputError("bad-subset", f"cannot parse subset {text!r}") from exc
    if order is not None:
        for i in items:
            if not (0 <= i < order):
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
    return tuple(len(_cyclic(group, x)) for x in group.elements())


def direct_sum_group(orders: Sequence[int]) -> FiniteAbelianGroup:
    """Z_{n1} x ... x Z_{nk} with mixed-radix indexing, first factor fastest."""
    if not orders or any(n < 1 for n in orders):
        raise InputError("bad-group-spec", f"bad cyclic orders {orders!r}")
    total = 1
    for n in orders:
        total *= n

    def decode(x: int) -> tuple[int, ...]:
        parts = []
        for n in orders:
            x, r = divmod(x, n)
            parts.append(r)
        return tuple(parts)

    def encode(parts: Sequence[int]) -> int:
        x = 0
        for n, p in zip(reversed(orders), reversed(list(parts))):
            x = x * n + p
        return x

    add = [
        [
            encode([(a + b) % n for a, b, n in zip(decode(x), decode(y), orders)])
            for y in range(total)
        ]
        for x in range(total)
    ]
    return validate_group(add)


