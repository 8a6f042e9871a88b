"""Builders and searches that populate the catalog of concrete structures.

A commutative ring is one type, `FiniteCommRing`: a product on a subgroup of
a finite abelian group, in the group's indices, whose ring laws are one law
table (`_ring_violations`) shared by `comm_ring_violations` and the
component rings of integrality.py.  `zmod` and `ring_product` give rings on
their whole group, the census gives rings on subgroups.

The canonical example family is the null left action A ⋉ B: carrier A ⊕ B
with (a,b)·(a',b') = (a·a', φ(a)#b') for commutative unital rings A, B (B
nonzero) and a unital hom φ: A → B.  It is assembled from its splitting
triple by `_assemble`, for the census and for `semidirect_null`, which
places A and B on the two factor subgroups of `ring_product(A, B)`.
The census enumerates all structures on a given abelian group by
enumerating decompositions, component ring structures, and homs — the
parametrization the axioms force — and re-validates every result
exhaustively.  A ring structure on a subgroup is searched as commuting
additive maps x ↦ x·g, one per generator, checked on generators only; each
subgroup's rings are found at most once per census, and the zero subgroup
is never a component A (φ(1) = φ(0) = 0 is not 1_B).

A structure is fixed up to isomorphism by its splitting triple (A = R0
under ·, B = the halo under #, φ), and two structures are isomorphic
exactly when their triples are.  So the census up to isomorphism gives each
triple a canonical key before assembling it: the least structure-constant
tables of A and B over the ordered primary bases of their carriers, and the
least coordinate form of φ over the bases that reach those tables.  Only a
triple with a new key is assembled and validated; `lcrng_isomorphic`, the
brute-force search over additive bijections, is kept as the oracle.  Up to
isomorphism only the first complementary pair of subgroups of each pair of
group types is searched: an automorphism of the group carries its triples
onto those of every later pair of that type.  A pair whose exponents
rule out a unital φ (exp B ∤ exp A) is skipped before its rings are
listed, and a cyclic group, where every pair is such a pair, is answered
before any subgroup is listed.  The rings on a carrier fall into
isomorphism classes from one constant table each; only the first ring of
a class is keyed over every basis, and the homs are searched only between
the first rings of two classes, every later pair of those classes counting
as many.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError, TheoremAlarm, ValidationFailure, Violation
from .kernel import (
    SENTINEL,
    FiniteAbelianGroup,
    Law,
    Subset,
    Table,
    HOLDS,
    _additive,
    _byte_tables,
    _commutative,
    _cyclic,
    _law_violations,
    _product_laws,
    _require_whole,
    _sum,
    check_table_shape,
    element_orders,
    enumerate_subgroups,
    generating_sequence,
)
from .lcrng import LcRng, Metadata, RawLcRng, left_identities, validate_lcrng


@dataclass(frozen=True)
class FiniteCommRing:
    """A commutative unital ring on a subgroup of a group, in the group's
    indices: x·y is mul[x][y] for x and y in `carrier`, a sorted tuple that
    defaults to the whole group.  Entries of `mul` off carrier × carrier are
    never read.  A `ring` document holds a ring on its whole group."""

    group: FiniteAbelianGroup
    mul: Table
    one: int
    name: str = ""
    metadata: Metadata = ()
    carrier: tuple[int, ...] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.carrier is None:
            object.__setattr__(self, "carrier", tuple(range(self.group.order)))

    @property
    def order(self) -> int:
        return len(self.carrier)

    @cached_property
    def members(self) -> Subset:
        return frozenset(self.carrier)

    @cached_property
    def gens(self) -> list[int]:
        """Generators of the carrier, which must be a subgroup."""
        return generating_sequence(self.group, self.members)

    def plus(self, a: int, b: int) -> int:
        return self.group.add[a][b]

    def neg(self, a: int) -> int:
        return self.group.neg(a)

    def minus(self, a: int, b: int) -> int:
        return self.group.minus(a, b)

    def times(self, a: int, b: int) -> int:
        v = self.mul[a][b]
        if v < 0:
            raise InputError("product-undefined", f"{self.name} product undefined at ({a},{b})")
        return v

    def power(self, u: int, k: int) -> int:
        if k == 0:
            return self.one
        acc = u
        for _ in range(k - 1):
            acc = self.times(acc, u)
        return acc


@dataclass(frozen=True)
class RingHom:
    """Unital ring homomorphism as an index map, validated at construction."""

    source: FiniteCommRing
    target: FiniteCommRing
    mapping: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.mapping[a]


RING_CHECKS = (
    "ring-left-distributive",
    "ring-right-distributive",
    "ring-not-associative",
    "ring-not-commutative",
    "ring-identity-fails",
)


RING_LAWS = (
    ("ring-left-distributive", "x(y+z) != xy+xz"),
    ("ring-right-distributive", "(x+y)z != xz+yz"),
    ("ring-not-associative", "(xy)z != x(yz)"),
)


def _ring_violations(ring: FiniteCommRing) -> Iterator[Violation]:
    """The ring laws over the carrier, lazily, one violation per failed law.

    Closure under + and the product comes first and every other law waits
    for it; on a whole group it always holds.  Then come the laws of
    RING_CHECKS, the identity law split in two: the identity lies in the
    carrier, then it fixes each element.  Distributivity and associativity
    are decided on the carrier's generators.  On its whole group the ring
    reads the group's row form of + (`kernel._additive`).
    """
    carrier, members, one = ring.carrier, ring.members, ring.one
    add, mul = ring.group.add, ring.mul
    if ring.order == ring.group.order:
        M, A = *_byte_tables(carrier, mul), _additive(ring.group)._sums
    else:
        M, A = _byte_tables(carrier, mul, add)
    pairs = (carrier, carrier)
    everywhere = [True] * len(carrier)
    closed = ("ring-not-closed",)
    try:
        gens = ring.gens
    except InputError:  # not a subgroup, so the closure law fails first
        gens = None

    def closure(x: int) -> tuple:
        sums, products = map(add[x].__getitem__, carrier), map(mul[x].__getitem__, carrier)
        if members.issuperset(sums) and members.issuperset(products):
            return HOLDS
        return [add[x][y] in members and mul[x][y] in members for y in carrier], everywhere

    laws = (
        Law("ring-not-closed", "carrier not closed at ({},{})", pairs, closure),
        *_product_laws(M, A, carrier, gens, RING_LAWS, closed),
        Law("ring-not-commutative", "xy != yx", pairs, _commutative(M), closed),
        Law(
            "ring-identity-fails",
            "designated identity {} lies outside the carrier",
            ((one,),),
            lambda: ([one in members], [True]),
            closed,
        ),
        Law(
            "ring-identity-fails",
            "designated identity fails",
            (carrier,),
            lambda: (tuple(map(mul[one].__getitem__, carrier)), carrier),
            (*closed, "ring-identity-fails"),
        ),
    )
    return _law_violations(laws)


def comm_ring_violations(ring: FiniteCommRing) -> list[Violation]:
    n = ring.group.order
    group = _additive(ring.group)
    mul = check_table_shape(ring.mul)
    if len(mul) != n:
        raise InputError("table-shape-mismatch", "mul table does not match group order")
    if not (0 <= ring.one < n):
        raise InputError("identity-out-of-range", f"identity index {ring.one}")
    out = list(group._group_laws)
    if out:
        return out
    return list(_ring_violations(replace(ring, group=group)))


def validate_comm_ring(ring: FiniteCommRing) -> FiniteCommRing:
    violations = comm_ring_violations(ring)
    if violations:
        raise ValidationFailure(violations)
    return ring


def zmod(n: int) -> FiniteCommRing:
    """Integers mod n with canonical indexing; zmod(1) is the zero ring."""
    if n < 1:
        raise InputError("bad-order", f"zmod needs n >= 1, got {n}")
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    mul = tuple(tuple((i * j) % n for j in range(n)) for i in range(n))
    return FiniteCommRing(
        group=FiniteAbelianGroup(order=n, add=add), mul=mul, one=1 % n, name=f"Z{n}"
    )


def ring_product(a: FiniteCommRing, b: FiniteCommRing) -> FiniteCommRing:
    """Componentwise product of rings on their whole groups; index (x, y) -> x + |A|·y."""
    _require_whole("ring", a, b)
    na, nb = a.order, b.order
    n = na * nb

    def enc(x: int, y: int) -> int:
        return x + na * y

    def dec(v: int) -> tuple[int, int]:
        return v % na, v // na

    add = tuple(
        tuple(
            enc(a.plus(dec(u)[0], dec(v)[0]), b.plus(dec(u)[1], dec(v)[1])) for v in range(n)
        )
        for u in range(n)
    )
    mul = tuple(
        tuple(
            enc(a.times(dec(u)[0], dec(v)[0]), b.times(dec(u)[1], dec(v)[1]))
            for v in range(n)
        )
        for u in range(n)
    )
    return FiniteCommRing(
        group=FiniteAbelianGroup(order=n, add=add),
        mul=mul,
        one=enc(a.one, b.one),
        name=f"{a.name}x{b.name}" if a.name and b.name else "",
    )


def ring_hom(source: FiniteCommRing, target: FiniteCommRing, mapping) -> RingHom:
    """A unital hom between rings on their whole groups, checked on every pair."""
    _require_whole("ring", source, target)
    m = tuple(int(x) for x in mapping)
    if len(m) != source.order:
        raise InputError("hom-shape-mismatch", "mapping length differs from source order")
    for v in m:
        if not (0 <= v < target.order):
            raise InputError("hom-value-out-of-range", f"image {v} outside target")
    if m[source.one] != target.one:
        raise InputError("non-unital-hom", "hom does not send identity to identity")
    for x in range(source.order):
        for y in range(source.order):
            if m[source.plus(x, y)] != target.plus(m[x], m[y]):
                raise InputError("hom-not-additive", f"fails at ({x},{y})")
            if m[source.times(x, y)] != target.times(m[x], m[y]):
                raise InputError("hom-not-multiplicative", f"fails at ({x},{y})")
    return RingHom(source=source, target=target, mapping=m)


def identity_hom(ring: FiniteCommRing) -> RingHom:
    return ring_hom(ring, ring, tuple(range(ring.order)))


def reduction_hom(source: FiniteCommRing, target: FiniteCommRing) -> RingHom:
    """x -> x mod |target| between canonical zmod rings (needs |target| | |source|)."""
    if source.order % target.order != 0:
        raise InputError(
            "no-canonical-hom", f"{target.order} does not divide {source.order}"
        )
    return ring_hom(source, target, tuple(x % target.order for x in range(source.order)))


def projection_hom(
    product: FiniteCommRing, first: FiniteCommRing, second: FiniteCommRing, which: int
) -> RingHom:
    """Projection of a ring_product(first, second) onto one factor."""
    na = first.order
    if product.order != na * second.order:
        raise InputError("hom-shape-mismatch", "product ring order does not match factors")
    if which == 0:
        mapping = tuple(v % na for v in range(product.order))
        return ring_hom(product, first, mapping)
    if which == 1:
        mapping = tuple(v // na for v in range(product.order))
        return ring_hom(product, second, mapping)
    raise InputError("bad-factor", "which must be 0 or 1")


def semidirect_null(
    a: FiniteCommRing, b: FiniteCommRing, phi: RingHom, name: str = ""
) -> RawLcRng:
    """The null left action structure A ⋉ B, assembled on the group of
    ring_product(A, B) with A and B on its two factor subgroups (index
    a + |A|·b); re-verified on every build, so its products come back
    marked as checked (`kernel.check_table_shape`)."""
    return _null_structure(a, b, phi, name).raw()


def _null_structure(a: FiniteCommRing, b: FiniteCommRing, phi: RingHom, name: str) -> LcRng:
    """`semidirect_null` as the structure its one validation returns."""
    if b.order == 1:
        raise InputError("zero-b", "component B must be a nonzero ring")
    if phi.source != a or phi.target != b:
        raise InputError("hom-mismatch", "phi must map A to B")
    if phi.mapping[a.one] != b.one:
        raise InputError("non-unital-hom", "phi does not send identity to identity")
    na, product = a.order, ring_product(a, b)
    raw = _assemble(
        replace(product, one=a.one, carrier=tuple(range(na))),
        replace(product, one=na * b.one, carrier=tuple(range(0, product.order, na))),
        [na * v for v in phi.mapping],
    )
    name = name or (f"null({a.name},{b.name})" if a.name and b.name else "")
    try:
        return validate_lcrng(replace(raw, name=name))
    except ValidationFailure as failure:
        raise TheoremAlarm(
            "construction-invalid",
            "null construction failed validation",
            dump="\n".join(str(v) for v in failure.violations),
        ) from failure


Walk = list[tuple[int, int, int]]


def _walk(group: FiniteAbelianGroup, gens: Sequence[int]) -> Walk:
    """Each nonzero element the generators reach, breadth first from 0, as
    (y, x, i) with y = x + gens[i] and x reached before y."""
    walk: Walk = []
    reached = {0}
    frontier = [0]
    for x in frontier:  # grows while it is walked
        for i, g in enumerate(gens):
            y = group.add[x][g]
            if y not in reached:
                reached.add(y)
                walk.append((y, x, i))
                frontier.append(y)
    return walk


def _extend(add: Table, walk: Walk, images: Sequence[int]) -> list[int]:
    """The map h along a walk with h(0) = 0 and h(x + gens[i]) = h(x) +
    images[i], indexed by the group's elements, SENTINEL off the span.  It
    is additive exactly when that holds for every x of the span and i."""
    h = [SENTINEL] * len(add)
    h[0] = 0
    for y, x, i in walk:
        h[y] = add[h[x]][images[i]]
    return h


def _additive_maps(
    group: FiniteAbelianGroup, gens: list[int], targets: Sequence[int]
) -> Iterator[list[int]]:
    """Additive maps from the subgroup the generators span, with generator
    images drawn from targets, in lexicographic order of those images.  A map
    is additive once h(x + g) = h(x) + h(g) for every x and every generator
    g: by induction along sums of generators."""
    walk = _walk(group, gens)
    span = [0, *(y for y, _, _ in walk)]
    add = group.add
    for images in itertools.product(targets, repeat=len(gens)):
        h = _extend(add, walk, images)
        if all(h[add[x][g]] == add[h[x]][v] for g, v in zip(gens, images) for x in span):
            yield h


def _ring_structures(group: FiniteAbelianGroup, carrier: Subset) -> Iterator[FiniteCommRing]:
    """All commutative unital ring structures on a subgroup.

    A product additive in each argument is fixed by the additive maps
    hⱼ = (-)·gⱼ, one per generator, with hⱼ(gᵢ) = hᵢ(gⱼ) = gᵢgⱼ, so that
    constant has an order dividing gcd(ord gᵢ, ord gⱼ).  Both bracketings of
    a triple product are trilinear, so associativity is hᵢ∘hⱼ = hⱼ∘hᵢ on
    generators, and the identity is the first e with hⱼ(e) = gⱼ for every j.
    hⱼ is chosen after h₀..hⱼ₋₁, which fix its first j images, so structures
    come in lexicographic order of their constants gᵢgⱼ, i ≤ j, row by row.
    The row of x is the additive map y ↦ x·y, with images hⱼ(x).
    """
    members = tuple(sorted(carrier))
    gens = generating_sequence(group, carrier)
    walk = _walk(group, gens)
    k = len(gens)
    # additive maps by their first j generator images, each list in lexicographic order
    by_prefix: dict[tuple[int, ...], list[list[int]]] = {}
    for h in _additive_maps(group, gens, members):
        for j in range(k):
            by_prefix.setdefault(tuple(h[g] for g in gens[:j]), []).append(h)

    def extend(maps: list[list[int]]) -> Iterator[list[list[int]]]:
        if len(maps) == k:
            yield maps
            return
        g = gens[len(maps)]
        for h in by_prefix.get(tuple(m[g] for m in maps), []):
            if all(h[m[x]] == m[h[x]] for m in maps for x in gens):
                yield from extend(maps + [h])

    blank = (SENTINEL,) * group.order
    for maps in extend([]):
        one = next((e for e in members if all(h[e] == g for h, g in zip(maps, gens))), None)
        if one is not None:
            rows = [blank] * group.order
            for x in members:
                rows[x] = tuple(_extend(group.add, walk, [m[x] for m in maps]))
            yield FiniteCommRing(group, tuple(rows), one, carrier=members)


def _hom_maps(a: FiniteCommRing, b: FiniteCommRing) -> Iterator[list[int]]:
    """All unital ring homs between two rings on subgroups of one group.

    Both products are bilinear, so an additive map is multiplicative once it
    is on generator pairs."""
    gens = a.gens
    for phi in _additive_maps(a.group, gens, b.carrier):
        if phi[a.one] == b.one and all(
            phi[a.mul[g][h]] == b.mul[phi[g]][phi[h]] for g in gens for h in gens
        ):
            yield phi


def _is_prime_power(q: int) -> bool:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def _primary_bases(
    group: FiniteAbelianGroup, carrier: Subset, orders: Sequence[int]
) -> list[tuple[int, ...]]:
    """Every ordered primary basis of a subgroup: elements of prime-power
    order, orders ascending, whose cyclic subgroups sum directly to it."""
    members = [x for x in sorted(carrier) if x and _is_prime_power(orders[x])]
    bases: list[tuple[int, ...]] = []

    def grow(basis: tuple[int, ...], span: Subset) -> None:
        if len(span) == len(carrier):
            bases.append(basis)
            return
        least = orders[basis[-1]] if basis else 2
        for x in members:
            if orders[x] >= least:
                bigger = _sum(group, span, _cyclic(group, x))
                if len(bigger) == len(span) * orders[x]:
                    grow(basis + (x,), bigger)

    grow((), frozenset({0}))
    return bases


Coordinates = dict[int, tuple[int, ...]]


def _constants(
    mul: Table, basis: tuple[int, ...], coords: Coordinates
) -> tuple[tuple[int, ...], ...]:
    """The products b_i·b_j, i ≤ j, in the basis's coordinates."""
    return tuple(coords[mul[x][y]] for i, x in enumerate(basis) for y in basis[i:])


class _RingKey(NamedTuple):
    """A ring's canonical key, and the coordinates of each basis that reaches it."""

    key: tuple
    bases: dict[tuple[int, ...], Coordinates]


class _TripleKeys:
    """Canonical keys of splitting triples (A, B, φ) on one group.

    A ring's key is the orders of an ordered primary basis b of its carrier
    (prime-power orders, ascending) and its least structure-constant table,
    the products b_i·b_j for i ≤ j in b-coordinates, over all such bases.
    The bases that reach that table differ by ring automorphisms.  A
    triple's key adds the least coordinate form of φ, the φ(a_i) in
    b-coordinates, over those bases a of A and b of B.  Two triples get one
    key exactly when they are isomorphic through ring isomorphisms α, β
    with φ′∘α = β∘φ.

    The rings on one carrier fall into classes (`classes`) from one table
    each: any two ordered primary bases have the same orders, so an
    automorphism of the carrier carries one onto the other, and the tables
    of a ring over all bases are the first-basis tables of the rings
    isomorphic to it on its carrier.
    """

    def __init__(self, group: FiniteAbelianGroup):
        self.group = group
        # carrier -> coordinates of each of its bases
        self.frames: dict[Subset, dict[tuple[int, ...], Coordinates]] = {}

    @cached_property
    def orders(self) -> tuple[int, ...]:
        return element_orders(self.group)

    def _coordinates(self, basis: tuple[int, ...]) -> Coordinates:
        """Each element of the basis's span as its coefficient tuple."""
        add = self.group.add
        coords: Coordinates = {0: ()}
        for b in basis:
            multiples = [0]
            for _ in range(self.orders[b] - 1):
                multiples.append(add[multiples[-1]][b])
            coords = {
                add[x][m]: c + (k,) for x, c in coords.items() for k, m in enumerate(multiples)
            }
        return coords

    def _frame(self, carrier: Subset) -> dict[tuple[int, ...], Coordinates]:
        """The coordinates of each ordered primary basis of a carrier."""
        if carrier not in self.frames:
            self.frames[carrier] = {
                b: self._coordinates(b) for b in _primary_bases(self.group, carrier, self.orders)
            }
        return self.frames[carrier]

    def ring(self, ring: FiniteCommRing) -> _RingKey:
        """The key of a ring: its least constant table over its carrier's bases."""
        return self._key(ring, self._forms(ring))

    def _forms(self, ring: FiniteCommRing) -> dict[tuple[int, ...], tuple]:
        """A ring's constant table over each basis of its carrier."""
        return {b: _constants(ring.mul, b, c) for b, c in self._frame(ring.carrier).items()}

    def _key(self, ring: FiniteCommRing, forms: dict[tuple[int, ...], tuple]) -> _RingKey:
        frame = self._frame(ring.carrier)
        least = min(forms.values())
        orders = tuple(self.orders[x] for x in next(iter(frame)))
        return _RingKey((orders, least), {b: frame[b] for b, f in forms.items() if f == least})

    def classes(self, rings: Iterable[FiniteCommRing]) -> list[_RingKey]:
        """Each ring on one carrier with the key of the first ring of its
        class.  A ring whose first-basis table is a table of an earlier
        class joins it; only the first ring of a class is keyed over every
        basis.  The bases of the key are those of that first ring."""
        known: dict[tuple, _RingKey] = {}
        keys = []
        for ring in rings:
            basis, coords = next(iter(self._frame(ring.carrier).items()))
            form = _constants(ring.mul, basis, coords)
            if form not in known:
                forms = self._forms(ring)
                known.update(dict.fromkeys(forms.values(), self._key(ring, forms)))
            keys.append(known[form])
        return keys

    @staticmethod
    def triple(a: _RingKey, b: _RingKey, phi: Sequence[int]) -> tuple:
        form = min(
            tuple(coords[phi[x]] for x in basis) for basis in a.bases for coords in b.bases.values()
        )
        return a.key, b.key, form


def enumerate_lcrngs(
    group: FiniteAbelianGroup,
    max_candidates: int | None = None,
    dedup: bool = True,
) -> list[LcRng]:
    """Census of all structures on a group (order <= 16), optionally up to
    isomorphism by permutations fixing 0 and respecting left identities.

    Each candidate is a splitting triple (A, B, φ) on complementary
    subgroups, found in a fixed order; `max_candidates` stops after that
    many triples.  Without dedup every triple is assembled and validated.
    With dedup only a triple whose canonical key (`_TripleKeys`) is new is,
    so each class keeps its first-found triple.  Only the first carrier
    pair of each pair of group types runs, and each later one counts that
    pair's triples: if A ⊕ B = A′ ⊕ B′ with A ≅ A′ and B ≅ B′, the two
    isomorphisms glue to an automorphism of the group that carries the
    triples on (A, B) one to one onto isomorphic triples on (A′, B′).

    Within a carrier pair, with dedup, the φ are searched only on the pair
    of the first rings of two ring classes (`_TripleKeys.classes`); every
    later ring pair of those classes counts that pair's φ.  Isomorphisms
    α: A → A′ and β: B → B′ carry φ to β∘φ∘α⁻¹, one to one, so the later
    pair has as many φ and none of a new class; the first pair precedes it
    in product order, so every class keeps its first triple and every cut
    of `max_candidates` falls where it fell.

    A carrier pair runs only when exp B divides exp A, the exponent being
    the last entry of a type; any other pair has no unital φ, so no triple
    and nothing to count.  In a unital ring R on a finite abelian group,
    m·x = (m·1)·x, so m·1 = 0 gives m·R = 0, and the additive order of 1
    is the exponent of (R, +).  An additive φ with φ(1_A) = 1_B gives
    ord 1_B | ord 1_A, that is exp B | exp A.

    So a cyclic group, one with an element of order |G|, has no structure,
    and it is answered before any subgroup is listed.  A ⊕ B is cyclic only
    when gcd(|A|, |B|) = 1, and then exp B = |B| > 1 is prime to exp A.
    Conversely a group that is not cyclic has a Sylow p-subgroup
    Z_{p^a} ⊕ P′ with P′ nonzero and exp P′ | p^a.  Take A = Z_{p^a} ⊕ the
    other Sylow subgroups and B = P′, each a product of cyclic rings: the
    projection onto Z_{p^a} followed by reduction into each cyclic factor
    of B is a unital φ.  So the census is empty exactly on cyclic groups.
    """
    n = group.order
    if n > 16:
        raise InputError("order-too-large", f"census is capped at order 16, got {n}")
    limit = math.inf if max_candidates is None else max_candidates
    if limit <= 0:
        return []

    keys = _TripleKeys(group)
    if n in keys.orders:
        return []  # cyclic
    rings = cache(lambda carrier: list(_ring_structures(group, carrier)))
    classes = cache(lambda carrier: keys.classes(rings(carrier)))
    seen: set[tuple] = set()
    runs: dict[tuple, int] = {}  # (type of A, type of B) -> triples of its first pair
    found: list[LcRng] = []
    count = 0
    for a_carrier, b_carrier in _complements(group):
        kind = (_type(keys.orders, a_carrier), _type(keys.orders, b_carrier))
        if kind[0][-1] % kind[1][-1]:
            continue  # exp B ∤ exp A: no unital φ
        if dedup and kind in runs:
            count += runs[kind]
            if count >= limit:
                return found
            continue
        start = count
        homs: dict[tuple, int] = {}  # a pair of ring classes -> the φ count of its first ring pair
        pairs = itertools.product(enumerate(rings(a_carrier)), enumerate(rings(b_carrier)))
        for (i, a), (j, b) in pairs:
            ka, kb = classes(a_carrier)[i], classes(b_carrier)[j]
            pair = (ka.key, kb.key) if dedup else (i, j)
            if pair in homs:
                count += homs[pair]
                if count >= limit:
                    return found
                continue
            before = count
            for phi in _hom_maps(a, b):
                count += 1
                if not dedup or _new(seen, keys.triple(ka, kb, phi)):
                    found.append(validate_lcrng(_assemble(a, b, phi)))
                if count >= limit:
                    return found
            homs[pair] = count - before
        runs[kind] = count - start
    return found


def _complements(group: FiniteAbelianGroup) -> Iterator[tuple[Subset, Subset]]:
    """Each pair of nonzero subgroups (A, B) with A ⊕ B the group, A in
    subgroup order, then B.  The zero subgroup is never a component A:
    φ(1_A) = φ(0) = 0 is never 1_B."""
    subgroups = [h for h in enumerate_subgroups(group) if len(h) > 1]
    for a, b in itertools.product(subgroups, repeat=2):
        if len(a) * len(b) == group.order and a & b == {0}:
            yield a, b


def _type(orders: Sequence[int], carrier: Iterable[int]) -> tuple[int, ...]:
    """A finite abelian group's type up to isomorphism: its sorted element orders."""
    return tuple(sorted(orders[x] for x in carrier))


def _new(seen: set[tuple], key: tuple) -> bool:
    if key in seen:
        return False
    seen.add(key)
    return True


def _assemble(a: FiniteCommRing, b: FiniteCommRing, phi: Sequence[int]) -> RawLcRng:
    """The null construction A ⋉ B of a splitting triple whose rings lie on
    complementary subgroups of one group: (a+b)·(a'+b') = aa' + φ(a)b',
    e = 1_A, and # is the product of B on B."""
    group, add = a.group, a.group.add
    split = {add[x][y]: (x, y) for x in a.carrier for y in b.carrier}
    parts = [split[v] for v in range(group.order)]
    mul = []
    for ax, _ in parts:
        ra, rb = a.mul[ax], b.mul[phi[ax]]
        mul.append(tuple(add[ra[ay]][rb[by]] for ay, by in parts))
    on_b = [y in b.members for y in range(group.order)]
    blank = (SENTINEL,) * group.order
    loc = tuple(
        tuple(v if ok else SENTINEL for v, ok in zip(row, on_b)) if on_x else blank
        for row, on_x in zip(b.mul, on_b)
    )
    return RawLcRng(group=group, mul=tuple(mul), left_identity=a.one, local_mul=loc)


def lcrng_isomorphic(r1: LcRng, r2: LcRng) -> bool:
    """Brute-force isomorphism search over additive bijections fixing 0 that
    carry ·, #, and the designated left identity to a left identity."""
    _require_whole("structure", r1, r2)
    if r1.order != r2.order:
        return False
    n = r1.order
    g1, g2 = r1.group, r2.group
    orders1 = element_orders(g1)
    orders2 = element_orders(g2)
    if _type(orders1, range(n)) != _type(orders2, range(n)):
        return False
    gens = generating_sequence(g1, frozenset(range(n)))
    walk = _walk(g1, gens)
    lids2 = left_identities(r2)
    halo1 = sorted(r1.halo)
    candidates = [
        [y for y in range(n) if orders2[y] == orders1[g]] for g in gens
    ]
    for images in itertools.product(*candidates):
        sigma = _extend(g2.add, walk, images)
        if (
            sigma[r1.left_identity] in lids2
            and frozenset(sigma[x] for x in r1.halo) == r2.halo
            and len(set(sigma)) == n
            and _carries(sigma, g1.add, g2.add, range(n))
            and _carries(sigma, r1.mul, r2.mul, range(n))
            and _carries(sigma, r1.local_mul, r2.local_mul, halo1)
        ):
            return True
    return False


def _carries(sigma: list[int], t1: Table, t2: Table, dom: Sequence[int]) -> bool:
    """sigma(x∘y) = sigma(x)∘'sigma(y) for all x, y in dom."""
    return all(
        [sigma[t1[x][y]] for y in dom] == [t2[sigma[x]][sigma[y]] for y in dom] for x in dom
    )


def catalog() -> dict[str, LcRng]:
    """The concrete structures used throughout the tests and demos."""
    z2, z4, z6, z3 = zmod(2), zmod(4), zmod(6), zmod(3)
    z2xz2 = ring_product(z2, z2)
    return {
        "r4": _null_structure(z2, z2, identity_hom(z2), "r4"),
        "r8": _null_structure(z4, z2, reduction_hom(z4, z2), "r8"),
        "u8": _null_structure(z2xz2, z2, projection_hom(z2xz2, z2, z2, 0), "u8"),
        "r18": _null_structure(z6, z3, reduction_hom(z6, z3), "r18"),
    }


def catalog_pairs() -> list[tuple[str, LcRng, Subset]]:
    """Strict subrng pairs used by the integrality and lying-over suites:
    the identity pair of each catalog structure plus the diagonal pair."""
    structures = catalog()
    pairs = [
        (f"{name}-identity", s, frozenset(range(s.order))) for name, s in structures.items()
    ]
    pairs.append(("u8-diagonal", structures["u8"], frozenset({0, 3, 4, 7})))
    return pairs
