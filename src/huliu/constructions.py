"""Builders and searches that populate the catalog of concrete structures.

The canonical example family is the null left action A ⋉ B: carrier A ⊕ B
with (a,b)·(a',b') = (a·a', φ(a)#b') for commutative unital rings A, B (B
nonzero) and a unital hom φ: A → B.  The census enumerates all structures
on a given abelian group by enumerating decompositions, component ring
structures, and homs — the parametrization the axioms force — and
re-validates every result exhaustively.  A ring structure on a subgroup is
searched as commuting additive maps x ↦ x·g, one per generator, checked on
generators only; each subgroup's rings are found once per census, and the
zero subgroup is never a component A (φ(1) = φ(0) = 0 is not 1_B).

A structure is fixed up to isomorphism by its splitting triple (A = R0
under ·, B = the halo under #, φ), and two structures are isomorphic
exactly when their triples are.  So the census up to isomorphism gives each
triple a canonical key before assembling it: the least structure-constant
tables of A and B over the ordered primary bases of their carriers, and the
least coordinate form of φ over the bases that reach those tables.  Only a
triple with a new key is assembled and validated; `lcrng_isomorphic`, the
brute-force search over additive bijections, is kept as the oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterator, NamedTuple, Sequence

from .errors import InputError, TheoremAlarm, ValidationFailure, Violation
from .kernel import (
    SENTINEL,
    FiniteAbelianGroup,
    Law,
    Subset,
    Table,
    _associative,
    _commutative,
    _cyclic,
    _distributes,
    _group_violations,
    _law_violations,
    _left_distributive,
    _multi_additive,
    _right_distributive,
    _sum,
    _sum_generators,
    check_table_shape,
    element_orders,
    enumerate_subgroups,
    generating_sequence,
)
from .lcrng import (
    LcRng,
    Metadata,
    RawLcRng,
    lcrng_violations,
    left_identities,
    validate_lcrng,
)


@dataclass(frozen=True)
class FiniteCommRing:
    group: FiniteAbelianGroup
    mul: Table
    one: int
    name: str = ""
    metadata: Metadata = ()

    @property
    def order(self) -> int:
        return self.group.order

    def plus(self, a: int, b: int) -> int:
        return self.group.add[a][b]

    def times(self, a: int, b: int) -> int:
        return self.mul[a][b]


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


def comm_ring_violations(ring: FiniteCommRing) -> list[Violation]:
    n = ring.group.order
    add = check_table_shape(ring.group.add)
    mul = check_table_shape(ring.mul)
    if len(mul) != n:
        raise InputError("table-shape-mismatch", "mul table does not match group order")
    if not (0 <= ring.one < n):
        raise InputError("identity-out-of-range", f"identity index {ring.one}")
    out = _group_violations(add)
    if out:
        return out
    rng = range(n)
    cube = (rng, rng, rng)
    gens = _sum_generators(add)
    distributes = _distributes("mul", rng, gens)
    laws = (
        Law(
            "ring-left-distributive",
            "x(y+z) != xy+xz",
            cube,
            _left_distributive(mul, add),
            decision=distributes,
        ),
        Law(
            "ring-right-distributive",
            "(x+y)z != xz+yz",
            cube,
            _right_distributive(mul, add),
            decision=distributes,
        ),
        Law(
            "ring-not-associative",
            "(xy)z != x(yz)",
            cube,
            _associative(mul),
            decision=_multi_additive(("mul",), rng, gens),
        ),
        Law("ring-not-commutative", "xy != yx", (rng, rng), _commutative(mul)),
        Law(
            "ring-identity-fails",
            "designated identity fails",
            (rng,),
            lambda: (mul[ring.one], tuple(rng)),
        ),
    )
    return list(_law_violations(laws))


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
    """Componentwise product ring; index (x, y) -> x + |A|·y."""
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
    """The null left action structure on A ⊕ B; re-verified on every build."""
    if b.order == 1:
        raise InputError("zero-b", "component B must be a nonzero ring")
    if phi.source != a or phi.target != b:
        raise InputError("hom-mismatch", "phi must map A to B")
    if phi.mapping[a.one] != b.one:
        raise InputError("non-unital-hom", "phi does not send identity to identity")
    na, nb = a.order, b.order
    n = na * nb

    def enc(x: int, y: int) -> int:
        return x + na * y

    add = tuple(
        tuple(
            enc(a.plus(u % na, v % na), b.plus(u // na, v // na)) for v in range(n)
        )
        for u in range(n)
    )
    mul = tuple(
        tuple(
            enc(a.times(u % na, v % na), b.times(phi(u % na), v // na)) for v in range(n)
        )
        for u in range(n)
    )
    loc = tuple(
        tuple(
            enc(0, b.times(u // na, v // na))
            if u % na == 0 and v % na == 0
            else SENTINEL
            for v in range(n)
        )
        for u in range(n)
    )
    raw = RawLcRng(
        group=FiniteAbelianGroup(order=n, add=add),
        mul=mul,
        left_identity=enc(a.one, 0),
        local_mul=loc,
        name=name or (f"null({a.name},{b.name})" if a.name and b.name else ""),
    )
    violations = lcrng_violations(raw)
    if violations:
        raise TheoremAlarm(
            "construction-invalid",
            "null construction failed validation",
            dump="\n".join(str(v) for v in violations),
        )
    return raw


def _expressions(group: FiniteAbelianGroup, gens: list[int]) -> dict[int, list[int]]:
    """Each reachable element as a multiset of generator indices summing to it."""
    expr: dict[int, list[int]] = {0: []}
    frontier = [0]
    while frontier:
        x = frontier.pop(0)
        for gi, g in enumerate(gens):
            y = group.add[x][g]
            if y not in expr:
                expr[y] = expr[x] + [gi]
                frontier.append(y)
    return expr


def _additive_maps(
    group: FiniteAbelianGroup, gens: list[int], targets: Sequence[int]
) -> Iterator[dict[int, int]]:
    """Additive maps from the subgroup the generators span, with generator
    images drawn from targets, in lexicographic order of those images.  A map
    is additive once h(x + g) = h(x) + h(g) for every x and every generator
    g: by induction along sums of generators."""
    expr = _expressions(group, gens)
    add = group.add
    for images in itertools.product(targets, repeat=len(gens)):
        h = {x: group.sum(images[i] for i in e) for x, e in expr.items()}
        if all(h[add[x][g]] == add[h[x]][v] for g, v in zip(gens, images) for x in expr):
            yield h


def _ring_structures(
    group: FiniteAbelianGroup, carrier: Subset
) -> Iterator[tuple[dict[tuple[int, int], int], int]]:
    """All commutative unital ring structures on a subgroup, as (table, one).

    A product additive in each argument is fixed by the additive maps
    hⱼ = (-)·gⱼ, one per generator, with hⱼ(gᵢ) = hᵢ(gⱼ) = gᵢgⱼ, so that
    constant has an order dividing gcd(ord gᵢ, ord gⱼ).  Both bracketings of
    a triple product are trilinear, so associativity is hᵢ∘hⱼ = hⱼ∘hᵢ on
    generators, and the identity is the first e with hⱼ(e) = gⱼ for every j.
    hⱼ is chosen after h₀..hⱼ₋₁, which fix its first j images, so structures
    come in lexicographic order of their constants gᵢgⱼ, i ≤ j, row by row.
    """
    members = sorted(carrier)
    gens = generating_sequence(group, carrier)
    expr = _expressions(group, gens)
    k = len(gens)
    # additive maps by their first j generator images, each list in lexicographic order
    by_prefix: dict[tuple[int, ...], list[dict[int, int]]] = {}
    for h in _additive_maps(group, gens, members):
        for j in range(k):
            by_prefix.setdefault(tuple(h[g] for g in gens[:j]), []).append(h)

    def extend(maps: list[dict[int, int]]) -> Iterator[list[dict[int, int]]]:
        if len(maps) == k:
            yield maps
            return
        g = gens[len(maps)]
        for h in by_prefix.get(tuple(m[g] for m in maps), []):
            if all(h[m[x]] == m[h[x]] for m in maps for x in gens):
                yield from extend(maps + [h])

    for maps in extend([]):
        one = next((e for e in members if all(h[e] == g for h, g in zip(maps, gens))), None)
        if one is not None:
            table = {
                (x, y): group.sum(maps[j][x] for j in expr[y]) for x in members for y in members
            }
            yield table, one


def _hom_maps(
    group: FiniteAbelianGroup,
    a_table: dict[tuple[int, int], int],
    a_one: int,
    a_carrier: Subset,
    b_table: dict[tuple[int, int], int],
    b_one: int,
    b_carrier: Subset,
) -> Iterator[dict[int, int]]:
    """All unital ring homs between subgroup rings living inside one group.

    Both products are bilinear, so an additive map is multiplicative once it
    is on generator pairs."""
    gens = generating_sequence(group, a_carrier)
    for phi in _additive_maps(group, gens, sorted(b_carrier)):
        if phi[a_one] == b_one and all(
            phi[a_table[(g, h)]] == b_table[(phi[g], phi[h])] for g in gens for h in gens
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
    table: dict[tuple[int, int], int], basis: tuple[int, ...], coords: Coordinates
) -> tuple[tuple[int, ...], ...]:
    """The products b_i·b_j, i ≤ j, in the basis's coordinates."""
    return tuple(coords[table[(x, y)]] for i, x in enumerate(basis) for y in basis[i:])


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
    with φ′∘α = β∘φ.  A least table is found once per ring up to relabeling:
    it is cached by the ring's constants over its carrier's first basis.
    """

    def __init__(self, group: FiniteAbelianGroup):
        self.group = group
        # carrier -> coordinates of each of its bases, the reference basis first
        self.frames: dict[Subset, dict[tuple[int, ...], Coordinates]] = {}
        # (orders, reference constants) -> (least table, its bases in reference coordinates)
        self.tables: dict[tuple, tuple[tuple, list[tuple[tuple[int, ...], ...]]]] = {}
        self.rings: dict[tuple[Subset, int], _RingKey] = {}

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

    def ring(self, carrier: Subset, index: int, table: dict[tuple[int, int], int]) -> _RingKey:
        """The key of the index-th ring structure on a carrier, whose table is given."""
        found = self.rings.get((carrier, index))
        if found is None:
            if carrier not in self.frames:
                self.frames[carrier] = {
                    b: self._coordinates(b)
                    for b in _primary_bases(self.group, carrier, self.orders)
                }
            frame = self.frames[carrier]
            ref, ref_coords = next(iter(frame.items()))
            orders = tuple(self.orders[x] for x in ref)
            constants = _constants(table, ref, ref_coords)
            if (orders, constants) not in self.tables:
                forms = {b: _constants(table, b, c) for b, c in frame.items()}
                least = min(forms.values())
                reaching = [tuple(ref_coords[x] for x in b) for b, f in forms.items() if f == least]
                self.tables[(orders, constants)] = (least, reaching)
            least, reaching = self.tables[(orders, constants)]
            point = {c: x for x, c in ref_coords.items()}
            bases = [tuple(point[c] for c in b) for b in reaching]
            found = _RingKey((orders, least), {b: frame[b] for b in bases})
            self.rings[(carrier, index)] = found
        return found

    @staticmethod
    def triple(a: _RingKey, b: _RingKey, phi: dict[int, int]) -> tuple:
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
    so each class keeps its first-found triple.  Keys are computed once the
    census has found a φ, and a (ring of A, ring of B) pair whose two ring
    keys have already run in full is skipped with the number of homs that
    run counted: isomorphic pairs have as many homs and no new keys.
    """
    n = group.order
    if n > 16:
        raise InputError("order-too-large", f"census is capped at order 16, got {n}")
    if max_candidates is not None and max_candidates <= 0:
        return []

    subgroups = enumerate_subgroups(group)
    ring_structures = cache(lambda carrier: list(_ring_structures(group, carrier)))
    keys = _TripleKeys(group)
    seen: set[tuple] = set()
    runs: dict[tuple, int] = {}  # (key of A, key of B) -> homs of a pair run in full
    found: list[LcRng] = []
    count = 0
    for a_carrier in subgroups:
        if len(a_carrier) < 2:
            continue  # phi(1_A) = phi(0) = 0 is never 1_B
        for b_carrier in subgroups:
            if len(b_carrier) < 2:
                continue
            if a_carrier & b_carrier != {0}:
                continue
            if len(a_carrier) * len(b_carrier) != n:
                continue
            for ia, (a_table, a_one) in enumerate(ring_structures(a_carrier)):
                for ib, (b_table, b_one) in enumerate(ring_structures(b_carrier)):
                    homs = _hom_maps(
                        group, a_table, a_one, a_carrier, b_table, b_one, b_carrier
                    )
                    if dedup:
                        if not runs:  # no key work until the census finds a φ
                            first = next(homs, None)
                            if first is None:
                                continue
                            homs = itertools.chain([first], homs)
                        a_key = keys.ring(a_carrier, ia, a_table)
                        b_key = keys.ring(b_carrier, ib, b_table)
                        pair = (a_key.key, b_key.key)
                        if pair in runs:
                            count += runs[pair]
                            if max_candidates is not None and count >= max_candidates:
                                return found
                            continue
                    run = 0
                    for phi in homs:
                        run += 1
                        count += 1
                        if not dedup or _new(seen, keys.triple(a_key, b_key, phi)):
                            raw = _assemble(
                                group, a_carrier, a_table, a_one, b_carrier, b_table, phi
                            )
                            found.append(validate_lcrng(raw))
                        if max_candidates is not None and count >= max_candidates:
                            return found
                    if dedup:
                        runs[pair] = run
    return found


def _new(seen: set[tuple], key: tuple) -> bool:
    if key in seen:
        return False
    seen.add(key)
    return True


def _assemble(
    group: FiniteAbelianGroup,
    a_carrier: Subset,
    a_table: dict[tuple[int, int], int],
    a_one: int,
    b_carrier: Subset,
    b_table: dict[tuple[int, int], int],
    phi: dict[int, int],
) -> RawLcRng:
    n = group.order
    add = group.add
    split: dict[int, tuple[int, int]] = {}
    for a in a_carrier:
        for b in b_carrier:
            split[add[a][b]] = (a, b)
    mul_rows = []
    for x in range(n):
        ax, _ = split[x]
        row = []
        for y in range(n):
            ay, by = split[y]
            row.append(add[a_table[(ax, ay)]][b_table[(phi[ax], by)]])
        mul_rows.append(tuple(row))
    loc_rows = []
    for x in range(n):
        row = []
        for y in range(n):
            if x in b_carrier and y in b_carrier:
                row.append(b_table[(x, y)])
            else:
                row.append(SENTINEL)
        loc_rows.append(tuple(row))
    return RawLcRng(
        group=group,
        mul=tuple(mul_rows),
        left_identity=a_one,
        local_mul=tuple(loc_rows),
    )


def lcrng_isomorphic(r1: LcRng, r2: LcRng) -> bool:
    """Brute-force isomorphism search over additive bijections fixing 0 that
    carry ·, #, and the designated left identity to a left identity."""
    if r1.order != r2.order:
        return False
    n = r1.order
    g1, g2 = r1.group, r2.group
    orders1 = element_orders(g1)
    orders2 = element_orders(g2)
    if sorted(orders1) != sorted(orders2):
        return False
    gens = generating_sequence(g1, frozenset(range(n)))
    expr = _expressions(g1, gens)
    lids2 = left_identities(r2)
    halo1 = sorted(r1.halo)
    candidates = [
        [y for y in range(n) if orders2[y] == orders1[g]] for g in gens
    ]
    for images in itertools.product(*candidates):
        sigma = [g2.sum(images[gi] for gi in expr[x]) for x in range(n)]
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
        "r4": validate_lcrng(semidirect_null(z2, z2, identity_hom(z2), name="r4")),
        "r8": validate_lcrng(semidirect_null(z4, z2, reduction_hom(z4, z2), name="r8")),
        "u8": validate_lcrng(
            semidirect_null(z2xz2, z2, projection_hom(z2xz2, z2, z2, 0), name="u8")
        ),
        "r18": validate_lcrng(semidirect_null(z6, z3, reduction_hom(z6, z3), name="r18")),
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
