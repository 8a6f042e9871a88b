import itertools
import math
from collections import Counter

import pytest

from huliu import (
    InputError,
    RawLcRng,
    SENTINEL,
    catalog,
    component_ring,
    direct_sum_group,
    emit_structure,
    enumerate_lcrngs,
    identity_hom,
    lcrng_isomorphic,
    lcrng_violations,
    left_identities,
    parse_structure,
    projection_hom,
    reduction_hom,
    ring_hom,
    ring_product,
    semidirect_null,
    validate_comm_ring,
    zmod,
)
import huliu.lcrng
from huliu.cli import _resolve_hom
import huliu.constructions
from huliu.constructions import _ring_structures
from huliu.kernel import element_orders, enumerate_subgroups, generating_sequence
from oracles import (
    GROUPS_TO_16,
    all_pairs_firsts,
    brute_dedup,
    brute_ring_classes,
    brute_ring_structures,
    is_ring_table,
    reference_null,
)


def test_zmod_values():
    z2 = validate_comm_ring(zmod(2))
    assert z2.order == 2 and z2.one == 1
    z4 = zmod(4)
    assert z4.times(2, 2) == 0
    z1 = zmod(1)
    assert z1.order == 1 and z1.one == 0


def test_zero_ring_is_rejected_as_halo_ingredient():
    with pytest.raises(InputError) as err:
        semidirect_null(zmod(2), zmod(1), ring_hom(zmod(2), zmod(1), (0, 0)))
    assert err.value.code == "zero-b"


def test_ring_product_and_projections():
    p = validate_comm_ring(ring_product(zmod(2), zmod(3)))
    assert p.order == 6
    pi0 = projection_hom(p, zmod(2), zmod(3), 0)
    pi1 = projection_hom(p, zmod(2), zmod(3), 1)
    assert pi0(p.one) == 1 and pi1(p.one) == 1


def test_hom_validation():
    with pytest.raises(InputError) as err:
        ring_hom(zmod(2), zmod(2), (0, 0))
    assert err.value.code == "non-unital-hom"
    with pytest.raises(InputError) as err:
        ring_hom(zmod(2), zmod(4), (0, 1))
    assert err.value.code == "hom-not-additive"
    with pytest.raises(InputError) as err:
        reduction_hom(zmod(4), zmod(3))
    assert err.value.code == "no-canonical-hom"
    assert identity_hom(zmod(5)).mapping == (0, 1, 2, 3, 4)


def test_rings_on_proper_subgroups_are_refused_by_whole_group_builders(r8):
    """The halo ring of r8 lives on {0, 4} of Z8 x Z2's eight elements."""
    halo_ring = component_ring(r8, 1)
    z2 = zmod(2)
    calls = [
        lambda: identity_hom(halo_ring),
        lambda: ring_hom(z2, halo_ring, (0, 4)),
        lambda: ring_hom(halo_ring, z2, tuple(range(8))),
        lambda: ring_product(halo_ring, z2),
        lambda: ring_product(z2, halo_ring),
    ]
    for call in calls:
        with pytest.raises(InputError) as err:
            call()
        assert err.value.code == "ring-not-on-whole-group"
        assert "component-1 lives on 2 of the 8 elements" in str(err.value)


def test_null_construction_invariants(cat):
    specs = {
        "r4": (2, 2),
        "r8": (4, 2),
        "u8": (4, 2),
        "r18": (6, 3),
    }
    for name, s in cat.items():
        na, nb = specs[name]
        assert s.halo == frozenset(na * b for b in range(nb))
        assert s.r0 == frozenset(range(na))
        assert left_identities(s) == frozenset(
            s.plus(s.left_identity, na * b) for b in range(nb)
        )


def test_builder_output_always_validates():
    raw = semidirect_null(zmod(3), zmod(3), identity_hom(zmod(3)))
    assert lcrng_violations(raw) == []


def test_catalog_validates_each_structure_once(monkeypatch):
    """The construction's own validation is the one the catalog keeps."""
    checked = huliu.lcrng._checked
    calls = []
    monkeypatch.setattr(huliu.lcrng, "_checked", lambda raw: calls.append(raw.name) or checked(raw))
    structures = catalog()
    assert calls == ["r4", "r8", "u8", "r18"] == list(structures)
    assert all(checked(s.raw()) == ([], s) for s in structures.values())


def _null_tables(raw):
    return raw.group.add, raw.mul, raw.local_mul, raw.left_identity, raw.name


def _factor_lists(cap, prefix=()):
    """Every sequence of factors >= 2 whose product is at most cap."""
    product = math.prod(prefix)
    if prefix:
        yield prefix
    for f in range(2, cap // product + 1):
        yield from _factor_lists(cap, prefix + (f,))


def test_null_construction_matches_the_index_formula(cat):
    """semidirect_null assembles the triple on the factor subgroups of
    ring_product(A, B); the tables are those of the index formula
    (a, b) -> a + |A|·b, on the catalog and on every `construct` spec pair
    of factors >= 2 up to order 64 that each hom recipe accepts."""
    z2, z4, z6, z3 = zmod(2), zmod(4), zmod(6), zmod(3)
    z2xz2 = ring_product(z2, z2)
    recipes = {
        "r4": (z2, z2, identity_hom(z2)),
        "r8": (z4, z2, reduction_hom(z4, z2)),
        "u8": (z2xz2, z2, projection_hom(z2xz2, z2, z2, 0)),
        "r18": (z6, z3, reduction_hom(z6, z3)),
    }
    for name, (a, b, phi) in recipes.items():
        assert _null_tables(cat[name]) == _null_tables(reference_null(a, b, phi, name)), name
    accepted = Counter()
    for fa, fb in itertools.product(_factor_lists(32), repeat=2):
        if math.prod(fa + fb) > 64:
            continue
        a_spec, b_spec = ("zmod:" + "x".join(map(str, f)) for f in (fa, fb))
        for hom in ("id", "reduction", "p1", "p2"):
            try:
                a, b, phi = _resolve_hom(a_spec, b_spec, hom)
            except InputError:
                continue
            got, want = semidirect_null(a, b, phi), reference_null(a, b, phi)
            assert _null_tables(got) == _null_tables(want), (a_spec, b_spec, hom)
            accepted[hom] += 1
    assert accepted == {"id": 13, "reduction": 133, "p1": 25, "p2": 25}


def _brute_census(group):
    """Independent census: multiplications with additive rows and additive
    row-assignment (forced by distributivity), every left identity, every
    local table on the computed halo, filtered by the full validator."""
    n = group.order
    gens = generating_sequence(group, frozenset(range(n)))
    add = group.add

    expr = {0: []}
    frontier = [0]
    while frontier:
        x = frontier.pop(0)
        for gi, g in enumerate(gens):
            y = add[x][g]
            if y not in expr:
                expr[y] = expr[x] + [gi]
                frontier.append(y)

    endos = []
    for images in itertools.product(range(n), repeat=len(gens)):
        f = [0] * n
        for x in range(n):
            acc = 0
            for gi in expr[x]:
                acc = add[acc][images[gi]]
            f[x] = acc
        if all(f[add[x][y]] == add[f[x]][f[y]] for x in range(n) for y in range(n)):
            endos.append(tuple(f))

    found = set()
    for gen_rows in itertools.product(endos, repeat=len(gens)):
        rows = [None] * n
        for x in range(n):
            acc = tuple([0] * n)
            for gi in expr[x]:
                acc = tuple(add[a][b] for a, b in zip(acc, gen_rows[gi]))
            rows[x] = acc
        mul = tuple(rows)
        for e in range(n):
            if mul[e] != tuple(range(n)):
                continue
            halo = [x for x in range(n) if mul[x][e] == 0]
            if not 1 < len(halo) <= 4:
                continue
            pairs = [(a, b) for a in halo for b in halo]
            for values in itertools.product(halo, repeat=len(pairs)):
                loc = [[SENTINEL] * n for _ in range(n)]
                for (a, b), v in zip(pairs, values):
                    loc[a][b] = v
                raw = RawLcRng(
                    group=group,
                    mul=mul,
                    left_identity=e,
                    local_mul=tuple(map(tuple, loc)),
                )
                if not lcrng_violations(raw):
                    found.add((mul, tuple(map(tuple, loc)), e))
    return found


@pytest.mark.parametrize("orders,expected", [([2], 0), ([4], 0), ([2, 2], 6)])
def test_census_matches_brute_oracle(orders, expected):
    group = direct_sum_group(orders)
    ours = enumerate_lcrngs(group, dedup=False)
    assert len(ours) == expected
    keys = {(s.mul, s.local_mul, s.left_identity) for s in ours}
    assert keys == _brute_census(group)


def _spec(orders):
    return "x".join(map(str, orders))


def _tables(s):
    return s.mul, s.local_mul, s.left_identity


ORACLE_GROUPS = [(n,) for n in range(1, 13)] + [(2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6), (2, 2, 3)]


@pytest.mark.parametrize("orders", ORACLE_GROUPS, ids=_spec)
def test_census_keeps_the_representatives_of_the_brute_dedup(orders):
    """Every abelian group of order <= 12 (Z2xZ6 under two presentations):
    the triple keys keep exactly the structures that comparing each
    candidate with every kept class by `lcrng_isomorphic` keeps, in order."""
    group = direct_sum_group(orders)
    ours = enumerate_lcrngs(group)
    brute = brute_dedup(enumerate_lcrngs(group, dedup=False))
    assert [_tables(s) for s in ours] == [_tables(s) for s in brute]


def test_max_candidates_counts_the_triples_of_skipped_pairs(census_of):
    """With K candidates the census keeps the classes whose first triple is
    among the first K, the same cut as without dedup, although it skips
    whole carrier pairs and assembles one triple per class."""
    group = direct_sum_group([2, 2, 2])
    raw = [_tables(s) for s in enumerate_lcrngs(group, dedup=False)]
    firsts = [raw.index(_tables(s)) for s in census_of((2, 2, 2))]
    assert firsts == [0, 2, 7, 336, 338]
    for k in sorted({1, 2, 3, len(raw), len(raw) + 1} | {p + d for p in firsts for d in (0, 1)}):
        kept = [_tables(s) for s in enumerate_lcrngs(group, max_candidates=k)]
        assert kept == [raw[p] for p in firsts if p < k], k


@pytest.mark.parametrize("orders", [o for o in GROUPS_TO_16 if o != (2, 2, 2, 2)], ids=_spec)
def test_census_keeps_what_every_carrier_pair_keeps(orders):
    """Every abelian group of order <= 16 but Z2^4 (its 21 classes are
    pinned by CENSUS; the oracle takes seconds there): skipping the carrier
    pairs of a type already run keeps the classes, and the cut of
    max_candidates, of running every pair.  Cut-offs fall one below, at and
    one above each class's first triple."""
    group = direct_sum_group(orders)
    firsts = all_pairs_firsts(group)
    assert [_tables(s) for s in enumerate_lcrngs(group)] == [_tables(s) for _, s in firsts]
    for k in sorted({p + d for p, _ in firsts for d in (0, 1, 2)} - {0}):
        kept = [_tables(s) for s in enumerate_lcrngs(group, max_candidates=k)]
        assert kept == [_tables(s) for p, s in firsts if p < k], k


def test_census_finds_the_rings_of_one_carrier_per_type(census_of, monkeypatch):
    """Z2^4 has three pairs of carrier types, (Z2, Z2^3), (Z2^2, Z2^2) and
    (Z2^3, Z2), and 65 nonzero proper subgroups; the rings are searched on
    the six carriers of the first pair of each type only."""
    carriers = []

    def counted(group, carrier, real=_ring_structures):
        carriers.append(carrier)
        return real(group, carrier)

    monkeypatch.setattr(huliu.constructions, "_ring_structures", counted)
    census = enumerate_lcrngs(direct_sum_group([2, 2, 2, 2]))
    assert len(carriers) == len(set(carriers)) == 6
    assert [_tables(s) for s in census] == [_tables(s) for s in census_of((2, 2, 2, 2))]


# Carriers whose rings the census searches: only pairs with exp B | exp A
# run.  A cyclic group splits only into summands of coprime orders, so none
# of Z6, Z10, Z12, Z14, Z15 and Z3xZ5 runs a pair; Z2xZ6 runs (Z6, Z2) alone,
# Z2^2xZ4 (Z4, Z2^2) and (Z2xZ4, Z2), and Z2^4 all three of its type pairs.
RING_SEARCHES = {
    (6,): 0,
    (10,): 0,
    (12,): 0,
    (14,): 0,
    (15,): 0,
    (3, 5): 0,
    (2, 6): 2,
    (2, 2, 3): 2,
    (2, 2, 4): 4,
    (2, 2, 2, 2): 6,
}


@pytest.mark.parametrize("orders", list(RING_SEARCHES), ids=_spec)
def test_census_searches_no_rings_on_pairs_without_a_unital_hom(orders, monkeypatch):
    carriers = []

    def counted(group, carrier, real=_ring_structures):
        carriers.append(carrier)
        return real(group, carrier)

    monkeypatch.setattr(huliu.constructions, "_ring_structures", counted)
    enumerate_lcrngs(direct_sum_group(orders))
    assert len(carriers) == len(set(carriers)) == RING_SEARCHES[orders]


def _is_cyclic(orders):
    return all(math.gcd(x, y) == 1 for x, y in itertools.combinations(orders, 2))


@pytest.mark.parametrize("orders", [(1,), *_factor_lists(16)], ids=_spec)
def test_the_census_is_empty_exactly_on_cyclic_groups(orders, monkeypatch):
    """Every ordered factorisation of n <= 16: a cyclic group is answered
    before any subgroup is listed, and it has no class even when every
    carrier pair is tried; every other group has a structure."""
    listed = []
    real = enumerate_subgroups
    monkeypatch.setattr(
        huliu.constructions, "enumerate_subgroups", lambda g: listed.append(g) or real(g)
    )
    group = direct_sum_group(orders)
    census = enumerate_lcrngs(group)
    if _is_cyclic(orders):
        assert census == [] and listed == []
        assert all_pairs_firsts(group) == []
    else:
        assert census and len(listed) == 1


@pytest.mark.parametrize("orders", ORACLE_GROUPS, ids=_spec)
def test_ring_classes_are_the_isomorphism_classes(orders, monkeypatch):
    """On every carrier the census searches, rings share a class exactly
    when an additive automorphism carries one product onto the other, and
    each ring's class key is its own key over every basis."""
    seen = []
    real = huliu.constructions._TripleKeys.classes

    def recorded(self, rings):
        rings = list(rings)
        seen.append((self, rings, real(self, rings)))
        return seen[-1][2]

    monkeypatch.setattr(huliu.constructions._TripleKeys, "classes", recorded)
    enumerate_lcrngs(direct_sum_group(orders))
    assert bool(seen) == (not _is_cyclic(orders))
    for keys, rings, classes in seen:
        firsts = [next(j for j, c in enumerate(classes) if c is k) for k in classes]
        assert firsts == brute_ring_classes(rings), sorted(rings[0].carrier)
        assert [c.key for c in classes] == [keys.ring(r).key for r in rings]
        assert all(classes[i] == keys.ring(rings[i]) for i in set(firsts))


def test_census_keys_and_searches_each_ring_class_once(monkeypatch):
    """Z2^4: 6 + 3 + 6 ring classes on the carriers of its three type pairs
    (Z2, Z2^3), (Z2^2, Z2^2) and (Z2^3, Z2) give 6 + 9 + 6 pairs of classes,
    one φ search each (1,040 ring pairs); one constant table per ring and
    one per basis per class (150,674 tables keying every ring)."""
    calls = Counter()

    def counted(name, real):
        return lambda *args: calls.update([name]) or real(*args)

    for name in ("_hom_maps", "_constants"):
        monkeypatch.setattr(
            huliu.constructions, name, counted(name, getattr(huliu.constructions, name))
        )
    assert len(enumerate_lcrngs(direct_sum_group([2, 2, 2, 2]))) == 21
    assert calls["_hom_maps"] == 21
    assert calls["_constants"] <= 3000


# Z2^4 classes kept by a cut after K triples, recorded from the labeled ring
# pair search.  Carrier pairs of type (Z2, Z2^3) hold 448 triples each,
# (Z2^2, Z2^2) 216 from 53,760 and (Z2^3, Z2) 616 from 174,720; cuts fall
# inside a first pair, inside a skipped pair and at class firsts.
Z2_4_CUTS = {
    1: 1, 5: 2, 51: 4, 164: 6, 448: 6, 449: 6, 600: 6, 53761: 7, 53762: 8, 53800: 11,
    53923: 15, 174720: 15, 174725: 17, 174800: 20, 174809: 20, 174810: 21, 10**6: 21,
}


def test_census_cuts_on_z2_4_keep_the_classes_of_the_labeled_search(census_of):
    group = direct_sum_group([2, 2, 2, 2])
    census = [_tables(s) for s in census_of((2, 2, 2, 2))]
    for k, count in Z2_4_CUTS.items():
        kept = [_tables(s) for s in enumerate_lcrngs(group, max_candidates=k)]
        assert kept == census[:count], k


@pytest.mark.parametrize("orders", ORACLE_GROUPS, ids=_spec)
def test_the_identity_of_a_ring_has_the_exponent_as_its_order(orders):
    """The lemma behind the census's exponent skip, on every subgroup of
    every abelian group of order <= 12: m·x = (m·1)·x, so the additive
    order of 1 is the largest element order of the carrier."""
    group = direct_sum_group(orders)
    orders_of = element_orders(group)
    for carrier in enumerate_subgroups(group):
        exponent = max(orders_of[x] for x in carrier)
        for ring in _ring_structures(group, carrier):
            assert orders_of[ring.one] == exponent, sorted(carrier)


def test_census_klein_contains_r4(cat):
    census = enumerate_lcrngs(direct_sum_group([2, 2]))
    assert len(census) == 1
    assert lcrng_isomorphic(census[0], cat["r4"])


# Iso classes are the triples (A, B, phi) up to isomorphism: A a unital ring,
# B a nonzero ring, phi: A -> B a unital hom, A + B the group; B is the halo.
# A unital ring on a cyclic group is Z_n, and phi(1) = 1 needs char B | char A.
# A cyclic group only splits into summands of coprime orders, where
# char B | char A leaves B = 0, so it carries nothing.  The others: Z2xZ2 (Z2, Z2, id), Z2xZ4 (Z4, Z2, mod 2), Z3xZ3
# (Z3, Z3, id), Z2xZ6 and Z2xZ2xZ3 (Z6, Z2, mod 2), Z2xZ8 (Z8, Z2, mod 2),
# Z4xZ4 (Z4, Z4, id); Z3xZ5 is cyclic.
# Z2^3: (F2, B, unit) for B = F4, F2^2, F2[x]/(x^2), halo 4; (F2^2, F2, a
# projection; the swap joins the two) and (F2[x]/(x^2), F2, x -> 0), halo 2.
# Z2^2xZ4: A = Z4 on a Z4 summand, with B = F4, F2^2, F2[x]/(x^2) on a Z2^2
# complement, halo 4; A on Z2xZ4 with B = F2, halo 2: (Z4xF2, F2, either
# projection; Z4 and F2 are not isomorphic, so two classes), (Z4[x]/(2x, x^2),
# F2, x -> 0), (Z4[x]/(2x, x^2 - 2), F2, x -> 0).  A = Z2 or Z2^2 would need
# char B = 2 on a complement of char 4, and A = Z2^3 has no complement.
# Z2^4: (F2, B, unit) for the 6 rings B of order 8 and char 2, halo 8; (A, F2,
# phi) with F8 0, F2[x]/(x^3) 1, F2[x,y]/(x,y)^2 1, F4xF2 1, F2^3 1,
# F2xF2[x]/(x^2) 2 classes of phi, halo 2; A and B of order 4, halo 4, classes
# of phi from F4 to F4, F2^2, F2[x]/(x^2): 1, 0, 0; from F2^2: 1, 2 (an
# automorphism, or a projection onto the diagonal), 1; from F2[x]/(x^2): 1, 1,
# 2 (x -> x or x -> 0); 9 in all.
CENSUS = {(n,): (0, []) for n in range(1, 17)}
CENSUS.update(
    {
        (2, 2): (1, [2]),
        (2, 4): (1, [2]),
        (3, 3): (1, [3]),
        (2, 6): (1, [2]),
        (2, 8): (1, [2]),
        (3, 5): (0, []),
        (4, 4): (1, [4]),
        (2, 2, 3): (1, [2]),
        (2, 2, 2): (5, [2, 2, 4, 4, 4]),
        (2, 2, 4): (7, [2, 2, 2, 2, 4, 4, 4]),
        (2, 2, 2, 2): (21, [2] * 6 + [4] * 9 + [8] * 6),
    }
)


@pytest.mark.parametrize("orders", list(CENSUS), ids=_spec)
def test_census_counts_match_the_splitting_triples(orders, census_of):
    count, halo_orders = CENSUS[orders]
    census = census_of(orders)
    assert len(census) == count
    assert sorted(len(s.halo) for s in census) == halo_orders


def _table_and_one(group, carrier, ring):
    """A census ring as the oracle's (table, one): its products on the
    carrier; it lies on that carrier of that group and is undefined off it."""
    members = sorted(carrier)
    assert ring.group is group and ring.carrier == tuple(members)
    assert all(
        ring.mul[x][y] == SENTINEL
        for x in range(group.order)
        for y in range(group.order)
        if x not in carrier or y not in carrier
    )
    return {(x, y): ring.mul[x][y] for x in members for y in members}, ring.one


@pytest.mark.parametrize("orders", [(2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 6)], ids=_spec)
def test_ring_structures_match_the_full_check_oracle(orders):
    group = direct_sum_group(orders)
    carriers = enumerate_subgroups(group)
    if orders == (2, 2, 2):
        carriers = carriers[:-1]  # the whole Z2^3: test_ring_structures_on_the_whole_z2_cubed
    for carrier in carriers:
        assert [
            _table_and_one(group, carrier, ring) for ring in _ring_structures(group, carrier)
        ] == list(brute_ring_structures(group, carrier)), sorted(carrier)


def test_ring_structures_on_the_whole_z2_cubed():
    """The one carrier in reach with three generators, and so the one where
    associativity does not follow from commutativity and an identity.  The
    oracle's 8^6 candidates take minutes, so each structure is checked on
    its own; the oracle, run once, found the same 448."""
    group = direct_sum_group([2, 2, 2])
    carrier = frozenset(range(8))
    gens = generating_sequence(group, carrier)
    found = [_table_and_one(group, carrier, ring) for ring in _ring_structures(group, carrier)]
    assert len(found) == 448
    constants = [tuple(t[(g, h)] for i, g in enumerate(gens) for h in gens[i:]) for t, _ in found]
    assert constants == sorted(set(constants))
    for table, one in found:
        assert is_ring_table(group, carrier, table)
        assert all(table[(x, y)] == table[(y, x)] for x in carrier for y in carrier)
        assert all(table[(one, x)] == x for x in carrier)


@pytest.mark.parametrize("orders", [(2, 2), (2, 4), (2, 2, 2), (3, 3)], ids=_spec)
def test_census_structures_round_trip_through_files(orders):
    census = enumerate_lcrngs(direct_sum_group(orders), dedup=False)
    assert census
    for s in census:
        text = emit_structure(s)
        assert parse_structure(text) == s.raw()
        assert emit_structure(parse_structure(text)) == text


def test_census_results_are_pairwise_non_isomorphic(census_of):
    for orders in [(2, 4), (2, 2, 2), (2, 2, 4)]:
        for a, b in itertools.combinations(census_of(orders), 2):
            assert not lcrng_isomorphic(a, b), orders
    census = census_of((2, 4))
    raw = enumerate_lcrngs(direct_sum_group([2, 4]), dedup=False)
    assert raw and all(any(lcrng_isomorphic(s, t) for t in census) for s in raw)


def test_census_of_z6_is_empty():
    assert enumerate_lcrngs(zmod(6).group) == []


def test_census_bounds():
    assert enumerate_lcrngs(direct_sum_group([2, 2]), max_candidates=0) == []
    with pytest.raises(InputError) as err:
        enumerate_lcrngs(direct_sum_group([2, 3, 3]))
    assert err.value.code == "order-too-large"


def test_isomorphism_distinguishes_catalog(cat):
    assert lcrng_isomorphic(cat["r4"], cat["r4"])
    assert not lcrng_isomorphic(cat["r4"], cat["r8"])
    assert not lcrng_isomorphic(cat["r8"], cat["u8"])


def test_validated_catalog_pairs_are_strict_subrngs(pairs):
    from huliu import is_subrng

    for name, structure, subset in pairs:
        assert is_subrng(structure, subset), name
