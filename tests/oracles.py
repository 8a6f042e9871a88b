"""Independent brute-force oracles.

Everything here recomputes results straight from the defining conditions,
scanning all subsets/tuples, so the library's cleverer routes (subgroups
as sums of cyclic subgroups, ideals as sums of principal ideals,
grading-aware predicates, span-based witness search, the
classification-based census) are checked against dumb exhaustive code.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from dataclasses import replace

from huliu import (
    SENTINEL,
    FiniteAbelianGroup,
    FiniteCommRing,
    GradedIdeal,
    HlRing,
    InputError,
    LcRng,
    RawHlRing,
    RawLcRng,
    TheoremAlarm,
    Violation,
    component_ring,
    enumerate_subgroups,
    ideal_components,
    integral_witness,
    lcrng_isomorphic,
    subrng_violation,
    validate_lcrng,
)
from huliu import constructions, kernel
from huliu.kernel import generating_sequence, subset_key

# Every abelian group of order <= 16, one presentation each; the cyclic ones carry none.
GROUPS_TO_16 = [(n,) for n in range(1, 17)] + [
    (2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2)
]


def brute_subgroups(group: FiniteAbelianGroup) -> list[frozenset[int]]:
    """All 2^n subsets containing 0 and closed under addition (n <= 12)."""
    n = group.order
    assert n <= 12
    found = []
    rest = [x for x in range(1, n)]
    for r in range(0, n):
        for combo in itertools.combinations(rest, r):
            s = frozenset((0,) + combo)
            if all(group.add[a][b] in s for a in s for b in s):
                found.append(s)
    return sorted(set(found), key=subset_key)


def brute_is_ideal(structure: LcRng, s: frozenset[int]) -> bool:
    if 0 not in s:
        return False
    if any(structure.plus(a, b) not in s for a in s for b in s):
        return False
    n = structure.order
    if any(structure.mul[i][r] not in s for i in s for r in range(n)):
        return False
    if any(structure.mul[r][i] not in s for i in s for r in range(n)):
        return False
    halo_part = s & structure.halo
    return all(
        structure.local_mul[i][a] in s for i in halo_part for a in structure.halo
    )


def brute_is_prime(structure: LcRng, s: frozenset[int]) -> bool:
    """Direct tuple scan of the two primality conditions, plus properness."""
    if len(s) == structure.order:
        return False
    e = structure.left_identity
    r0 = [x for x in range(structure.order) if structure.mul[x][e] == x]
    r1 = sorted(structure.halo)
    s0 = [x for x in s if x in set(r0)]
    parts = {0: (r0, s0), 1: (r1, [x for x in s if x in structure.halo])}
    for eps in (0, 1):
        universe, inside = parts[eps]
        for x0 in r0:
            for y in universe:
                if structure.mul[x0][y] in s and x0 not in s0 and y not in inside:
                    return False
    s1 = [x for x in s if x in structure.halo]
    for x1 in r1:
        for y1 in r1:
            if structure.local_mul[x1][y1] in s1 and x1 not in s1 and y1 not in s1:
                return False
    return True


def brute_ideals(structure: LcRng) -> list[frozenset[int]]:
    if structure.order <= 10:
        candidates = brute_subgroups(structure.group)
    else:
        candidates = enumerate_subgroups(structure.group)
    return [s for s in candidates if brute_is_ideal(structure, s)]


def filtered_ideals(structure: LcRng) -> list[GradedIdeal]:
    """The ideal lattice by filtering the subgroup lattice: every subgroup
    that brute_is_ideal accepts, split along the grading."""
    return [
        GradedIdeal(s, *ideal_components(structure, s), kind="ideal")
        for s in enumerate_subgroups(structure.group)
        if brute_is_ideal(structure, s)
    ]


def brute_spectrum(structure: LcRng) -> list[frozenset[int]]:
    return [s for s in brute_ideals(structure) if brute_is_prime(structure, s)]


def reindexed(structure: LcRng, subset) -> tuple[LcRng, tuple[int, ...]]:
    """A strict subrng as a structure of its own: its elements renumbered
    0..m-1 in ascending order, the tables copied over and the copy validated
    from scratch.  Returns the copy and the map from its indices back to the
    ambient ones."""
    from_sub = tuple(sorted(subset))
    to_sub = {a: i for i, a in enumerate(from_sub)}
    halo = subset & structure.halo

    def copy(op, on) -> tuple:
        return tuple(
            tuple(to_sub[op(a, b)] if a in on and b in on else SENTINEL for b in from_sub)
            for a in from_sub
        )

    raw = RawLcRng(
        group=FiniteAbelianGroup(order=len(from_sub), add=copy(structure.plus, subset)),
        mul=copy(structure.times, subset),
        left_identity=to_sub[structure.left_identity],
        local_mul=copy(structure.local, halo),
    )
    return validate_lcrng(raw), from_sub


def reindexed_spectrum(structure: LcRng, subset) -> list[frozenset[int]]:
    """brute_spectrum of the re-indexed subrng, mapped back to ambient indices."""
    copy, from_sub = reindexed(structure, subset)
    return [frozenset(from_sub[i] for i in p) for p in brute_spectrum(copy)]


def brute_min_monic_degree(ring, subring, u, kmax) -> tuple[int, tuple[int, ...]] | None:
    """Smallest monic degree by trying every coefficient vector outright."""
    members = sorted(subring)
    for k in range(1, kmax + 1):
        for coeffs in itertools.product(members, repeat=k):
            acc = ring.power(u, k)
            for j, a in enumerate(coeffs, start=1):
                power = k - j
                term = a if power == 0 else ring.times(a, ring.power(u, power))
                acc = ring.plus(acc, term)
            if acc == 0:
                return k, coeffs
    return None


def mutate(raw: RawLcRng, table: str, i: int, j: int, value: int) -> RawLcRng:
    """One-entry table edit on a raw structure."""
    if table == "add":
        rows = [list(r) for r in raw.group.add]
        rows[i][j] = value
        return replace(
            raw, group=FiniteAbelianGroup(order=raw.group.order, add=tuple(map(tuple, rows)))
        )
    if table == "mul":
        rows = [list(r) for r in raw.mul]
        rows[i][j] = value
        return replace(raw, mul=tuple(map(tuple, rows)))
    if table == "local_mul":
        rows = [list(r) for r in raw.local_mul]
        rows[i][j] = value
        return replace(raw, local_mul=tuple(map(tuple, rows)))
    raise ValueError(table)


def violation_is_genuine(raw: RawLcRng, violation: Violation) -> bool:
    """Re-derive the reported clause at the reported witness from the tables."""
    n = raw.group.order
    add, mul, loc = raw.group.add, raw.mul, raw.local_mul
    e = raw.left_identity
    halo = frozenset(x for x in range(n) if mul[x][e] == 0)
    w = violation.witness
    code = violation.code
    if code == "zero-not-at-index-zero":
        (i,) = w
        return add[0][i] != i or add[i][0] != i
    if code == "add-not-commutative":
        i, j = w
        return add[i][j] != add[j][i]
    if code == "add-not-associative":
        x, y, z = w
        return add[add[x][y]][z] != add[x][add[y][z]]
    if code == "missing-additive-inverse":
        (a,) = w
        return 0 not in add[a]
    if code == "mul-left-distributive":
        x, y, z = w
        return mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]
    if code == "mul-right-distributive":
        x, y, z = w
        return mul[add[x][y]][z] != add[mul[x][z]][mul[y][z]]
    if code == "mul-not-associative":
        x, y, z = w
        return mul[mul[x][y]][z] != mul[x][mul[y][z]]
    if code == "not-left-commutative":
        x, y, z = w
        return mul[mul[x][y]][z] != mul[mul[y][x]][z]
    if code == "left-identity-fails":
        (x,) = w
        return mul[e][x] != x
    if code == "two-sided-identity":
        (c,) = w
        return all(mul[c][x] == x and mul[x][c] == x for x in range(n))
    if code == "empty-halo":
        return halo <= {0}
    if code == "halo-not-subgroup":
        a, b = w
        return a in halo and b in halo and add[a][b] not in halo
    if code == "local-mul-outside-halo":
        a, b = w
        return loc[a][b] != SENTINEL and not (a in halo and b in halo)
    if code == "local-mul-missing":
        a, b = w
        return a in halo and b in halo and loc[a][b] == SENTINEL
    if code == "local-mul-not-closed":
        a, b = w
        return loc[a][b] not in halo
    if code == "local-mul-not-commutative":
        a, b = w
        return loc[a][b] != loc[b][a]
    if code == "local-mul-not-associative":
        a, b, c = w
        return loc[loc[a][b]][c] != loc[a][loc[b][c]]
    if code == "local-mul-not-distributive":
        a, b, c = w
        return loc[a][add[b][c]] != add[loc[a][b]][loc[a][c]]
    if code == "no-local-identity":
        hs = sorted(halo)
        return not any(all(loc[c][a] == a for a in hs) for c in hs)
    if code == "local-triassociativity":
        x, a, b = w
        xa = mul[x][a]
        ab = loc[a][b]
        return xa not in halo or ab not in halo or loc[xa][b] != mul[x][ab]
    if code == "grading-not-direct":
        r0 = frozenset(mul[x][e] for x in range(n))
        if r0 & halo != {0} or len(r0) * len(halo) != n:
            return True
        if not w:
            return False
        (a,) = w
        a0 = mul[a][e]
        a1 = add[a][add[a0].index(0)]
        return a1 not in halo or add[a0][a1] != a
    return False


# ---------------------------------------------------------------- laws
#
# Each table below maps a violation code to (domains, holds): the law is
# checked over itertools.product(*domains) in row-major order, and holds(*t)
# is the clause written straight from the definition, guards included.  A
# reported witness is right when the clause fails there and holds at every
# earlier tuple of the same domains.


def _minus(add, a, b):
    """The c with b + c = a, found by search."""
    return next(c for c in range(len(add)) if add[b][c] == a)


def group_laws(add) -> dict:
    rng = range(len(add))
    return {
        "zero-not-at-index-zero": ([rng], lambda i: add[0][i] == i and add[i][0] == i),
        "add-not-commutative": ([rng, rng], lambda i, j: add[i][j] == add[j][i]),
        "add-not-associative": (
            [rng, rng, rng],
            lambda x, y, z: add[add[x][y]][z] == add[x][add[y][z]],
        ),
        "missing-additive-inverse": ([rng], lambda a: any(add[a][b] == 0 for b in rng)),
    }


def _ring_like_laws(add, mul, prefix: str) -> dict:
    rng = range(len(add))
    cube = [rng, rng, rng]
    return {
        f"{prefix}-left-distributive": (
            cube,
            lambda x, y, z: mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]],
        ),
        f"{prefix}-right-distributive": (
            cube,
            lambda x, y, z: mul[add[x][y]][z] == add[mul[x][z]][mul[y][z]],
        ),
    }


def lcrng_laws(raw: RawLcRng) -> dict:
    add, mul, loc = raw.group.add, raw.mul, raw.local_mul
    n = len(add)
    rng = range(n)
    e = raw.left_identity
    halo = frozenset(x for x in rng if mul[x][e] == 0)
    hs = sorted(halo)
    r0 = frozenset(mul[x][e] for x in rng)

    def splits(a):
        a0 = mul[a][e]
        a1 = _minus(add, a, a0)
        return a1 in halo and add[a0][a1] == a

    if r0 & halo != {0} or len(r0) * len(halo) != n:
        grading = ([], lambda: False)
    else:
        grading = ([rng], splits)
    laws = _ring_like_laws(add, mul, "mul")
    laws.update(
        {
            "mul-not-associative": (
                [rng, rng, rng],
                lambda x, y, z: mul[mul[x][y]][z] == mul[x][mul[y][z]],
            ),
            "not-left-commutative": (
                [rng, rng, rng],
                lambda x, y, z: mul[mul[x][y]][z] == mul[mul[y][x]][z],
            ),
            "left-identity-fails": ([rng], lambda x: mul[e][x] == x),
            "two-sided-identity": (
                [rng],
                lambda c: not all(mul[c][x] == x and mul[x][c] == x for x in rng),
            ),
            "empty-halo": ([[0]], lambda _: not halo <= {0}),
            "halo-not-subgroup": ([hs, hs], lambda a, b: add[a][b] in halo),
            "local-mul-outside-halo": (
                [rng, rng],
                lambda a, b: loc[a][b] == SENTINEL or (a in halo and b in halo),
            ),
            "local-mul-missing": ([hs, hs], lambda a, b: loc[a][b] != SENTINEL),
            "local-mul-not-closed": ([hs, hs], lambda a, b: loc[a][b] in halo),
            "local-mul-not-commutative": ([hs, hs], lambda a, b: loc[a][b] == loc[b][a]),
            "local-mul-not-associative": (
                [hs, hs, hs],
                lambda a, b, c: loc[a][b] not in halo
                or loc[b][c] not in halo
                or loc[loc[a][b]][c] == loc[a][loc[b][c]],
            ),
            "local-mul-not-distributive": (
                [hs, hs, hs],
                lambda a, b, c: loc[a][add[b][c]] == add[loc[a][b]][loc[a][c]],
            ),
            "no-local-identity": (
                [],
                lambda: any(all(loc[c][a] == a for a in hs) for c in hs),
            ),
            "local-triassociativity": (
                [rng, hs, hs],
                lambda x, a, b: mul[x][a] in halo
                and loc[a][b] in halo
                and loc[mul[x][a]][b] == mul[x][loc[a][b]],
            ),
            "grading-not-direct": grading,
        }
    )
    return laws


def hlring_laws(raw) -> dict:
    add, bullet, ra, la, s = raw.group.add, raw.bullet, raw.rarrow, raw.larrow, raw.sigma
    rng = range(len(add))
    cube = [rng, rng, rng]
    laws = _ring_like_laws(add, bullet, "bullet")
    laws.update(
        {
            "bullet-not-associative": (
                cube,
                lambda x, y, z: bullet[bullet[x][y]][z] == bullet[x][bullet[y][z]],
            ),
            "bullet-identity-fails": ([rng], lambda x: bullet[s][x] == x and bullet[x][s] == x),
            "product-decomposition": (
                [rng, rng],
                lambda x, y: bullet[x][y]
                == _minus(add, add[ra[x][y]][la[x][y]], ra[la[x][s]][y]),
            ),
            "strong-law-bullet-link": (
                cube,
                lambda x, y, z: bullet[ra[x][y]][z] == bullet[x][la[y][z]],
            ),
            "strong-law-rarrow": (cube, lambda x, y, z: ra[x][bullet[y][z]] == ra[ra[x][y]][z]),
            "strong-law-larrow": (cube, lambda x, y, z: la[bullet[x][y]][z] == la[la[x][y]][z]),
            "rarrow-not-associative": (cube, lambda x, y, z: ra[ra[x][y]][z] == ra[x][ra[y][z]]),
            "larrow-not-associative": (cube, lambda x, y, z: la[la[x][y]][z] == la[x][la[y][z]]),
        }
    )
    for name, table in (("rarrow", ra), ("larrow", la)):
        laws.update(_ring_like_laws(add, table, name))
    return laws


def ring_laws(ring) -> dict:
    add, mul, one = ring.group.add, ring.mul, ring.one
    rng = range(len(add))
    laws = _ring_like_laws(add, mul, "ring")
    laws.update(
        {
            "ring-not-associative": (
                [rng, rng, rng],
                lambda x, y, z: mul[mul[x][y]][z] == mul[x][mul[y][z]],
            ),
            "ring-not-commutative": ([rng, rng], lambda x, y: mul[x][y] == mul[y][x]),
            "ring-identity-fails": ([rng], lambda x: mul[one][x] == x),
        }
    )
    return laws


def witness_is_first(laws: dict, violation: Violation) -> bool:
    """The clause fails at the witness and holds at every earlier tuple."""
    domains, holds = laws[violation.code]
    for t in itertools.product(*domains):
        if t == violation.witness:
            return not holds(*t)
        if not holds(*t):
            return False
    return False


# ------------------------------------------------------ subset clauses
#
# ideals.py reports only the first failed clause, and two of its codes
# cover two clauses each, so these tables are ordered lists of
# (code, domains, holds) over the whole carrier, with membership guards in
# place of the library's filtered domains: filtering keeps row-major order.


def subgroup_clauses(add, s) -> list:
    rng = range(len(add))
    return [
        ("not-a-subgroup", [[0]], lambda z: z in s),
        ("not-a-subgroup", [rng, rng], lambda a, b: a not in s or b not in s or add[a][b] in s),
    ]


def ideal_clauses(structure: LcRng, s) -> list:
    mul, loc, halo = structure.mul, structure.local_mul, structure.halo
    rng = range(structure.order)
    return subgroup_clauses(structure.group.add, s) + [
        ("ideal-right-absorb", [rng, rng], lambda i, r: i not in s or mul[i][r] in s),
        ("ideal-left-absorb", [rng, rng], lambda r, i: i not in s or mul[r][i] in s),
        (
            "halo-ideal-absorb",
            [rng, rng],
            lambda i, a: i not in s or i not in halo or a not in halo or loc[i][a] in s,
        ),
    ]


def subrng_clauses(structure: LcRng, s, strict: bool) -> list:
    mul, loc, halo = structure.mul, structure.local_mul, structure.halo
    rng = range(structure.order)
    clauses = subgroup_clauses(structure.group.add, s) + [
        ("missing-left-identity", [[structure.left_identity]], lambda e: e in s),
        (
            "not-multiplicatively-closed",
            [rng, rng],
            lambda a, b: a not in s or b not in s or mul[a][b] in s,
        ),
        (
            "halo-not-multiplicatively-closed",
            [rng, rng],
            lambda a, b: not {a, b} <= s & halo or loc[a][b] in s,
        ),
    ]
    if strict:
        clauses.append(("missing-local-identity", [[structure.local_identity]], lambda u: u in s))
    return clauses


def prime_clauses(structure: LcRng, ideal) -> list:
    """Primality of a graded ideal, read from its own components i0, i1."""
    mul, loc = structure.mul, structure.local_mul
    rng = range(structure.order)
    s, i0, i1 = ideal.carrier, ideal.i0, ideal.i1
    parts = {0: (structure.r0, i0), 1: (structure.halo, i1)}
    return [
        ("prime-requires-proper", [], lambda: len(s) < structure.order),
        (
            "prime-product-condition",
            [[0, 1], rng, rng],
            lambda eps, x, y: x not in structure.r0
            or x in i0
            or y not in parts[eps][0]
            or y in parts[eps][1]
            or mul[x][y] not in s,
        ),
        (
            "prime-local-condition",
            [rng, rng],
            lambda x, y: not {x, y} <= structure.halo
            or x in i1
            or y in i1
            or loc[x][y] not in i1,
        ),
    ]


def first_failed_clause(clauses: list):
    """The first clause, in order, that fails at some tuple; None if all hold."""
    for clause in clauses:
        _, domains, holds = clause
        if not all(holds(*t) for t in itertools.product(*domains)):
            return clause
    return None


# ------------------------------------------------------ census rings


def brute_ring_structures(group: FiniteAbelianGroup, carrier):
    """Every commutative unital ring structure on a subgroup, as (table, one).

    Every member is tried for every generator-pair product; the expanded
    table must be additive in both arguments and associative on all triples
    (O(n³) each) and have an identity.  Candidates come in lexicographic
    order of the products gᵢgⱼ, i ≤ j, row by row.
    """
    members = sorted(carrier)
    gens = generating_sequence(group, carrier)
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
    k = len(gens)
    pair_index = [(i, j) for i in range(k) for j in range(i, k)]

    for values in itertools.product(members, repeat=len(pair_index)):
        gen_prod = {}
        for (i, j), v in zip(pair_index, values):
            gen_prod[(i, j)] = v
            gen_prod[(j, i)] = v
        table = {}
        for x in members:
            for y in members:
                acc = 0
                for gi in expr[x]:
                    for gj in expr[y]:
                        acc = add[acc][gen_prod[(gi, gj)]]
                table[(x, y)] = acc
        if not is_ring_table(group, carrier, table):
            continue
        one = next((e for e in members if all(table[(e, x)] == x for x in members)), None)
        if one is not None:
            yield table, one


def is_ring_table(group: FiniteAbelianGroup, carrier, table) -> bool:
    """The table is closed, additive in both arguments and associative,
    checked on every pair and triple of the carrier."""
    add = group.add
    members = sorted(carrier)
    return (
        all(table[(x, y)] in carrier for x in members for y in members)
        and all(
            table[(add[x][y], z)] == add[table[(x, z)]][table[(y, z)]]
            and table[(x, add[y][z])] == add[table[(x, y)]][table[(x, z)]]
            for x in members
            for y in members
            for z in members
        )
        and all(
            table[(table[(x, y)], z)] == table[(x, table[(y, z)])]
            for x in members
            for y in members
            for z in members
        )
    )


def brute_ring_classes(rings: list[FiniteCommRing]) -> list[int]:
    """Each ring on one carrier as the index of the first ring isomorphic to
    it.  Two rings are isomorphic when an additive automorphism σ of the
    carrier carries one product onto the other, σ(xy) = σ(x)σ(y); every
    permutation of the carrier fixing 0 is tried, so carriers stay small."""
    if not rings:
        return []
    carrier, add = rings[0].carrier, rings[0].group.add
    nonzero = [x for x in carrier if x]
    automorphisms = []
    for images in itertools.permutations(nonzero):
        sigma = {0: 0, **dict(zip(nonzero, images))}
        if all(sigma[add[x][y]] == add[sigma[x]][sigma[y]] for x in carrier for y in carrier):
            automorphisms.append(sigma)

    def isomorphic(r, s) -> bool:
        return any(
            all(sigma[r.mul[x][y]] == s.mul[sigma[x]][sigma[y]] for x in carrier for y in carrier)
            for sigma in automorphisms
        )

    return [next(j for j in range(i + 1) if isomorphic(rings[j], r)) for i, r in enumerate(rings)]


def brute_dedup(structures: list[LcRng]) -> list[LcRng]:
    """The first structure of each isomorphism class, in order: each one is
    compared with every class kept so far by the brute-force
    `lcrng_isomorphic`."""
    kept: list[LcRng] = []
    for s in structures:
        if not any(lcrng_isomorphic(s, t) for t in kept):
            kept.append(s)
    return kept


def all_pairs_firsts(group: FiniteAbelianGroup) -> list[tuple[int, LcRng]]:
    """Each class of the census with no carrier-type skip: every
    complementary pair of nonzero subgroups, every pair of rings on them and
    every φ, a triple kept when its `_TripleKeys.triple` key is new, as
    (position of its first triple among all triples, that triple).  A
    census cut after K triples keeps the classes with position below K."""
    keys = constructions._TripleKeys(group)
    subgroups = [h for h in enumerate_subgroups(group) if len(h) > 1]
    seen: set[tuple] = set()
    firsts = []
    count = 0
    for a_carrier, b_carrier in itertools.product(subgroups, repeat=2):
        if a_carrier & b_carrier != {0} or len(a_carrier) * len(b_carrier) != group.order:
            continue
        b_rings = list(constructions._ring_structures(group, b_carrier))
        for a, b in itertools.product(constructions._ring_structures(group, a_carrier), b_rings):
            for phi in constructions._hom_maps(a, b):
                key = keys.triple(keys.ring(a), keys.ring(b), phi)
                if key not in seen:
                    seen.add(key)
                    firsts.append((count, validate_lcrng(constructions._assemble(a, b, phi))))
                count += 1
    return firsts


def coefficient_subrings(structure: LcRng, subset) -> tuple[frozenset[int], frozenset[int]]:
    """(S·e, S ∩ halo) of a subrng S, in ambient indices, from the definitions."""
    e = structure.left_identity
    return frozenset(structure.times(r, e) for r in subset), subset & structure.halo


def per_element_witnesses(structure: LcRng, subset, max_degree=None) -> list:
    """(u, w0, w1) for every element, as the `integral` subcommand once found
    them: each element re-checks the subrng, rebuilds and re-verifies both
    component rings and re-checks both coefficient subrings."""
    found = []
    for u in structure.elements():
        bad = subrng_violation(structure, subset)
        if bad is not None:
            raise InputError("not-a-subrng", str(bad))
        bound = structure.order if max_degree is None else max_degree
        s0, s1 = coefficient_subrings(structure, subset)
        w0 = integral_witness(component_ring(structure, 0), s0, structure.comp0(u), bound)
        w1 = integral_witness(component_ring(structure, 1), s1, structure.comp1(u), bound)
        found.append((u, w0, w1))
    return found


def per_element_embed(structure: LcRng, subset) -> list:
    """(u, w0, w1) for every element, as `embed_check` once searched them:
    the component rings built once, each coefficient subring re-checked per
    element, and an alarm at the first element without a witness."""
    bad = subrng_violation(structure, subset)
    if bad is not None:
        raise InputError("not-a-subrng", str(bad))
    s0, s1 = coefficient_subrings(structure, subset)
    ring0 = component_ring(structure, 0)
    ring1 = component_ring(structure, 1)
    bound = structure.order
    found = []
    for u in structure.elements():
        w0 = integral_witness(ring0, s0, structure.comp0(u), bound)
        w1 = integral_witness(ring1, s1, structure.comp1(u), bound)
        if w0 is None or w1 is None:
            raise TheoremAlarm("not-graded-integral", f"element {u} of a strict pair")
        found.append((u, w0, w1))
    return found


def span_degree(ring, subring, u, kmax) -> int | None:
    """The least k <= kmax with u^k in {s_(k-1)·u^(k-1) + ... + s_1·u + s_0 :
    s_i in the subring}, the degree-k span grown one power at a time; the
    subring need not hold the identity."""
    span = set(subring)
    for k in range(1, kmax + 1):
        power = ring.power(u, k)
        if power in span:
            return k
        span = {ring.plus(v, ring.times(s, power)) for v in span for s in subring}
    return None


def lenient_embed(structure: LcRng, subset) -> None:
    """The integrality check of a subrng read leniently (the local identity
    may be missing): an InputError unless every component of every element
    has a span degree up to the order over its coefficient subrng."""
    bad = subrng_violation(structure, subset, strict=False)
    if bad is not None:
        raise InputError("not-a-subrng", str(bad))
    s0, s1 = coefficient_subrings(structure, subset)
    ring0, ring1 = component_ring(structure, 0), component_ring(structure, 1)
    n = structure.order
    for u in structure.elements():
        parts = ((ring0, s0, structure.comp0(u)), (ring1, s1, structure.comp1(u)))
        for part, (ring, sub, x) in enumerate(parts):
            if span_degree(ring, sub, x, n) is None:
                raise InputError("not-graded-integral", f"component {part} of element {u}")


def reference_null(a, b, phi, name: str = "") -> RawLcRng:
    """The null construction A ⋉ B written out by its index formula
    (a, b) -> a + |A|·b, table by table."""
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
    return RawLcRng(
        group=FiniteAbelianGroup(order=n, add=add),
        mul=mul,
        left_identity=enc(a.one, 0),
        local_mul=loc,
        name=name or (f"null({a.name},{b.name})" if a.name and b.name else ""),
    )


def outcome(call):
    """What a call returns, or the code and message of the InputError it raises."""
    try:
        return call()
    except InputError as exc:
        return exc.code, exc.message


@contextmanager
def full_scans():
    """The law engine with every generator decision switched off: each law
    of every validator is scanned over its whole domains, as before laws
    were decided on additive generators."""
    decider = kernel._decider
    kernel._decider = lambda laws, held: lambda law: None
    try:
        yield
    finally:
        kernel._decider = decider


def rowwise_emit(structure) -> str:
    """A structure document as `emit_structure` once rendered every one:
    each table row turned into a list, SENTINEL into None, and that list
    through json.dumps; every other value through json.dumps too."""

    def table(t):
        return [[None if x == SENTINEL else x for x in row] for row in t]

    if isinstance(structure, LcRng):
        structure = structure.raw()
    if isinstance(structure, RawLcRng):
        doc = {
            "kind": "lcrng",
            "order": structure.group.order,
            "add": table(structure.group.add),
            "mul": table(structure.mul),
            "local_mul": table(structure.local_mul),
            "left_identity": structure.left_identity,
        }
    elif isinstance(structure, (RawHlRing, HlRing)):
        doc = {
            "kind": "hlring",
            "order": structure.group.order,
            "add": table(structure.group.add),
            "bullet": table(structure.bullet),
            "rarrow": table(structure.rarrow),
            "larrow": table(structure.larrow),
            "identity": structure.sigma,
        }
    else:
        assert isinstance(structure, FiniteCommRing)
        doc = {
            "kind": "ring",
            "order": structure.group.order,
            "add": table(structure.group.add),
            "mul": table(structure.mul),
            "one": structure.one,
        }
    if structure.name:
        doc["name"] = structure.name
    if structure.metadata:
        doc["metadata"] = dict(structure.metadata)
    lines = ["{"]
    keys = sorted(doc)
    for ki, key in enumerate(keys):
        value = doc[key]
        comma = "," if ki < len(keys) - 1 else ""
        if isinstance(value, list):
            lines.append(f' "{key}": [')
            for ri, row in enumerate(value):
                tail = "," if ri < len(value) - 1 else ""
                lines.append("  " + json.dumps(row) + tail)
            lines.append(f" ]{comma}")
        else:
            lines.append(f' "{key}": ' + json.dumps(value, sort_keys=True) + comma)
    lines.append("}")
    return "\n".join(lines) + "\n"
