"""Laws decided on additive generators agree with full scans.

Validators decide distributivity, Light's associativity test and the laws
that are multi-additive in bi-additive tables on a few tuples, and scan a
law in full only to place its witness.  Each validator here is compared
with itself under `oracles.full_scans` on seeded inputs that reach every
decision both ways:

- bi-additive products, mostly not associative: random tensors over GF(p)
  on Z2³, Z3² and Z2⁴, and c·x·y on Z_n;
- single-entry edits of those, which break distributivity, so the decisions
  that need it give way to full scans;
- commutative + tables with zero at index 0, mostly not associative, and
  single edits of groups, for Light's test;
- for the laws of # on the halo, null structures with a halo of at least 4
  elements under seeded # edits (some breaking its distributivity, closure
  or definedness) and under whole new products that are bilinear, bilinear
  on one side only, or bilinear but not closed.
"""

import itertools
import random
from dataclasses import replace

import pytest

from huliu import (
    FiniteAbelianGroup,
    FiniteCommRing,
    HlRing,
    RawHlRing,
    RawLcRng,
    SENTINEL,
    TheoremAlarm,
    comm_ring_violations,
    diassociativity_report,
    direct_sum_group,
    enumerate_subgroups,
    hlring_violations,
    identity_hom,
    lcrng_violations,
    ring_hom,
    ring_product,
    semidirect_null,
    zmod,
)
from huliu import kernel
from huliu.integrality import _verify_component_ring
from huliu.kernel import generating_sequence, group_violations

from oracles import full_scans

SPACES = [(2, 3), (3, 2), (2, 4)]
CASES = 40
# Cyclic orders of every abelian group of each order, for Light's test.
FACTORIZATIONS = {
    4: [(4,), (2, 2)],
    6: [(6,)],
    8: [(8,), (2, 4), (2, 2, 2)],
    9: [(9,), (3, 3)],
    12: [(12,), (2, 6)],
    16: [(16,), (4, 4), (2, 8), (2, 2, 4), (2, 2, 2, 2)],
}


def _same_as_full_scan(call, *args):
    """call(*args) returns or raises the same with decisions on and off."""

    def outcome():
        try:
            return call(*args)
        except TheoremAlarm as alarm:
            return alarm.code, alarm.message

    fast = outcome()
    with full_scans():
        assert fast == outcome(), (call.__name__, args)
    return fast


def _bilinear(p, k, c):
    """x·y = (Σ c[i][j][l] x_j y_l mod p)_i on (Z_p)^k, first coordinate fastest."""
    n = p**k
    digits = [[x // p**i % p for i in range(k)] for x in range(n)]

    def product(x, y):
        coords = [
            sum(c[i][j][l] * digits[x][j] * digits[y][l] for j in range(k) for l in range(k)) % p
            for i in range(k)
        ]
        return sum(v * p**i for i, v in enumerate(coords))

    return tuple(tuple(product(x, y) for y in range(n)) for x in range(n))


def _tensor(rand, p, k, unital=False):
    """Random structure constants; `unital` makes the product commutative
    with the first basis vector (index 1) as its identity."""
    c = [[[rand.randrange(p) for _ in range(k)] for _ in range(k)] for _ in range(k)]
    if unital:
        for i in range(k):
            for j in range(k):
                c[i][0][j] = c[i][j][0] = int(i == j)
                for l in range(j):
                    c[i][j][l] = c[i][l][j]
    return c


def _edit(rand, table, values, symmetric=False):
    """The table with one entry changed, or with a symmetric pair changed."""
    n = len(table)
    rows = [list(r) for r in table]
    i, j = rand.randrange(n), rand.randrange(n)
    rows[i][j] = rand.choice([v for v in values if v != rows[i][j]])
    if symmetric:
        rows[j][i] = rows[i][j]
    return tuple(map(tuple, rows))


def _products(rand, p, k, unital=False):
    """A bi-additive product, mostly not associative, edited one time in
    three; a unital one keeps commuting."""
    table = _bilinear(p, k, _tensor(rand, p, k, unital))
    if rand.random() < 1 / 3:
        return _edit(rand, table, range(p**k), symmetric=unital)
    return table


def _cyclic_products(rand, n):
    """c·x·y on Z_n (associative), edited one time in three."""
    c = rand.randrange(n)
    table = tuple(tuple(c * x * y % n for y in range(n)) for x in range(n))
    return _edit(rand, table, range(n)) if rand.random() < 1 / 3 else table


def _inputs(seed):
    """(rand, group, three products) on each space and on some Z_n."""
    rand = random.Random(seed)
    for p, k in SPACES:
        group = direct_sum_group([p] * k)
        for _ in range(CASES):
            yield rand, group, [_products(rand, p, k) for _ in range(3)]
    for _ in range(CASES):
        n = rand.choice([4, 6, 8, 9, 12])
        yield rand, direct_sum_group([n]), [_cyclic_products(rand, n) for _ in range(3)]


def test_lcrng_violations_match_full_scans():
    for rand, group, (mul, _, _) in _inputs("lcrng"):
        n = group.order
        local = tuple((SENTINEL,) * n for _ in range(n))
        raw = RawLcRng(group=group, mul=mul, left_identity=rand.randrange(n), local_mul=local)
        _same_as_full_scan(lcrng_violations, raw)


def test_hlring_violations_match_full_scans():
    for rand, group, (bullet, ra, la) in _inputs("hlring"):
        raw = RawHlRing(group, bullet, ra, la, sigma=rand.randrange(group.order))
        _same_as_full_scan(hlring_violations, raw)


def test_comm_ring_violations_match_full_scans():
    reported = set()
    for rand, group, (mul, _, _) in _inputs("ring"):
        ring = FiniteCommRing(group=group, mul=mul, one=rand.randrange(group.order))
        reported.update(v.code for v in _same_as_full_scan(comm_ring_violations, ring))
    assert {"ring-left-distributive", "ring-not-associative"} <= reported


def _diassociativity_inputs():
    for rand, group, (bullet, ra, la) in _inputs("dialgebra"):
        yield HlRing(group, bullet, ra, la, sigma=0, halo=frozenset())
    rand = random.Random("dialgebra-loops")
    for _ in range(CASES):
        add = _loop(rand, 8)
        ra, la = (_bilinear(2, 3, _tensor(rand, 2, 3)) for _ in range(2))
        yield HlRing(FiniteAbelianGroup(8, add), ra, ra, la, sigma=0, halo=frozenset())


def test_diassociativity_report_matches_full_scans():
    seen = set()
    for ring in _diassociativity_inputs():
        seen.update(_same_as_full_scan(diassociativity_report, ring).items())
    assert {holds for _, holds in seen} == {True, False}


def _monoid(n):
    """x·1 = 1·x = x and x·y = 0 otherwise: commutative, associative and
    unital, closed on every carrier holding 0 and 1, and not distributive."""
    return tuple(tuple(x if y == 1 else y if x == 1 else 0 for y in range(n)) for x in range(n))


def test_component_ring_verification_matches_full_scans():
    """Commutative products with an identity, so that verification reaches
    associativity and distributivity, over the whole group and its
    subgroups."""
    outcomes = set()
    rand = random.Random("component")
    for p, k in SPACES:
        group = direct_sum_group([p] * k)
        carriers = [s for s in enumerate_subgroups(group) if 1 in s]
        for case in range(CASES):
            table = _monoid(p**k) if case % 8 == 0 else _products(rand, p, k, unital=True)
            carrier = tuple(sorted(rand.choice(carriers)))
            ring = FiniteCommRing(group, table, 1, "component-0", carrier=carrier)
            outcomes.add(_same_as_full_scan(_verify_component_ring, ring))
    messages = {o[1].split(" at ")[0] for o in outcomes if o is not None}
    assert None in outcomes
    assert {"component-0: ring-not-associative", "component-0: ring-left-distributive"} <= messages


def _loop(rand, n):
    """A commutative table with zero at index 0, otherwise random."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = i if j == 0 else rand.randrange(n)
    return rows


def _edited_group(rand, group):
    """A group table with one symmetric pair of entries off zero changed."""
    n = group.order
    rows = [list(r) for r in group.add]
    i, j = rand.randrange(1, n), rand.randrange(1, n)
    rows[i][j] = rows[j][i] = rand.choice([v for v in range(n) if v != rows[i][j]])
    return rows


@pytest.mark.parametrize("n", sorted(FACTORIZATIONS))
def test_group_violations_match_full_scans(n):
    rand = random.Random(f"light-{n}")
    groups = [direct_sum_group(list(orders)) for orders in FACTORIZATIONS[n]]
    codes = set()
    for _ in range(CASES):
        for add in (_loop(rand, n), _edited_group(rand, rand.choice(groups))):
            codes.update(v.code for v in _same_as_full_scan(group_violations, add))
    for group in groups:
        assert _same_as_full_scan(group_violations, group.add) == []
    assert "add-not-associative" in codes


def _coordinates(group, members):
    """{element: F2 coordinate vector} for an elementary abelian 2-subgroup,
    over its greedy generators."""
    gens = generating_sequence(group, frozenset(members))
    coords = {}
    for bits in itertools.product((0, 1), repeat=len(gens)):
        coords[group.sum(g for g, b in zip(gens, bits) if b)] = bits
    return coords


def _product_on_halo(rand, raw, kind):
    """A new # on the halo of a null structure on an elementary abelian
    2-group, SENTINEL elsewhere:

    - "bilinear": a random symmetric bilinear product into the halo, so #
      is closed, commutative and distributive, and mostly neither
      associative nor triassociative;
    - "left-only": a#b = h(a)·b for a random map h and a random bilinear ·,
      distributive on the left only and not commutative;
    - "unclosed": a random symmetric bilinear product into the whole group.
    """
    group, n = raw.group, raw.group.order
    halo = [x for x in range(n) if raw.mul[x][raw.left_identity] == 0]
    source = _coordinates(group, halo)
    target = _coordinates(group, range(n)) if kind == "unclosed" else source
    element = {bits: x for x, bits in target.items()}
    k, m = len(next(iter(source.values()))), len(next(iter(target.values())))
    c = [[[rand.randrange(2) for _ in range(k)] for _ in range(k)] for _ in range(m)]
    for plane in c:
        for i in range(k):
            for j in range(i):
                plane[i][j] = plane[j][i]

    def bilinear(u, v):
        return element[
            tuple(sum(p[i][j] * u[i] * v[j] for i in range(k) for j in range(k)) % 2 for p in c)
        ]

    twist = {a: rand.choice(halo) for a in halo}
    rows = [[SENTINEL] * n for _ in range(n)]
    for a in halo:
        for b in halo:
            u = source[twist[a]] if kind == "left-only" else source[a]
            rows[a][b] = bilinear(u, source[b])
    return tuple(map(tuple, rows))


def _returning_product(raw):
    """# on a halo {0, h1, h2, h1+h2} of exponent 2 with h1#h1 = h1+o and
    h1#h2 = h2#h1 = h2#h2 = o for some o off the halo, extended bilinearly:
    commutative and distributive, every product of generators leaves the
    halo, and (h1+h2)#(h1+h2) = h1 comes back, where (h1+h2)#((h1+h2)#h1)
    and h1#h1 differ.  The generator rows hold only because # is not
    closed."""
    group, n = raw.group, raw.group.order
    add = group.add
    halo = frozenset(x for x in range(n) if raw.mul[x][raw.left_identity] == 0)
    h1, h2 = generating_sequence(group, halo)
    o = min(x for x in range(n) if x not in halo)
    coords = _coordinates(group, halo)
    table = {(1, 1): add[h1][o], (1, 2): o, (2, 1): o, (2, 2): o}
    rows = [[SENTINEL] * n for _ in range(n)]
    for a in halo:
        for b in halo:
            pairs = itertools.product(range(2), repeat=2)
            terms = (table[i + 1, j + 1] for i, j in pairs if coords[a][i] * coords[b][j])
            rows[a][b] = group.sum(terms)
    return tuple(map(tuple, rows))


def _halo_inputs(seed):
    """Null structures with a halo of at least 4 elements, and seeded # on
    them: single-entry edits inside the halo (some symmetric, some leaving
    it, some undefined) and whole products from `_product_on_halo`."""
    rand = random.Random(seed)
    z2, z2xz2 = zmod(2), ring_product(zmod(2), zmod(2))
    z2x3 = ring_product(z2xz2, zmod(2))
    bases = [
        semidirect_null(z2, z2xz2, ring_hom(z2, z2xz2, [0, 3])),
        semidirect_null(z2xz2, z2xz2, identity_hom(z2xz2)),
        semidirect_null(z2, z2x3, ring_hom(z2, z2x3, [0, 7])),
        semidirect_null(zmod(4), zmod(4), identity_hom(zmod(4))),
    ]
    for raw in bases:
        n = raw.group.order
        halo = [x for x in range(n) if raw.mul[x][raw.left_identity] == 0]
        yield raw
        for _ in range(CASES):
            rows = [list(r) for r in raw.local_mul]
            a, b = rand.choice(halo), rand.choice(halo)
            kind = rand.random()
            if kind < 0.5:
                rows[a][b] = rows[b][a] = rand.choice([v for v in halo if v != rows[a][b]])
            elif kind < 0.8:
                rows[a][b] = rand.choice([v for v in range(n) if v != rows[a][b]])
            else:
                rows[a][b] = SENTINEL
            yield replace(raw, local_mul=tuple(map(tuple, rows)))
        if len(halo) & (len(halo) - 1) == 0 and all(raw.group.add[x][x] == 0 for x in range(n)):
            for kind in ("bilinear", "left-only", "unclosed") * (CASES // 4):
                yield replace(raw, local_mul=_product_on_halo(rand, raw, kind))
            if len(halo) == 4:
                yield replace(raw, local_mul=_returning_product(raw))


HALO_CODES = ("local-mul-not-associative", "local-mul-not-distributive", "local-triassociativity")


def test_halo_decisions_match_full_scans(monkeypatch):
    """The halo laws decided on the halo's generators agree with full scans
    on every input, and each halo decision is used with both verdicts."""
    verdicts = set()
    decider = kernel._decider

    def recording(laws, held):
        verdict = decider(laws, held)

        def recorded(law):
            v = verdict(law)
            verdicts.add((law.code, v))
            return v

        return recorded

    monkeypatch.setattr(kernel, "_decider", recording)
    reported = set()
    for raw in _halo_inputs("halo"):
        reported.update(v.code for v in _same_as_full_scan(lcrng_violations, raw))
    for code in HALO_CODES:
        assert {(code, True), (code, False)} <= verdicts, code
    assert set(HALO_CODES) | {"local-mul-not-closed", "local-mul-missing"} <= reported
