"""Left commutative rngs: validation, grading, and the induced product.

A structure is a finite rng (R, +, ·) whose associative product satisfies
x·y·z = y·x·z, together with a designated left identity e (e·x = x), and a
second product # making the additive halo {x : x·e = 0} a commutative ring
with local identity, linked to · by (x·a)#b = x·(a#b).  Validation checks
every axiom exhaustively over the tables and reports each failed axiom with
its first failing tuple in row-major order.  The ring laws of · come from
`kernel._product_laws`; left commutativity and the laws of # on the halo
are decided on generators after the laws they rest on (`Decision.after`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, compress
from operator import getitem, itemgetter

from .errors import InputError, TheoremAlarm, ValidationFailure, Violation
from .kernel import (
    HOLDS,
    SENTINEL,
    Decision,
    FiniteAbelianGroup,
    Law,
    Subset,
    Table,
    _additive,
    _byte_tables,
    _distributes,
    _law_violations,
    _multi_additive,
    _product_laws,
    _require_whole,
    check_table_shape,
    generating_sequence,
)

Metadata = tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class RawLcRng:
    """Unvalidated tables: addition (via group), ·, designated e, and #.

    local_mul is a full n-by-n table with SENTINEL outside halo-by-halo.
    """

    group: FiniteAbelianGroup
    mul: Table
    left_identity: int
    local_mul: Table
    name: str = ""
    metadata: Metadata = ()


@dataclass(frozen=True)
class LcRng:
    """A validated left commutative rng with its computed grading data, on a
    subgroup of its group, in the group's indices: `carrier` is a sorted
    tuple that defaults to the whole group, and `halo`, `r0` and `r1` lie in
    it.  Entries of the tables off the carrier are never read.  A structure
    on a proper carrier is a strict subrng of one on the whole group
    (`restrict`).  Validation keeps `mul` and `local_mul` as it checked
    them, marked (`kernel.check_table_shape`), so they are not checked again."""

    group: FiniteAbelianGroup
    mul: Table
    left_identity: int
    local_mul: Table
    halo: Subset
    local_identity: int
    r0: Subset
    r1: Subset
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

    def elements(self) -> tuple[int, ...]:
        return self.carrier

    def restrict(self, subset: Subset) -> LcRng:
        """This structure on the carrier of a strict subrng S, which the
        caller has proved one (`ideals.subrng_violation`): the same tables,
        with the halo and both parts met with S.  Nothing is validated
        again, since every axiom holds on S (see `lyingover.embed_check`).
        The whole carrier gives the structure itself."""
        if len(subset) == self.order:
            return self
        halo = self.halo & subset
        return replace(
            self, carrier=tuple(sorted(subset)), halo=halo, r0=self.r0 & subset, r1=halo
        )

    def plus(self, a: int, b: int) -> int:
        return self.group.add[a][b]

    def minus(self, a: int, b: int) -> int:
        return self.group.minus(a, b)

    def times(self, x: int, y: int) -> int:
        return self.mul[x][y]

    def local(self, a: int, b: int) -> int:
        v = self.local_mul[a][b]
        if v == SENTINEL:
            raise InputError("local-product-undefined", f"# undefined at ({a},{b})")
        return v

    def comp0(self, a: int) -> int:
        return self.mul[a][self.left_identity]

    def comp1(self, a: int) -> int:
        return self.minus(a, self.comp0(a))

    def raw(self) -> RawLcRng:
        _require_whole("structure", self)
        return RawLcRng(
            group=self.group,
            mul=self.mul,
            left_identity=self.left_identity,
            local_mul=self.local_mul,
            name=self.name,
            metadata=self.metadata,
        )


@dataclass(frozen=True)
class Decomposition:
    """The grading R = R0 + R1 with per-element components a0 = a·e, a1 = a - a·e."""

    r0: Subset
    r1: Subset
    comp0: tuple[int, ...]
    comp1: tuple[int, ...]


LCRNG_CHECKS = (
    "mul-left-distributive",
    "mul-right-distributive",
    "mul-not-associative",
    "not-left-commutative",
    "left-identity-fails",
    "two-sided-identity",
    "empty-halo",
    "halo-not-subgroup",
    "local-mul-outside-halo",
    "local-mul-missing",
    "local-mul-not-closed",
    "local-mul-not-commutative",
    "local-mul-not-associative",
    "local-mul-not-distributive",
    "no-local-identity",
    "local-triassociativity",
    "grading-not-direct",
)


# The ring laws of · over +, as `kernel._product_laws` states them.
MUL_LAWS = (
    ("mul-left-distributive", "x(y+z) != xy+xz"),
    ("mul-right-distributive", "(x+y)z != xz+yz"),
    ("mul-not-associative", "(xy)z != x(yz)"),
)
# What every halo decision rests on: the halo is a subgroup, and # is
# defined and closed on it.  The two multi-additive ones add that # is
# commutative and left distributive, so that it distributes on both sides.
HALO_RING = ("halo-not-subgroup", "local-mul-missing", "local-mul-not-closed")
HASH_BILINEAR = (*HALO_RING, "local-mul-not-commutative", "local-mul-not-distributive")


def _halo_decisions(
    group: FiniteAbelianGroup, halo: Subset, gens: list[int]
) -> tuple[Decision, Decision, Decision] | tuple[None, None, None]:
    """Decisions for the laws of # on the halo, on its additive generators,
    or Nones when the halo is not a subgroup (those laws are then scanned
    in full).

    - a#(b+c) = a#b + a#c with b on the generators (`_distributes`).
    - (a#b)#c = a#(b#c) with a and b on them, once # distributes.
    - x·a in the halo and (x·a)#b = x·(a#b), with x on the generators
      `gens` of R and a on the halo's, once · and # distribute: x·a is
      additive in x and a and the halo is a subgroup, so the x and a that
      pass are closed under +; each side is additive in each variable.

    With no generators (the halo is {0}), closure gives 0#0 = 0 and each
    law holds at (0, 0, 0).
    """
    try:
        halo_gens = generating_sequence(group, halo)
    except InputError:
        return None, None, None
    hs = sorted(halo)
    return (
        _distributes(hs, halo_gens, after=HALO_RING),
        _multi_additive((halo_gens, halo_gens, hs), HASH_BILINEAR),
        _multi_additive((gens, halo_gens, hs), (*HASH_BILINEAR, MUL_LAWS[0][0], MUL_LAWS[1][0])),
    )


def lcrng_violations(raw: RawLcRng) -> list[Violation]:
    """Every failed axiom (one violation per axiom, first witness each).

    Group axiom failures short-circuit the rest: sums and negations are
    meaningless over a broken addition table.
    """
    return _checked(raw)[0]


def _checked(raw: RawLcRng) -> tuple[list[Violation], LcRng | None]:
    """lcrng_violations, and the structure they validate when there are none."""
    n = raw.group.order
    group = _additive(raw.group)
    add = group.add
    mul = check_table_shape(raw.mul)
    if len(mul) != n:
        raise InputError("table-shape-mismatch", "mul table does not match group order")
    loc = check_table_shape(raw.local_mul, allow_sentinel=True)
    if len(loc) != n:
        raise InputError("table-shape-mismatch", "local_mul table does not match group order")
    e = raw.left_identity
    if not (0 <= e < n):
        raise InputError("left-identity-out-of-range", f"designated left identity {e}")

    rng = range(n)
    out = list(group._group_laws)
    if out:
        return out, None
    A = group._sums
    (M,) = _byte_tables(rng, mul)
    ident = tuple(rng)
    halo = frozenset(x for x in rng if mul[x][e] == 0)
    hs = tuple(sorted(halo))
    r0 = frozenset(map(itemgetter(e), mul))
    # # on the halo, as rows over the halo: loc_h[a][i] = a # hs[i].
    loc_h = {a: tuple(map(loc[a].__getitem__, hs)) for a in hs}
    loc_cols = dict(zip(hs, zip(*loc_h.values())))
    local_identity = next((c for c in hs if loc_h[c] == hs), None)
    neg = raw.group.negation
    everywhere, on_halo = [True] * n, [True] * len(hs)
    undefined, off_halo = (SENTINEL,) * n, [b not in halo for b in rng]
    off_undefined = (SENTINEL,) * (n - len(hs))
    cube, halo_pairs, halo_cube = (rng, rng, rng), (hs, hs), (hs, hs, hs)
    local = ("local-mul-missing",)
    gens = A.sum_generators
    mul_laws = _product_laws(M, A, rng, gens, MUL_LAWS)
    trilinear = mul_laws[2].decision  # xyz = yxz is multi-additive as associativity is
    local_distributes, local_trilinear, triassociates = _halo_decisions(raw.group, halo, gens)

    def left_commutative(x: int, y: int) -> tuple:
        return mul[mul[x][y]], mul[mul[y][x]]

    def identities() -> tuple:
        lefts = compress(rng, map(ident.__eq__, mul))
        two_sided = {c for c in lefts if tuple(map(itemgetter(c), mul)) == ident}
        if not two_sided:
            return HOLDS
        return [c in two_sided for c in rng], [False] * n

    def halo_closed(a: int) -> tuple:
        if halo.issuperset(map(add[a].__getitem__, hs)):
            return HOLDS
        return [add[a][b] in halo for b in hs], on_halo

    def defined_on_halo(a: int) -> tuple:
        if a in halo:
            holds = tuple(compress(loc[a], off_halo)) == off_undefined
        else:
            holds = loc[a] == undefined
        if holds:
            return HOLDS
        on_pair = [a in halo and b in halo for b in rng]
        return [v == SENTINEL or ok for v, ok in zip(loc[a], on_pair)], everywhere

    def local_defined(a: int) -> tuple:
        if SENTINEL not in loc_h[a]:
            return HOLDS
        return [v != SENTINEL for v in loc_h[a]], on_halo

    def local_closed(a: int) -> tuple:
        if halo.issuperset(loc_h[a]):
            return HOLDS
        return [v in halo for v in loc_h[a]], on_halo

    def local_commutative(a: int) -> tuple:
        return loc_h[a], loc_cols[a]

    def local_associative(a: int, b: int) -> tuple:
        ab, lb = loc[a][b], loc_h[b]
        if ab not in halo:
            return HOLDS
        if halo.issuperset(lb) and loc_h[ab] == tuple(map(loc[a].__getitem__, lb)):
            return HOLDS
        return [v not in halo or loc[ab][c] == loc[a][v] for c, v in zip(hs, lb)], on_halo

    def local_distributive(a: int, b: int) -> tuple:
        row = loc[a]
        return (
            tuple(map(row.__getitem__, map(add[b].__getitem__, hs))),
            tuple(map(add[row[b]].__getitem__, loc_h[a])),
        )

    def has_local_identity() -> tuple:
        return local_identity is not None, True

    # The rows of local-triassociativity at one x are settled together:
    # x·hs in the halo, and (x·a)#b against x·(a#b) for every a and b at once.
    loc_flat = tuple(chain.from_iterable(loc_h.values()))
    loc_closed = halo.issuperset(loc_flat)
    settled: list = [None, False]

    def triassociative(x: int, a: int) -> tuple:
        if settled[0] != x:
            xh = tuple(map(mul[x].__getitem__, hs))
            settled[:] = x, (
                loc_closed
                and halo.issuperset(xh)
                and tuple(chain.from_iterable(map(loc_h.__getitem__, xh)))
                == tuple(map(mul[x].__getitem__, loc_flat))
            )
        if settled[1]:
            return HOLDS
        xa, la = mul[x][a], loc_h[a]
        if xa not in halo:
            return [False] * len(hs), on_halo
        return [v in halo and loc[xa][b] == mul[x][v] for b, v in zip(hs, la)], on_halo

    def direct() -> tuple:
        return r0 & halo == {0} and len(r0) * len(halo) == n, True

    def splits() -> tuple:
        a0 = tuple(map(itemgetter(e), mul))
        a1 = tuple(map(getitem, add, map(neg.__getitem__, a0)))
        if halo.issuperset(a1) and tuple(map(getitem, map(add.__getitem__, a0), a1)) == ident:
            return HOLDS
        parts = zip(rng, a0, a1)
        return [a1 in halo and add[a0][a1] == a for a, a0, a1 in parts], everywhere

    laws = (
        *mul_laws,
        Law("not-left-commutative", "xyz != yxz", cube, left_commutative, decision=trilinear),
        Law(
            "left-identity-fails",
            "designated left identity does not fix {}",
            (rng,),
            lambda: (mul[e], ident),
        ),
        Law("two-sided-identity", "{} is a two-sided identity; not a rng", (rng,), identities),
        Law(
            "empty-halo",
            "the additive halo is trivial",
            ((0,),),
            lambda: ([not halo <= {0}], [True]),
        ),
        Law("halo-not-subgroup", "halo not closed under addition", halo_pairs, halo_closed),
        Law("local-mul-outside-halo", "# defined off the halo", (rng, rng), defined_on_halo),
        Law("local-mul-missing", "# undefined on a halo pair", halo_pairs, local_defined),
        Law("local-mul-not-closed", "# leaves the halo", halo_pairs, local_closed, local),
        Law("local-mul-not-commutative", "# not commutative", halo_pairs, local_commutative, local),
        Law(
            "local-mul-not-associative",
            "# not associative",
            halo_cube,
            local_associative,
            local,
            local_trilinear,
        ),
        Law(
            "local-mul-not-distributive",
            "a#(b+c) != a#b+a#c",
            halo_cube,
            local_distributive,
            ("halo-not-subgroup", *local),
            local_distributes,
        ),
        Law("no-local-identity", "the halo ring has no identity", (), has_local_identity, local),
        Law(
            "local-triassociativity",
            "(xa)#b != x(a#b)",
            (rng, hs, hs),
            triassociative,
            local,
            triassociates,
        ),
        Law("grading-not-direct", "carrier is not the direct sum of R0 and the halo", (), direct),
        Law(
            "grading-not-direct",
            "element does not split as a0 + a1",
            (rng,),
            splits,
            ("grading-not-direct",),
        ),
    )
    out = list(_law_violations(laws))
    if out:
        return out, None
    return out, LcRng(
        group=raw.group,
        mul=mul,
        left_identity=e,
        local_mul=loc,
        halo=halo,
        local_identity=local_identity,
        r0=r0,
        r1=halo,
        name=raw.name,
        metadata=raw.metadata,
    )


def validate_lcrng(raw: RawLcRng) -> LcRng:
    """Fully validated structure, or ValidationFailure with every failed axiom."""
    violations, structure = _checked(raw)
    if violations:
        raise ValidationFailure(violations)
    return structure


def left_identities(structure: LcRng) -> Subset:
    """All e' with e'·x = x; always contains the designated one."""
    rng, mul = structure.elements(), structure.mul
    return frozenset(c for c in rng if all(mul[c][x] == x for x in rng))


def decompose(structure: LcRng) -> Decomposition:
    """Per-element split a = a0 + a1 along R = R0 + halo, verified direct."""
    _require_whole("structure", structure)
    n = structure.order
    comp0 = tuple(structure.comp0(a) for a in range(n))
    comp1 = tuple(structure.comp1(a) for a in range(n))
    seen: dict[tuple[int, int], int] = {}
    for a in range(n):
        if comp0[a] not in structure.r0 or comp1[a] not in structure.r1:
            raise TheoremAlarm(
                "decomposition-not-direct",
                f"component of {a} escapes its part",
                dump=f"comp0={comp0} comp1={comp1}",
            )
        if structure.plus(comp0[a], comp1[a]) != a:
            raise TheoremAlarm("decomposition-not-direct", f"{a} != a0 + a1")
        key = (comp0[a], comp1[a])
        if key in seen:
            raise TheoremAlarm(
                "decomposition-not-direct", f"{a} and {seen[key]} share components {key}"
            )
        seen[key] = a
    return Decomposition(r0=structure.r0, r1=structure.r1, comp0=comp0, comp1=comp1)


def induced_product(structure: LcRng, x: int, y: int) -> int:
    """The commutative product x*y = xy + yx - (yx)e tied to the designated e."""
    xy = structure.times(x, y)
    yx = structure.times(y, x)
    return structure.plus(xy, structure.minus(yx, structure.times(yx, structure.left_identity)))


def induced_table(structure: LcRng) -> Table:
    """induced_product on every pair, by whole rows: x*y = xy + c(yx), with
    c(v) = v - v·e the halo component."""
    _require_whole("structure", structure)
    add, mul, neg = structure.group.add, structure.mul, structure.group.negation
    columns = tuple(zip(*mul))
    component = tuple(map(getitem, add, map(neg.__getitem__, columns[structure.left_identity])))
    return tuple(
        tuple(map(getitem, map(add.__getitem__, row), map(component.__getitem__, column)))
        for row, column in zip(mul, columns)
    )
