"""Rings with the Hu-Liu product, and the bridge from left commutative rngs.

A ring (R, +, •) with identity sigma carries a Hu-Liu product when two
auxiliary products ⇀ (rarrow) and ↼ (larrow) decompose it as
x•y = x⇀y + x↼y - (x↼σ)⇀y and satisfy the strong triassociative laws
(x⇀y)•z = x•(y↼z), x⇀(y•z) = (x⇀y)⇀z, (x•y)↼z = (x↼y)↼z together with
distributivity.  Associativity of each arrow is a consequence, so the
validator checks it and classifies a failure as an inconsistent input.
The ring is Hu-Liu commutative when x⇀y - y↼x always lands in the halo
{x : σ⇀x = 0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import getitem, itemgetter
from typing import Callable

from .errors import InputError, TheoremAlarm, ValidationFailure, Violation
from .kernel import (
    HOLDS,
    FiniteAbelianGroup,
    Law,
    Row,
    Subset,
    Table,
    _associative,
    _bracketed,
    _byte_tables,
    _ByteTable,
    _Checked,
    _distributes,
    _first_witness,
    _group_violations,
    _law_holds,
    _law_violations,
    _left_distributive,
    _multi_additive,
    _require_whole,
    _right_columns,
    _right_distributive,
    check_table_shape,
)
from .lcrng import LcRng, Metadata, induced_table


@dataclass(frozen=True)
class RawHlRing:
    group: FiniteAbelianGroup
    bullet: Table
    rarrow: Table
    larrow: Table
    sigma: int
    name: str = ""
    metadata: Metadata = ()


@dataclass(frozen=True)
class HlRing:
    group: FiniteAbelianGroup
    bullet: Table
    rarrow: Table
    larrow: Table
    sigma: int
    halo: Subset
    name: str = ""
    metadata: Metadata = ()

    @property
    def order(self) -> int:
        return self.group.order

    def elements(self) -> range:
        return range(self.group.order)

    def plus(self, a: int, b: int) -> int:
        return self.group.add[a][b]

    def minus(self, a: int, b: int) -> int:
        return self.group.minus(a, b)

    def raw(self) -> RawHlRing:
        return RawHlRing(
            group=self.group,
            bullet=self.bullet,
            rarrow=self.rarrow,
            larrow=self.larrow,
            sigma=self.sigma,
            name=self.name,
            metadata=self.metadata,
        )


HLRING_CHECKS = (
    "bullet-left-distributive",
    "bullet-right-distributive",
    "bullet-not-associative",
    "bullet-identity-fails",
    "product-decomposition",
    "strong-law-bullet-link",
    "strong-law-rarrow",
    "strong-law-larrow",
    "rarrow-left-distributive",
    "rarrow-right-distributive",
    "larrow-left-distributive",
    "larrow-right-distributive",
    "rarrow-not-associative",
    "larrow-not-associative",
)


def hlring_violations(raw: RawHlRing) -> list[Violation]:
    """Every failed axiom, first witness each, in a fixed check order."""
    n = raw.group.order
    add = check_table_shape(raw.group.add)
    bullet = check_table_shape(raw.bullet)
    ra = check_table_shape(raw.rarrow)
    la = check_table_shape(raw.larrow)
    if len(bullet) != n or len(ra) != n or len(la) != n:
        raise InputError("table-shape-mismatch", "product tables do not match group order")
    if not (0 <= raw.sigma < n):
        raise InputError("identity-out-of-range", f"identity index {raw.sigma}")

    rng = range(n)
    (A,) = _byte_tables(rng, add)
    out = _group_violations(A)
    if out:
        return out
    B, R, L = _byte_tables(rng, bullet, ra, la)
    s = raw.sigma
    ident = tuple(rng)
    cube = (rng, rng, rng)
    gens = A.sum_generators

    def sigma_fixes() -> tuple:
        if bullet[s] == ident and tuple(map(itemgetter(s), bullet)) == ident:
            return HOLDS
        return [(bullet[s][x], bullet[x][s]) for x in rng], [(x, x) for x in rng]

    def decomposed(x: int) -> tuple:
        """x•y + (x↼σ)⇀y against x⇀y + x↼y, as rows over y: in a group,
        the same positions differ as in x•y against x⇀y + x↼y - (x↼σ)⇀y."""
        return A.pairs(B.row(x), R.row(la[x][s])), A.pairs(R.row(x), L.row(x))

    def distributive(code: str, message: str, name: str, row: Row, right: Row | None) -> Law:
        return Law(code, message, cube, row, decision=_distributes(name, rng, gens, row=right))

    def left(code: str, message: str, name: str, op: _ByteTable) -> Law:
        return distributive(code, message, name, _left_distributive(op, A), None)

    def right(code: str, message: str, name: str, op: _ByteTable) -> Law:
        return distributive(code, message, name, _right_distributive(op, A), _right_columns(op, A))

    def trilinear(code: str, message: str, names: tuple[str, ...], row: Row) -> Law:
        decision = _multi_additive(names, (gens, gens, rng))
        return Law(code, message, cube, row, decision=decision)

    laws = (
        left("bullet-left-distributive", "x•(y+z) != x•y + x•z", "•", B),
        right("bullet-right-distributive", "(x+y)•z != x•z + y•z", "•", B),
        trilinear("bullet-not-associative", "(x•y)•z != x•(y•z)", ("•",), _associative(B)),
        Law("bullet-identity-fails", "σ is not a •-identity", (rng,), sigma_fixes),
        Law(
            "product-decomposition",
            "x•y != x⇀y + x↼y - (x↼σ)⇀y",
            (rng, rng),
            decomposed,
            decision=_multi_additive(("•", "⇀", "↼"), (gens, rng)),
        ),
        trilinear(
            "strong-law-bullet-link",
            "(x⇀y)•z != x•(y↼z)",
            ("•", "⇀", "↼"),
            _bracketed(B, R, B, L),
        ),
        trilinear("strong-law-rarrow", "x⇀(y•z) != (x⇀y)⇀z", ("⇀", "•"), _bracketed(R, R, R, B)),
        trilinear(
            "strong-law-larrow",
            "(x•y)↼z != (x↼y)↼z",
            ("↼", "•"),
            lambda x, y: (la[bullet[x][y]], la[la[x][y]]),
        ),
        left("rarrow-left-distributive", "x⇀(y+z) != x⇀y + x⇀z", "⇀", R),
        right("rarrow-right-distributive", "(x+y)⇀z != x⇀z + y⇀z", "⇀", R),
        left("larrow-left-distributive", "x↼(y+z) != x↼y + x↼z", "↼", L),
        right("larrow-right-distributive", "(x+y)↼z != x↼z + y↼z", "↼", L),
        trilinear(
            "rarrow-not-associative",
            "⇀ is not associative (inconsistent input: this must follow)",
            ("⇀",),
            _associative(R),
        ),
        trilinear(
            "larrow-not-associative",
            "↼ is not associative (inconsistent input: this must follow)",
            ("↼",),
            _associative(L),
        ),
    )
    return list(_law_violations(laws))


def validate_hlring(raw: RawHlRing) -> HlRing:
    violations = hlring_violations(raw)
    if violations:
        raise ValidationFailure(violations)
    halo = frozenset(x for x in range(raw.group.order) if raw.rarrow[raw.sigma][x] == 0)
    return HlRing(
        group=raw.group,
        bullet=raw.bullet,
        rarrow=raw.rarrow,
        larrow=raw.larrow,
        sigma=raw.sigma,
        halo=halo,
        name=raw.name,
        metadata=raw.metadata,
    )


def hl_halo(ring: HlRing) -> Subset:
    """{x : σ⇀x = 0}, recomputed from the tables."""
    return frozenset(x for x in ring.elements() if ring.rarrow[ring.sigma][x] == 0)


def hl_commutativity_violation(ring: HlRing) -> Violation | None:
    add, neg, halo, la = ring.group.add, ring.group.negation, ring.halo, ring.larrow
    rng = ring.elements()
    inside = [True] * ring.order
    columns = tuple(zip(*la))

    def row(x: int) -> tuple:
        minus_yx = map(neg.__getitem__, columns[x])
        if halo.issuperset(map(getitem, map(add.__getitem__, ring.rarrow[x]), minus_yx)):
            return HOLDS
        return [add[v][neg[r[x]]] in halo for v, r in zip(ring.rarrow[x], la)], inside

    witness = _first_witness(row, (rng, rng))
    if witness is None:
        return None
    return Violation("not-hl-commutative", witness, "x⇀y - y↼x is outside the halo")


def is_hl_commutative(ring: HlRing) -> bool:
    return hl_commutativity_violation(ring) is None


def from_lcrng(structure: LcRng) -> HlRing:
    """Bridge: σ = the designated left identity, x⇀y = y·x, x↼y = x·y,
    • = the induced product.  Validated at runtime rather than trusted.

    The transpose of · and the induced table hold entries of · and of +,
    which validation of the structure checked, so they are marked checked
    and their shape is not checked again; the laws all are."""
    _require_whole("structure", structure)
    mul = check_table_shape(structure.mul)  # at once: validation checked it
    raw = RawHlRing(
        group=structure.group,
        bullet=_Checked(induced_table(structure)),
        rarrow=_Checked(zip(*mul)),
        larrow=mul,
        sigma=structure.left_identity,
        name=f"hl({structure.name})" if structure.name else "",
        metadata=structure.metadata,
    )
    try:
        ring = validate_hlring(raw)
    except ValidationFailure as failure:
        raise TheoremAlarm(
            "bridge-axiom-failure",
            "bridge output failed validation on a validated input",
            dump="\n".join(str(v) for v in failure.violations),
        ) from failure
    if ring.halo != structure.halo:
        raise TheoremAlarm(
            "bridge-axiom-failure",
            f"bridge halo {sorted(ring.halo)} differs from {sorted(structure.halo)}",
        )
    if not is_hl_commutative(ring):
        raise TheoremAlarm("bridge-axiom-failure", "bridge output is not Hu-Liu commutative")
    return ring


# Loday's associative-dialgebra axioms with < as ↼ and > as ⇀.  Each row
# function takes the (<, >) tables in the law engine's row form
# (`kernel._ByteTable`) and x, y, and returns both sides as rows over z.
DIALGEBRA_IDENTITIES: tuple[tuple[str, Callable[..., tuple]], ...] = (
    ("(x<y)<z == x<(y<z)", lambda lt, gt, x, y: (lt.row(lt.table[x][y]), lt.at(x, lt.row(y)))),
    ("x<(y<z) == x<(y>z)", lambda lt, gt, x, y: (lt.at(x, lt.row(y)), lt.at(x, gt.row(y)))),
    ("(x>y)<z == x>(y<z)", lambda lt, gt, x, y: (lt.row(gt.table[x][y]), gt.at(x, lt.row(y)))),
    ("(x<y)>z == (x>y)>z", lambda lt, gt, x, y: (gt.row(lt.table[x][y]), gt.row(gt.table[x][y]))),
    ("x>(y>z) == (x>y)>z", lambda lt, gt, x, y: (gt.at(x, gt.row(y)), gt.row(gt.table[x][y]))),
)


def diassociativity_report(ring: HlRing) -> dict[str, bool]:
    """Which of the five associative-dialgebra identities hold (< is ↼,
    > is ⇀).  This is a report, never a validation gate, and the ring need
    not be validated beyond the shape of its arrows: the identities are
    decided on generators only when + is an abelian group and both arrows
    distribute over it, and are scanned in full otherwise."""
    rng = ring.elements()
    cube = (rng, rng, rng)
    LT, GT = _byte_tables(rng, check_table_shape(ring.larrow), check_table_shape(ring.rarrow))
    try:
        (A,) = _byte_tables(rng, check_table_shape(ring.group.add))
        gens = None if _group_violations(A) else A.sum_generators
    except InputError:
        gens = None
    gates: tuple[Law, ...] = ()
    decision = None
    if gens is not None:
        gates = tuple(
            Law(name, "", cube, row, decision=_distributes(name, rng, gens, row=right))
            for name, T in (("<", LT), (">", GT))
            for row, right in (
                (_left_distributive(T, A), None),
                (_right_distributive(T, A), _right_columns(T, A)),
            )
        )
        decision = _multi_additive(("<", ">"), (gens, gens, rng))
    laws = [
        Law(name, "", cube, partial(row, LT, GT), decision=decision)
        for name, row in DIALGEBRA_IDENTITIES
    ]
    return dict(zip((name for name, _ in DIALGEBRA_IDENTITIES), _law_holds(laws, gates)))
