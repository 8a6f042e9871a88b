"""Rings with the Hu-Liu product, and the bridge from left commutative rngs.

A ring (R, +, •) with identity sigma carries a Hu-Liu product when two
auxiliary products ⇀ (rarrow) and ↼ (larrow) decompose it as
x•y = x⇀y + x↼y - (x↼σ)⇀y and satisfy the strong triassociative laws
(x⇀y)•z = x•(y↼z), x⇀(y•z) = (x⇀y)⇀z, (x•y)↼z = (x↼y)↼z together with
distributivity.  Associativity of each arrow is a consequence, so the
validator checks it last and classifies a failure as an inconsistent
input.  The ring laws of •, ⇀ and ↼ come from `kernel._product_laws`, and
the laws that compose them are decided on generators after the
distributive laws of the tables they compose.  The ring is Hu-Liu
commutative when x⇀y - y↼x always lands in the halo {x : σ⇀x = 0}, one
law of the engine over byte rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable

from .errors import InputError, TheoremAlarm, ValidationFailure, Violation
from .kernel import (
    HOLDS,
    FiniteAbelianGroup,
    Law,
    Row,
    Subset,
    Table,
    _additive,
    _bracketed,
    _byte_tables,
    _Checked,
    _law_holds,
    _law_violations,
    _multi_additive,
    _product_laws,
    _require_whole,
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


BULLET_LAWS = (
    ("bullet-left-distributive", "x•(y+z) != x•y + x•z"),
    ("bullet-right-distributive", "(x+y)•z != x•z + y•z"),
    ("bullet-not-associative", "(x•y)•z != x•(y•z)"),
)
# Associativity of each arrow follows from the other laws, so it is checked
# last, and its failure marks an inconsistent input.
RARROW_LAWS = (
    ("rarrow-left-distributive", "x⇀(y+z) != x⇀y + x⇀z"),
    ("rarrow-right-distributive", "(x+y)⇀z != x⇀z + y⇀z"),
    ("rarrow-not-associative", "⇀ is not associative (inconsistent input: this must follow)"),
)
LARROW_LAWS = (
    ("larrow-left-distributive", "x↼(y+z) != x↼y + x↼z"),
    ("larrow-right-distributive", "(x+y)↼z != x↼z + y↼z"),
    ("larrow-not-associative", "↼ is not associative (inconsistent input: this must follow)"),
)


def _products(n: int, *tables: Table) -> list[Table]:
    """Each product table with its shape checked, all of the group's order n."""
    checked = [check_table_shape(t) for t in tables]
    if any(len(t) != n for t in checked):
        raise InputError("table-shape-mismatch", "product tables do not match group order")
    return checked


def hlring_violations(raw: RawHlRing) -> list[Violation]:
    """Every failed axiom, first witness each, in a fixed check order."""
    n = raw.group.order
    group = _additive(raw.group)
    bullet, ra, la = _products(n, raw.bullet, raw.rarrow, raw.larrow)
    if not (0 <= raw.sigma < n):
        raise InputError("identity-out-of-range", f"identity index {raw.sigma}")

    rng = range(n)
    out = list(group._group_laws)
    if out:
        return out
    A = group._sums
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

    bullet_laws = _product_laws(B, A, rng, gens, BULLET_LAWS)
    rarrow_laws = _product_laws(R, A, rng, gens, RARROW_LAWS)
    larrow_laws = _product_laws(L, A, rng, gens, LARROW_LAWS)

    def distributive(*triples: tuple[Law, Law, Law]) -> tuple[str, ...]:
        return tuple(law.code for laws in triples for law in laws[:2])

    def trilinear(code: str, message: str, after: tuple[str, ...], row: Row) -> Law:
        return Law(code, message, cube, row, decision=_multi_additive((gens, gens, rng), after))

    products = distributive(bullet_laws, rarrow_laws, larrow_laws)  # all three distribute
    laws = (
        *bullet_laws,
        Law("bullet-identity-fails", "σ is not a •-identity", (rng,), sigma_fixes),
        Law(
            "product-decomposition",
            "x•y != x⇀y + x↼y - (x↼σ)⇀y",
            (rng, rng),
            decomposed,
            decision=_multi_additive((gens, rng), products),
        ),
        trilinear("strong-law-bullet-link", "(x⇀y)•z != x•(y↼z)", products, _bracketed(B, R, B, L)),
        trilinear(
            "strong-law-rarrow",
            "x⇀(y•z) != (x⇀y)⇀z",
            distributive(rarrow_laws, bullet_laws),
            _bracketed(R, R, R, B),
        ),
        trilinear(
            "strong-law-larrow",
            "(x•y)↼z != (x↼y)↼z",
            distributive(larrow_laws, bullet_laws),
            lambda x, y: (la[bullet[x][y]], la[la[x][y]]),
        ),
        *rarrow_laws[:2],
        *larrow_laws[:2],
        rarrow_laws[2],
        larrow_laws[2],
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
    """The first (x, y) in row-major order where x⇀y - y↼x leaves the
    halo, or None.  The row at x is x⇀y plus the ↼ column at x negated,
    read through the halo's indicator and compared with a row of ones."""
    rng = ring.elements()
    A = _additive(ring.group)._sums
    ra, la = _products(ring.order, ring.rarrow, ring.larrow)
    columns = list(zip(*la))
    negated = bytes(ring.group.negation).ljust(256, b"\0")
    inside = bytes(map(ring.halo.__contains__, rng)).ljust(256, b"\0")
    ones = b"\1" * ring.order

    def row(x: int) -> tuple:
        minus_yx = bytes(columns[x]).translate(negated)
        return A.pairs(bytes(ra[x]), minus_yx).translate(inside), ones

    law = Law("not-hl-commutative", "x⇀y - y↼x is outside the halo", (rng, rng), row)
    return next(_law_violations((law,)), None)


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
    LT, GT = _byte_tables(rng, *_products(ring.order, ring.larrow, ring.rarrow))
    try:
        group = _additive(ring.group)
    except InputError:
        gens = None
    else:
        A = group._sums
        gens = None if group._group_laws else A.sum_generators
    laws: list[Law] = []
    decision = None
    if gens is not None:  # the identities rest on both arrows distributing
        for name, T in (("<", LT), (">", GT)):
            kinds = ("left-distributive", "right-distributive", "associative")
            laws += _product_laws(T, A, rng, gens, tuple((f"{name} {k}", "") for k in kinds))[:2]
        decision = _multi_additive((gens, gens, rng), tuple(law.code for law in laws))
    laws += [
        Law(name, "", cube, partial(row, LT, GT), decision=decision)
        for name, row in DIALGEBRA_IDENTITIES
    ]
    names = [name for name, _ in DIALGEBRA_IDENTITIES]
    return dict(zip(names, _law_holds(laws, names)))
