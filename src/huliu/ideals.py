"""Ideals, subrngs, Hu-Liu prime ideals, and the spectrum of a structure.

An ideal must absorb · on both sides and meet the halo in a #-ideal; a
subrng must contain the designated left identity, be ·-closed, and meet the
halo in a subring (strict mode additionally demands the local identity, so
component rings stay unital for the integrality machinery).  Primality is
the componentwise condition: products landing in the ideal force a factor
into the matching component, for · on the 0-part against everything and
for # on the halo.

The ideal lattice is grown, not filtered: every ideal is the sum of the
principal ideals <x> of its elements, and a sum of ideals is an ideal, so
the lattice is the sums of the principal ideals (`kernel._lattice`, the loop
that also grows the subgroup lattice).  <x> is closed from x by right
products and halo #-products with additive generators only, which is exact
because validation has proved · distributive on both sides and #
distributive and commutative on the halo; left products follow from left
commutativity and the link law (`_principal_ideals`).  `ideal_violation`
stays the test of a given subset, with the first witness in row-major order.

Everything here reads a structure on its carrier (`LcRng.elements()`), so
the ideals and primes of a subrng restricted from an ambient structure come
out in the ambient indices, and a subset must lie in the carrier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .errors import InputError, Violation
from .kernel import (
    HOLDS,
    Law,
    Subset,
    Table,
    _cyclic,
    _lattice,
    _law_violations,
    _sum,
    format_subset,
    generating_sequence,
)
from .lcrng import LcRng


@dataclass(frozen=True)
class GradedIdeal:
    """A subset with its grading split; is_prime is tri-state (None = unknown)."""

    carrier: Subset
    i0: Subset
    i1: Subset
    kind: str  # "ideal" | "subrng"
    is_prime: bool | None = None


@dataclass(frozen=True)
class Spectrum:
    primes: tuple[GradedIdeal, ...]

    def carriers(self) -> list[Subset]:
        return [p.carrier for p in self.primes]


def _closed(code: str, message: str, domains: tuple, table: Table, target: Subset) -> Law:
    """The law "table[x][y] lies in target", x and y the last two coordinates."""
    ys = domains[-1]
    everywhere = [True] * len(ys)

    def row(*prefix: int) -> tuple:
        products = table[prefix[-1]]
        if target.issuperset(map(products.__getitem__, ys)):
            return HOLDS
        return [products[y] in target for y in ys], everywhere

    return Law(code, message, domains, row)


def _has(code: str, message: str, v: int, subset: Subset) -> Law:
    """The law "v lies in subset", with witness (v,)."""
    return Law(code, message, ((v,),), lambda: ([v in subset], [True]))


def _subgroup_laws(structure: LcRng, subset: Subset) -> tuple[Law, ...]:
    for i in subset:
        if i not in structure.members:
            raise InputError("subset-out-of-range", f"index {i} not in carrier")
    pairs, add = (sorted(subset),) * 2, structure.group.add
    return (
        _has("not-a-subgroup", "subset misses the additive zero", 0, subset),
        _closed("not-a-subgroup", "subset not closed under +", pairs, add, subset),
    )


def ideal_violation(structure: LcRng, subset: Subset) -> Violation | None:
    """None iff subset is an ideal; otherwise the violated clause + witness."""
    members, rng = sorted(subset), structure.elements()
    mul, loc = structure.mul, structure.local_mul
    part, halo = sorted(subset & structure.halo), sorted(structure.halo)
    laws = (
        *_subgroup_laws(structure, subset),
        _closed("ideal-right-absorb", "IR escapes the subset", (members, rng), mul, subset),
        _closed("ideal-left-absorb", "RI escapes the subset", (rng, members), mul, subset),
        _closed("halo-ideal-absorb", "halo part is not a #-ideal", (part, halo), loc, subset),
    )
    return next(_law_violations(laws), None)


def is_ideal(structure: LcRng, subset: Subset) -> bool:
    return ideal_violation(structure, subset) is None


def subrng_violation(structure: LcRng, subset: Subset, strict: bool = True) -> Violation | None:
    """None iff subset is a left commutative subrng (strict: local identity too)."""
    pairs, halo_pairs = (sorted(subset),) * 2, (sorted(subset & structure.halo),) * 2
    e, mul, loc = structure.left_identity, structure.mul, structure.local_mul
    laws = (
        *_subgroup_laws(structure, subset),
        _has("missing-left-identity", "designated left identity not in subset", e, subset),
        _closed("not-multiplicatively-closed", "II escapes the subset", pairs, mul, subset),
        _closed(
            "halo-not-multiplicatively-closed", "halo part is not #-closed", halo_pairs, loc, subset
        ),
        _has(
            "missing-local-identity",
            "halo part does not contain the local identity (strict mode)",
            structure.local_identity,
            subset,
        ),
    )
    return next(_law_violations(laws if strict else laws[:-1]), None)


def is_subrng(structure: LcRng, subset: Subset, strict: bool = True) -> bool:
    return subrng_violation(structure, subset, strict=strict) is None


def ideal_components(structure: LcRng, subset: Subset) -> tuple[Subset, Subset]:
    """(I ∩ R0, I ∩ halo), verifying every member splits inside the subset."""
    for a in sorted(subset):
        if structure.comp0(a) not in subset or structure.comp1(a) not in subset:
            raise InputError(
                "grading-violation",
                f"element {a} of {{{format_subset(subset)}}} has a component outside it; "
                "the subset is not an ideal or subrng",
            )
    return (subset & structure.r0, subset & structure.r1)


def as_graded_ideal(
    structure: LcRng,
    subset: Subset,
    kind: str = "ideal",
    strict: bool = True,
) -> GradedIdeal:
    if kind == "ideal":
        bad = ideal_violation(structure, subset)
        code = "not-an-ideal"
    elif kind == "subrng":
        bad = subrng_violation(structure, subset, strict=strict)
        code = "not-a-subrng"
    else:
        raise InputError("bad-kind", f"unknown graded subset kind {kind!r}")
    if bad is not None:
        raise InputError(code, str(bad))
    i0, i1 = ideal_components(structure, subset)
    return GradedIdeal(carrier=subset, i0=i0, i1=i1, kind=kind)


def prime_violation(structure: LcRng, ideal: GradedIdeal) -> Violation | None:
    """Direct test of the componentwise primality conditions: products of factors
    outside their components stay outside the ideal, #-products outside its halo part."""
    outside0 = [x for x in sorted(structure.r0) if x not in ideal.i0]
    outside1 = [x for x in sorted(structure.halo) if x not in ideal.i1]
    everything, s, n = structure.members, ideal.carrier, structure.order
    mul, out, out1 = structure.mul, everything - ideal.carrier, everything - ideal.i1
    product = "x0·y lands in the ideal with neither factor in its component"
    local = "x1#y1 lands in the halo part with neither factor in it"
    laws = (
        Law(
            "prime-requires-proper", "the whole rng is never prime", (), lambda: (len(s) < n, True)
        ),
        _closed("prime-product-condition", product, ((0,), outside0, outside0), mul, out),
        _closed("prime-product-condition", product, ((1,), outside0, outside1), mul, out),
        _closed("prime-local-condition", local, (outside1, outside1), structure.local_mul, out1),
    )
    return next(_law_violations(laws), None)


def is_huliu_prime(structure: LcRng, ideal: GradedIdeal | Subset) -> bool:
    if not isinstance(ideal, GradedIdeal):
        ideal = as_graded_ideal(structure, ideal, kind="ideal")
    return prime_violation(structure, ideal) is None


def complement_closure_violation(structure: LcRng, ideal: GradedIdeal) -> Violation | None:
    """Independent primality route: the complement is closed under products.

    Proper ideal, plus: products of 0-part elements outside the ideal stay
    outside; a 0-part element outside times a halo element outside stays
    outside; #-products of halo elements outside the halo part stay outside.
    """
    if len(ideal.carrier) == structure.order:
        return Violation("prime-requires-proper", (), "the whole rng is never prime")
    outside0 = [x for x in sorted(structure.r0) if x not in ideal.carrier]
    outside1 = [x for x in sorted(structure.halo) if x not in ideal.carrier]
    for x0 in outside0:
        for y0 in outside0:
            if structure.times(x0, y0) in ideal.carrier:
                return Violation("complement-closure-00", (x0, y0), "x0·y0 fell into the ideal")
    for x0 in outside0:
        for y1 in outside1:
            if structure.times(x0, y1) in ideal.carrier:
                return Violation("complement-closure-01", (x0, y1), "x0·y1 fell into the ideal")
    for x1 in outside1:
        for y1 in outside1:
            if structure.local(x1, y1) in ideal.i1:
                return Violation("complement-closure-11", (x1, y1), "x1#y1 fell into the ideal")
    return None


def complement_closure_prime(structure: LcRng, ideal: GradedIdeal) -> bool:
    return complement_closure_violation(structure, ideal) is None


def _principal_ideals(structure: LcRng) -> list[Subset]:
    """<x>, the least ideal containing x, for every element x in index order.

    <x> is grown from the multiples of x: every element y added is
    multiplied on the right by the carrier's additive generators, and its
    halo component y1 = y - y·e by the halo's, under #.  A product outside
    the ideal so far is added with its multiples.  That suffices because the
    products are additive in each factor (· and # distribute; # commutes)
    and y -> y - y·e is additive: the elements added generate the ideal,
    and their halo components its halo part.  Left products need no step
    of their own.  With y0 = y·e and r any element, r·y0 = r·(y·e) =
    y·(r·e) by left commutativity, and r·y1 = r·(1₁#y1) = (r·1₁)#y1 by the
    link law, with r·1₁ in the halo: a right product of y and a #-product
    of y1, so both are already in the ideal.
    """
    group, mul, loc = structure.group, structure.mul, structure.local_mul
    gens = generating_sequence(group, structure.members)
    halo_gens = generating_sequence(group, structure.halo)

    def principal(x: int) -> Subset:
        ideal, added = _cyclic(group, x), [x]
        while added:
            y = added.pop()
            halo_row = loc[structure.comp1(y)]
            products = (*(mul[y][g] for g in gens), *(halo_row[h] for h in halo_gens))
            for z in products:
                if z not in ideal:
                    ideal = _sum(group, ideal, _cyclic(group, z))
                    added.append(z)
        return ideal

    return [principal(x) for x in structure.elements()]


def enumerate_ideals(structure: LcRng) -> list[GradedIdeal]:
    """Every ideal, canonically ordered by size then membership.

    An ideal is the sum of the principal ideals of its elements, and a sum
    of ideals is an ideal, so the lattice is grown as the sums of the
    principal ideals.  Every ideal I is graded (I·e lies in I), so its
    components are its meets with R0 and the halo.
    """
    r0, r1 = structure.r0, structure.r1
    return [
        GradedIdeal(ideal, ideal & r0, ideal & r1, kind="ideal")
        for ideal in _lattice(structure.group, _principal_ideals(structure))
    ]


def _primes_among(structure: LcRng, ideals: Iterable[GradedIdeal]) -> Spectrum:
    """The Hu-Liu primes among ideals of the structure, in their order."""
    primes = (replace(i, is_prime=True) for i in ideals if prime_violation(structure, i) is None)
    return Spectrum(primes=tuple(primes))


def spectrum(structure: LcRng) -> Spectrum:
    """All Hu-Liu prime ideals, deduplicated and canonically ordered."""
    return _primes_among(structure, enumerate_ideals(structure))
