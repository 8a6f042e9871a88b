"""Graded integral elements over component rings, and the push-down identity.

The 0-part of a structure is a commutative unital ring under the restriction
of ·; the halo is one under #.  An element u of an extension is graded
integral over a subrng when each component satisfies a monic relation with
coefficients in the matching component subring.  Witness search walks the
ascending chain of coefficient-spans of {1, u, u², ...}: the least power
falling into its span gives the minimal monic degree, and coefficients are
recovered by exhaustive combination search with span pruning.  No linear
algebra over non-fields is needed; everything stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InputError, TheoremAlarm
from .ideals import subrng_violation
from .kernel import (
    FiniteAbelianGroup,
    Law,
    Subset,
    Table,
    _distributes,
    _law_violations,
    _multi_additive,
    format_subset,
    generating_sequence,
)
from .lcrng import LcRng


@dataclass(frozen=True)
class ComponentRing:
    """The 0- or 1-part of a structure with its own product, in ambient indices."""

    label: str
    carrier: tuple[int, ...]
    group: FiniteAbelianGroup
    table: Table
    identity: int

    def plus(self, a: int, b: int) -> int:
        return self.group.add[a][b]

    def neg(self, a: int) -> int:
        return self.group.neg(a)

    def minus(self, a: int, b: int) -> int:
        return self.group.minus(a, b)

    def times(self, a: int, b: int) -> int:
        v = self.table[a][b]
        if v < 0:
            raise InputError("product-undefined", f"{self.label} product undefined at ({a},{b})")
        return v

    def power(self, u: int, k: int) -> int:
        if k == 0:
            return self.identity
        acc = u
        for _ in range(k - 1):
            acc = self.times(acc, u)
        return acc


@dataclass(frozen=True)
class IntegralWitness:
    """Monic dependence u^n + a1·u^(n-1) + ... + a_{n-1}·u + a_n = 0."""

    degree: int
    coefficients: tuple[int, ...]


def component_ring(structure: LcRng, eps: int) -> ComponentRing:
    """(R0, ·, e) or (R1, #, local identity); re-verifies the ring laws."""
    if eps == 0:
        ring = ComponentRing(
            label="component-0",
            carrier=tuple(sorted(structure.r0)),
            group=structure.group,
            table=structure.mul,
            identity=structure.left_identity,
        )
    elif eps == 1:
        ring = ComponentRing(
            label="component-1",
            carrier=tuple(sorted(structure.r1)),
            group=structure.group,
            table=structure.local_mul,
            identity=structure.local_identity,
        )
    else:
        raise InputError("bad-component", f"component index must be 0 or 1, got {eps}")
    _verify_component_ring(ring)
    return ring


def _verify_component_ring(ring: ComponentRing) -> None:
    carrier = ring.carrier
    members = set(carrier)
    if ring.identity not in members:
        raise TheoremAlarm("component-ring-invalid", f"{ring.label}: identity not in carrier")
    add, mul, one = ring.group.add, ring.table, ring.identity
    pairs, cube = (carrier, carrier), (carrier, carrier, carrier)
    everywhere = [True] * len(carrier)
    code = "component-ring-invalid"
    # The carrier of a validated structure is a subgroup of its group.
    # Associativity and distributivity are decided on its generators once
    # every earlier law held: with the product closed and commutative, left
    # distributivity makes it bi-additive.
    try:
        gens = generating_sequence(ring.group, members)
    except InputError:  # not a subgroup, so the closure law fails first
        trilinear = distributes = None
    else:
        trilinear = _multi_additive(("mul",), carrier, gens)
        distributes = _distributes("mul", carrier, gens)

    def closed(a: int) -> tuple:
        return [mul[a][b] in members and add[a][b] in members for b in carrier], everywhere

    def associative(a: int, b: int) -> tuple:
        return [mul[mul[a][b]][c] for c in carrier], [mul[a][mul[b][c]] for c in carrier]

    def distributive(a: int, b: int) -> tuple:
        return [mul[a][add[b][c]] for c in carrier], [add[mul[a][b]][mul[a][c]] for c in carrier]

    laws = (
        Law(code, "not closed at ({},{})", pairs, closed),
        Law(
            code,
            "not commutative at ({},{})",
            pairs,
            lambda a: ([mul[a][b] for b in carrier], [mul[b][a] for b in carrier]),
        ),
        Law(
            code,
            "identity fails at {}",
            (carrier,),
            lambda: ([mul[one][a] for a in carrier], [*carrier]),
        ),
        Law(code, "not associative at ({},{},{})", cube, associative, (code,), trilinear),
        Law(code, "not distributive at ({},{},{})", cube, distributive, (code,), distributes),
    )
    bad = next(_law_violations(laws), None)
    if bad is not None:
        raise TheoremAlarm(code, f"{ring.label}: {bad.message}")


def _check_subring(ring: ComponentRing, subring: Subset, require_unital: bool) -> list[int]:
    members = sorted(subring)
    carrier = set(ring.carrier)
    for s in members:
        if s not in carrier:
            raise InputError(
                "subring-outside-carrier", f"{s} is not in the {ring.label} carrier"
            )
    if 0 not in subring:
        raise InputError("not-a-subring", "coefficient subring misses 0")
    for a in members:
        for b in members:
            if ring.plus(a, b) not in subring or ring.times(a, b) not in subring:
                raise InputError(
                    "not-a-subring",
                    f"coefficient subring not closed at ({a},{b})",
                )
    if require_unital and ring.identity not in subring:
        raise InputError(
            "subring-not-unital",
            f"coefficient subring {{{format_subset(subring)}}} misses the identity "
            f"{ring.identity} of {ring.label}",
        )
    return members


def witness_holds(ring: ComponentRing, u: int, witness: IntegralWitness) -> bool:
    """Evaluates the monic relation in the ring and tests it against zero."""
    n = witness.degree
    acc = ring.power(u, n)
    for j, a in enumerate(witness.coefficients, start=1):
        k = n - j
        term = a if k == 0 else ring.times(a, ring.power(u, k))
        acc = ring.plus(acc, term)
    return acc == 0


def integral_witness(
    ring: ComponentRing,
    subring: Iterable[int],
    u: int,
    max_degree: int | None = None,
    require_unital: bool = True,
) -> IntegralWitness | None:
    """Least-degree monic relation for u with coefficients in the subring.

    The degree-k span is every s_{k-1}·u^(k-1) + ... + s_1·u + s_0 with the
    s_i in the subring (the constant enters plainly, so no identity is
    needed); u is integral of degree k exactly when u^k lies in that span.
    """
    subset = frozenset(subring)
    members = _check_subring(ring, subset, require_unital)
    return _witness_search(ring, subset, members, u, max_degree)


def _witness_search(
    ring: ComponentRing,
    subset: Subset,
    members: list[int],
    u: int,
    max_degree: int | None,
) -> IntegralWitness | None:
    """integral_witness after its subring check: `members` is the checked
    subring, sorted."""
    if u not in set(ring.carrier):
        raise InputError("element-outside-carrier", f"{u} is not in the {ring.label} carrier")
    if max_degree is None:
        max_degree = len(ring.carrier)
    if max_degree < 1:
        return None

    spans: list[frozenset[int]] = [frozenset({0}), subset]
    powers = [ring.identity, u]

    def extract(target: int, k: int) -> list[int] | None:
        if k == 0:
            return [] if target == 0 else None
        for s in members:
            term = s if k == 1 else ring.times(s, powers[k - 1])
            rest = ring.minus(target, term)
            if rest in spans[k - 1]:
                tail = extract(rest, k - 1)
                if tail is not None:
                    return [s] + tail
        return None

    for degree in range(1, max_degree + 1):
        target = ring.power(u, degree)
        while len(powers) <= degree:
            powers.append(ring.times(powers[-1], u))
        if target in spans[degree]:
            combo = extract(target, degree)
            if combo is None:
                raise TheoremAlarm(
                    "span-extraction-failed",
                    f"u^{degree} is in the span but no combination was found",
                )
            coefficients = tuple(ring.neg(s) for s in combo)
            found = IntegralWitness(degree=degree, coefficients=coefficients)
            if not witness_holds(ring, u, found):
                raise TheoremAlarm("witness-check-failed", f"extracted relation fails for {u}")
            return found
        if degree < max_degree:
            nxt = set(spans[degree])
            for v in spans[degree]:
                for s in members:
                    nxt.add(ring.plus(v, ring.times(s, powers[degree])))
            spans.append(frozenset(nxt))
    return None


def component_subrings(structure: LcRng, subset: Subset) -> tuple[Subset, Subset]:
    """(R·e, R ∩ halo) of a subrng, in ambient indices."""
    e = structure.left_identity
    s0 = frozenset(structure.times(r, e) for r in subset)
    s1 = subset & structure.halo
    return s0, s1


def _graded_search(
    structure: LcRng,
    subset: Subset,
    elements: Iterable[int],
    max_degree: int | None = None,
    strict: bool = True,
    require_unital: bool = True,
) -> Iterator[tuple[int, IntegralWitness | None, IntegralWitness | None]]:
    """(u, w0, w1) for each u of `elements`, lazily, with the witnesses of
    graded_witnesses.  The subrng, both component rings and both coefficient
    subrings depend only on the pair, so they are checked once, before the
    first element is searched."""
    bad = subrng_violation(structure, subset, strict=strict)
    if bad is not None:
        raise InputError("not-a-subrng", str(bad))
    if max_degree is None:
        max_degree = structure.order
    s0, s1 = component_subrings(structure, subset)
    ring0 = component_ring(structure, 0)
    members0 = _check_subring(ring0, s0, require_unital)
    ring1 = component_ring(structure, 1)
    members1 = _check_subring(ring1, s1, require_unital)
    for u in elements:
        w0 = _witness_search(ring0, s0, members0, structure.comp0(u), max_degree)
        w1 = _witness_search(ring1, s1, members1, structure.comp1(u), max_degree)
        yield u, w0, w1


def graded_witnesses(
    structure: LcRng,
    subset: Subset,
    u: int,
    max_degree: int | None = None,
    strict: bool = True,
) -> tuple[IntegralWitness | None, IntegralWitness | None]:
    """Minimal witnesses for both components of u over the subrng's parts."""
    _, w0, w1 = next(_graded_search(structure, subset, (u,), max_degree, strict))
    return w0, w1


def is_graded_integral(
    structure: LcRng,
    subset: Subset,
    u: int,
    max_degree: int | None = None,
    strict: bool = True,
) -> bool:
    """True iff both components of u are integral over the matching parts."""
    w0, w1 = graded_witnesses(structure, subset, u, max_degree=max_degree, strict=strict)
    return w0 is not None and w1 is not None


def mul_power(structure: LcRng, x: int, k: int) -> int:
    """k-fold ·-power, k >= 1."""
    if k < 1:
        raise InputError("bad-exponent", "·-power needs k >= 1")
    acc = x
    for _ in range(k - 1):
        acc = structure.times(acc, x)
    return acc


def local_power(structure: LcRng, a: int, k: int) -> int:
    """k-fold #-power of a halo element, k >= 1."""
    if k < 1:
        raise InputError("bad-exponent", "#-power needs k >= 1")
    acc = a
    for _ in range(k - 1):
        acc = structure.local(acc, a)
    return acc


def push_down_check(
    structure: LcRng, x0: int, u1: int, witness: IntegralWitness
) -> bool:
    """Left-multiplies a monic halo relation for u1 by powers of x0 and
    evaluates the transported relation at x0·u1, which must vanish."""
    if x0 not in structure.r0:
        raise InputError("element-outside-carrier", f"{x0} is not in the 0-part")
    if u1 not in structure.halo:
        raise InputError("element-outside-carrier", f"{u1} is not in the halo")
    ring1 = component_ring(structure, 1)
    for a in witness.coefficients:
        if a not in structure.halo:
            raise InputError("witness-coefficient-outside-halo", f"coefficient {a}")
    if not witness_holds(ring1, u1, witness):
        raise InputError("witness-does-not-hold", f"relation fails for {u1}")

    n = witness.degree
    xu = structure.times(x0, u1)
    if xu not in structure.halo:
        raise TheoremAlarm("product-left-halo", f"{x0}·{u1} escaped the halo")
    acc = local_power(structure, xu, n)
    xpow = x0
    for j, a in enumerate(witness.coefficients, start=1):
        coeff = structure.times(xpow, a)
        if j < n:
            term = structure.local(coeff, local_power(structure, xu, n - j))
        else:
            term = coeff
        acc = structure.plus(acc, term)
        xpow = structure.times(xpow, x0)
    return acc == 0
