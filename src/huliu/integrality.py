"""Graded integral elements over component rings, and the push-down identity.

The 0-part of a structure is a commutative unital ring under the restriction
of ·; the halo is one under #.  An element u of an extension is graded
integral over a subrng when each component satisfies a monic relation with
coefficients in the matching component subring.  Witness search walks the
ascending chain of coefficient-spans of {1, u, u², ...}: the least power
falling into its span gives the minimal monic degree, and coefficients are
recovered by exhaustive combination search with span pruning.  No linear
algebra over non-fields is needed; everything stays exact.  Over one pair
the witnesses of u depend only on its components u·e and u - u·e, so a
sweep over elements searches each component value once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .constructions import FiniteCommRing, _ring_violations
from .errors import InputError, TheoremAlarm
from .ideals import subrng_violation
from .kernel import Subset, format_subset
from .lcrng import LcRng


@dataclass(frozen=True)
class IntegralWitness:
    """Monic dependence u^n + a1·u^(n-1) + ... + a_{n-1}·u + a_n = 0."""

    degree: int
    coefficients: tuple[int, ...]


def component_ring(structure: LcRng, eps: int) -> FiniteCommRing:
    """(R0, ·, e) or (R1, #, local identity) on its carrier; re-verifies the ring laws."""
    if eps == 0:
        ring = FiniteCommRing(
            structure.group,
            structure.mul,
            structure.left_identity,
            "component-0",
            carrier=tuple(sorted(structure.r0)),
        )
    elif eps == 1:
        ring = FiniteCommRing(
            structure.group,
            structure.local_mul,
            structure.local_identity,
            "component-1",
            carrier=tuple(sorted(structure.r1)),
        )
    else:
        raise InputError("bad-component", f"component index must be 0 or 1, got {eps}")
    _verify_component_ring(ring)
    return ring


def _verify_component_ring(ring: FiniteCommRing) -> None:
    bad = next(_ring_violations(ring), None)
    if bad is not None:
        raise TheoremAlarm("component-ring-invalid", f"{ring.name}: {bad}")


def _check_subring(ring: FiniteCommRing, subring: Subset) -> list[int]:
    members = sorted(subring)
    for s in members:
        if s not in ring.members:
            raise InputError(
                "subring-outside-carrier", f"{s} is not in the {ring.name} carrier"
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
    if ring.one not in subring:
        raise InputError(
            "subring-not-unital",
            f"coefficient subring {{{format_subset(subring)}}} misses the identity "
            f"{ring.one} of {ring.name}",
        )
    return members


def witness_holds(ring: FiniteCommRing, u: int, witness: IntegralWitness) -> bool:
    """Evaluates the monic relation in the ring and tests it against zero."""
    n = witness.degree
    acc = ring.power(u, n)
    for j, a in enumerate(witness.coefficients, start=1):
        k = n - j
        term = a if k == 0 else ring.times(a, ring.power(u, k))
        acc = ring.plus(acc, term)
    return acc == 0


def integral_witness(
    ring: FiniteCommRing,
    subring: Iterable[int],
    u: int,
    max_degree: int | None = None,
) -> IntegralWitness | None:
    """Least-degree monic relation for u with coefficients in the subring,
    which must hold the ring's identity.

    The degree-k span is every s_{k-1}·u^(k-1) + ... + s_1·u + s_0 with the
    s_i in the subring; u is integral of degree k exactly when u^k lies in
    that span.
    """
    subset = frozenset(subring)
    members = _check_subring(ring, subset)
    return _witness_search(ring, subset, members, u, max_degree)


def _witness_search(
    ring: FiniteCommRing,
    subset: Subset,
    members: list[int],
    u: int,
    max_degree: int | None,
) -> IntegralWitness | None:
    """integral_witness after its subring check: `members` is the checked
    subring, sorted."""
    if u not in ring.members:
        raise InputError("element-outside-carrier", f"{u} is not in the {ring.name} carrier")
    if max_degree is None:
        max_degree = ring.order
    if max_degree < 1:
        return None

    spans: list[frozenset[int]] = [frozenset({0}), subset]
    powers = [ring.one, u]

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


def _graded_search(
    structure: LcRng,
    subset: Subset,
    elements: Iterable[int],
    max_degree: int | None = None,
) -> Iterator[tuple[int, IntegralWitness | None, IntegralWitness | None]]:
    """(u, w0, w1) for each u of `elements`, lazily, with the witnesses of
    graded_witnesses.  The subrng and both component rings depend only on
    the pair, so they are checked once, before the first element is
    searched.  The coefficient subrings are the parts of the structure
    restricted to the subrng, S ∩ R0 = S·e and S ∩ halo: subrings of the
    component rings, unital because a strict subrng holds e and 1₁, as
    subrng_violation has proved.

    w0 depends only on u·e and w1 only on u - u·e, so each component value
    is searched once, at the first element that has it: |R0| + |R1|
    searches on the whole carrier instead of 2|R|."""
    bad = subrng_violation(structure, subset)
    if bad is not None:
        raise InputError("not-a-subrng", str(bad))
    if max_degree is None:
        max_degree = structure.order
    sub = structure.restrict(subset)
    s0, s1 = sub.r0, sub.r1
    members0, members1 = sorted(s0), sorted(s1)
    ring0 = component_ring(structure, 0)
    ring1 = component_ring(structure, 1)
    found0: dict[int, IntegralWitness | None] = {}
    found1: dict[int, IntegralWitness | None] = {}
    for u in elements:
        u0, u1 = structure.comp0(u), structure.comp1(u)
        if u0 not in found0:
            found0[u0] = _witness_search(ring0, s0, members0, u0, max_degree)
        if u1 not in found1:
            found1[u1] = _witness_search(ring1, s1, members1, u1, max_degree)
        yield u, found0[u0], found1[u1]


def graded_witnesses(
    structure: LcRng,
    subset: Subset,
    u: int,
    max_degree: int | None = None,
) -> tuple[IntegralWitness | None, IntegralWitness | None]:
    """Minimal witnesses for both components of u over the subrng's parts."""
    _, w0, w1 = next(_graded_search(structure, subset, (u,), max_degree))
    return w0, w1


def is_graded_integral(
    structure: LcRng,
    subset: Subset,
    u: int,
    max_degree: int | None = None,
) -> bool:
    """True iff both components of u are integral over the matching parts."""
    w0, w1 = graded_witnesses(structure, subset, u, max_degree=max_degree)
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
