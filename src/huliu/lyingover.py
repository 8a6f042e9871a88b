"""Finite replay of the lying-over theorem.

For a subrng R of a structure U with U graded integral over R, every
Hu-Liu prime p of R is the trace q ∩ R of some Hu-Liu prime q of U.  The
classical proof picks a maximal element of T = {ideals J of U with
J ∩ R ⊆ p} by Zorn's Lemma; here the ideal lattice is finite, so maximal
elements are found by exhaustive search and both proof targets — the
maximal element meets R exactly in p, and it is prime — become runnable
checks.  T-sets, witnesses and the primality of maximal elements are all
read off one ambient ideal lattice and spectrum, built once and carried on
the pair.  The subrng is the ambient structure on its own carrier, so p,
the primes of R and every witness are in the ambient indices, and nothing
is re-indexed or validated again.  A missing witness would falsify the
theorem and raises an alarm with a full diagnostic dump rather than a
normal error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError, TheoremAlarm
from .ideals import (
    GradedIdeal,
    Spectrum,
    _primes_among,
    as_graded_ideal,
    enumerate_ideals,
    prime_violation,
    spectrum,
)
from .integrality import _graded_search
from .kernel import Subset, format_subset
from .lcrng import LcRng


@dataclass(frozen=True)
class SubrngPair:
    """A strict subrng R of an ambient structure U: `restricted` is U on R's
    carrier (`LcRng.restrict`), so both live in U's indices."""

    ambient: LcRng
    restricted: LcRng

    @property
    def sub(self) -> Subset:
        """R's carrier as a set."""
        return self.restricted.members

    @cached_property
    def ambient_ideals(self) -> tuple[GradedIdeal, ...]:
        """Every ideal of the ambient structure, canonically ordered."""
        return tuple(enumerate_ideals(self.ambient))

    @cached_property
    def ambient_spectrum(self) -> Spectrum:
        """The Hu-Liu primes of the ambient structure, filtered from its ideals."""
        return _primes_among(self.ambient, self.ambient_ideals)

    @cached_property
    def sub_spectrum(self) -> Spectrum:
        """The Hu-Liu primes of the subrng; on the whole carrier the
        restricted structure is the ambient one, whose spectrum is reused."""
        if self.restricted is self.ambient:
            return self.ambient_spectrum
        return spectrum(self.restricted)


@dataclass(frozen=True)
class LyingOverRow:
    """One prime of the subrng with its witnesses and maximal-element data."""

    p: Subset
    witnesses: tuple[Subset, ...]
    maximal: tuple[Subset, ...]
    maximal_meets_p: bool
    maximal_all_prime: bool

    @property
    def ok(self) -> bool:
        """A witness exists and every maximal element meets both proof targets."""
        return bool(self.witnesses) and self.maximal_meets_p and self.maximal_all_prime


@dataclass(frozen=True)
class LyingOverReport:
    rows: tuple[LyingOverRow, ...]
    passed: bool


def embed_check(structure: LcRng, subset: Subset) -> SubrngPair:
    """Verified pair: the strict subrng axioms (`subrng_violation`) and
    graded integrality of the extension.  The restricted structure is the
    ambient one on the subrng's carrier, validated by this proposition:

    - Each law of a structure is an identity, so it holds on a strict
      subrng S when it holds on U, since S is closed under +, · and #.
    - S ∩ halo holds 1₁ ≠ 0, so the halo part of S is not trivial.
    - A halo element h left-annihilates: h·y = (h·e)·y = 0.  So 1₁·c = 0 ≠
      1₁, and no c in S is a two-sided identity.
    - Each s splits as s·e + (s - s·e) inside S, so S = (S ∩ R0) ⊕ (S ∩ halo).

    Integrality is a theorem here: the powers of a component u repeat,
    u^b = u^a with a < b no larger than the order, and u^b - u^a is monic
    over the unital component subring.  A missing witness raises an alarm.
    """
    bound = structure.order
    for u, w0, w1 in _graded_search(structure, subset, structure.elements(), bound):
        if w0 is None or w1 is None:
            part = 0 if w0 is None else 1
            raise TheoremAlarm(
                "not-graded-integral",
                f"component {part} of element {u} has no monic relation over the "
                f"subrng part (searched degrees up to {bound})",
                dump=f"sub = {format_subset(subset)}\nambient mul = {structure.mul}\n"
                f"ambient local_mul = {structure.local_mul}",
            )
    return SubrngPair(structure, structure.restrict(subset))


def sub_primes(pair: SubrngPair) -> list[Subset]:
    """spec# of the subrng."""
    return pair.sub_spectrum.carriers()


def _require_prime(pair: SubrngPair, p: Subset) -> None:
    if not p <= pair.sub:
        raise InputError("p-not-prime", "p is not contained in the subrng")
    try:
        ideal = as_graded_ideal(pair.restricted, p, kind="ideal")
    except InputError as exc:
        raise InputError("p-not-prime", f"p is not an ideal of the subrng: {exc}") from exc
    bad = prime_violation(pair.restricted, ideal)
    if bad is not None:
        raise InputError("p-not-prime", f"p is not Hu-Liu prime in the subrng: {bad}")


def t_set(pair: SubrngPair, p: Subset) -> list[GradedIdeal]:
    """All ideals J of the ambient structure with J ∩ R ⊆ p, canonically ordered.

    p is looked up in the cached spectrum of the subrng; only a p missing
    from it is diagnosed.
    """
    if p not in sub_primes(pair):
        _require_prime(pair, p)
    return [j for j in pair.ambient_ideals if (j.carrier & pair.sub) <= p]


def maximal_in_t(pair: SubrngPair, p: Subset) -> list[GradedIdeal]:
    """Inclusion-maximal members of the T-set (the finite stand-in for Zorn)."""
    candidates = t_set(pair, p)
    return [j for j in candidates if not any(j.carrier < k.carrier for k in candidates)]


def lying_over(pair: SubrngPair, p: Subset) -> GradedIdeal:
    """Some prime q of the ambient structure with q ∩ R = p (canonically least).

    Witnesses come from intersecting the ambient spectrum; the maximal
    elements of T are cross-checked against both proof targets.  Finding no
    witness on a valid pair contradicts the theorem, so it raises an alarm
    with a diagnostic dump instead of returning an error value.
    """
    maximal = maximal_in_t(pair, p)
    primes = pair.ambient_spectrum.carriers()
    for q in maximal:
        if q.carrier & pair.sub != p or q.carrier not in primes:
            raise TheoremAlarm(
                "maximal-element-failed",
                f"maximal element {{{format_subset(q.carrier)}}} of T violates a proof target",
                dump=_dump(pair, p),
            )
    candidates = [q for q in pair.ambient_spectrum.primes if q.carrier & pair.sub == p]
    if not candidates:
        raise TheoremAlarm(
            "no-witness",
            f"no ambient prime meets the subrng in {{{format_subset(p)}}}",
            dump=_dump(pair, p),
        )
    return candidates[0]


def _dump(pair: SubrngPair, p: Subset) -> str:
    lines = [
        f"sub = {format_subset(pair.sub)}",
        f"p = {format_subset(p)}",
        f"ambient mul = {pair.ambient.mul}",
        f"ambient local_mul = {pair.ambient.local_mul}",
        "ambient spectrum = "
        + "; ".join(format_subset(q) for q in pair.ambient_spectrum.carriers()),
    ]
    return "\n".join(lines)


def verify_lying_over_all(pair: SubrngPair) -> LyingOverReport:
    """One row per prime of the subrng; failures are recorded, never raised."""
    primes = pair.ambient_spectrum.carriers()
    rows = []
    for p in sub_primes(pair):
        maximal = maximal_in_t(pair, p)
        rows.append(
            LyingOverRow(
                p=p,
                witnesses=tuple(q for q in primes if q & pair.sub == p),
                maximal=tuple(q.carrier for q in maximal),
                maximal_meets_p=all(q.carrier & pair.sub == p for q in maximal),
                maximal_all_prime=all(q.carrier in primes for q in maximal),
            )
        )
    return LyingOverReport(rows=tuple(rows), passed=all(row.ok for row in rows))
