import pytest

from huliu import (
    GradedIdeal,
    InputError,
    as_graded_ideal,
    complement_closure_prime,
    enumerate_ideals,
    identity_hom,
    ideal_components,
    ideal_violation,
    is_huliu_prime,
    is_ideal,
    is_subrng,
    projection_hom,
    ring_product,
    semidirect_null,
    spectrum,
    subrng_violation,
    validate_lcrng,
    zmod,
)
from huliu.ideals import _principal_ideals, prime_violation
from huliu.kernel import subset_key

from oracles import (
    GROUPS_TO_16,
    brute_ideals,
    brute_is_prime,
    brute_spectrum,
    filtered_ideals,
)


def test_r4_ideal_examples(r4):
    assert is_ideal(r4, frozenset({0, 2}))
    bad = ideal_violation(r4, frozenset({0, 1}))
    assert bad is not None
    assert bad.code == "ideal-right-absorb" and bad.witness == (1, 2)
    for s in (frozenset({0}), frozenset(range(4))):
        assert is_ideal(r4, s)


def test_trivial_ideals_everywhere(cat):
    for s in cat.values():
        assert is_ideal(s, frozenset({0}))
        assert is_ideal(s, frozenset(range(s.order)))


def test_subrng_examples(r4, u8, cat):
    assert is_subrng(u8, frozenset({0, 3, 4, 7}))
    bad = subrng_violation(r4, frozenset({0, 1}))
    assert bad is not None and bad.code == "missing-local-identity"
    assert is_subrng(r4, frozenset({0, 1}), strict=False)
    for s in cat.values():
        assert is_subrng(s, frozenset(range(s.order)))


def test_ideal_components_examples(r4, r8, cat):
    assert ideal_components(r4, frozenset({0, 2})) == (frozenset({0}), frozenset({0, 2}))
    assert ideal_components(r8, frozenset({0, 2, 4, 6})) == (
        frozenset({0, 2}),
        frozenset({0, 4}),
    )
    for s in cat.values():
        assert ideal_components(s, frozenset({0})) == (frozenset({0}), frozenset({0}))


def test_ideal_components_rejects_ungraded_subsets(r4):
    with pytest.raises(InputError) as err:
        ideal_components(r4, frozenset({0, 3}))
    assert err.value.code == "grading-violation"


def test_prime_examples(r4, r8):
    assert is_huliu_prime(r4, frozenset({0}))
    assert is_huliu_prime(r4, frozenset({0, 2}))
    bad = prime_violation(r8, as_graded_ideal(r8, frozenset({0})))
    assert bad is not None
    assert bad.code == "prime-product-condition" and bad.witness == (0, 2, 2)


def test_spectra(r4, r8, u8, r18):
    assert [sorted(p.carrier) for p in spectrum(r4).primes] == [[0], [0, 2]]
    assert [sorted(p.carrier) for p in spectrum(r8).primes] == [[0, 2], [0, 2, 4, 6]]
    assert [sorted(p.carrier) for p in spectrum(u8).primes] == [
        [0, 2],
        [0, 1, 4, 5],
        [0, 2, 4, 6],
    ]
    assert [sorted(p.carrier) for p in spectrum(r18).primes] == [
        [0, 3],
        [0, 3, 6, 9, 12, 15],
        [0, 2, 4, 6, 8, 10, 12, 14, 16],
    ]


def test_zero_ideal_is_prime_when_both_parts_are_fields(r4):
    # halo ring and 0-part of r4 are both two-element fields
    assert frozenset({0}) in {p.carrier for p in spectrum(r4).primes}


def test_spectrum_against_brute_force_oracle(cat):
    for name, s in cat.items():
        assert [sorted(p.carrier) for p in spectrum(s).primes] == [
            sorted(x) for x in brute_spectrum(s)
        ], name


def test_enumerated_ideals_match_oracle_and_respect_grading(cat):
    for s in cat.values():
        ideals = enumerate_ideals(s)
        assert [i.carrier for i in ideals] == brute_ideals(s)
        assert [i.carrier for i in ideals] == sorted(
            [i.carrier for i in ideals], key=subset_key
        )
        for ideal in ideals:
            assert ideal.i0 == ideal.carrier & s.r0
            assert ideal.i1 == ideal.carrier & s.halo
            rebuilt = {s.plus(a, b) for a in ideal.i0 for b in ideal.i1}
            assert rebuilt == set(ideal.carrier)
            assert len(ideal.i0) * len(ideal.i1) == len(ideal.carrier)


def test_ideal_lattice_matches_the_subgroup_filter(cat, census_of):
    """The lattice grown from principal ideals is the subgroup lattice
    filtered by the brute-force ideal test, components included, on the
    catalog, every census class of order <= 16, null(Z8,Z8,id) and
    null(Z2^3,Z2^2) (374 subgroups, 18 ideals)."""
    z2, z8 = zmod(2), zmod(8)
    z2x2 = ring_product(z2, z2)
    z2x3 = ring_product(z2x2, z2)
    nulls = [
        semidirect_null(z8, z8, identity_hom(z8), name="null(Z8,Z8,id)"),
        semidirect_null(z2x3, z2x2, projection_hom(z2x3, z2x2, z2, 0), name="null(Z2^3,Z2^2)"),
    ]
    structures = [
        *cat.values(),
        *(s for g in GROUPS_TO_16 for s in census_of(g)),
        *map(validate_lcrng, nulls),
    ]
    assert len(structures) == 4 + 39 + 2
    for s in structures:
        assert enumerate_ideals(s) == filtered_ideals(s), s.name
    assert len(enumerate_ideals(structures[-1])) == 18


def test_principal_ideals_are_the_least_ideals_containing_each_element(cat, census_of):
    structures = [*cat.values(), *(s for g in GROUPS_TO_16 for s in census_of(g))]
    for s in structures:
        ideals = brute_ideals(s)
        for x, principal in enumerate(_principal_ideals(s)):
            holding = [i for i in ideals if x in i]
            assert principal in holding, (s.name, x)
            assert principal == frozenset.intersection(*holding), (s.name, x)


def test_prime_predicate_equals_complement_closure_everywhere(cat):
    for s in cat.values():
        for ideal in enumerate_ideals(s):
            assert is_huliu_prime(s, ideal) == complement_closure_prime(s, ideal)
            assert is_huliu_prime(s, ideal) == brute_is_prime(s, ideal.carrier)


def test_prime_zero_parts_are_prime_or_full_in_the_zero_ring(cat):
    for s in cat.values():
        r0 = sorted(s.r0)
        for p in spectrum(s).primes:
            if p.i0 == s.r0:
                continue
            for x in r0:
                for y in r0:
                    if s.times(x, y) in p.i0:
                        assert x in p.i0 or y in p.i0


def test_r8_ideals_follow_the_null_construction_shape(r8):
    # every ideal is the internal sum of its parts, and the hom image of the
    # 0-part must act into the halo part
    for ideal in enumerate_ideals(r8):
        for a in ideal.i0:
            for beta in r8.halo:
                assert r8.times(a, beta) in ideal.i1


def test_is_huliu_prime_rejects_non_ideals(r4):
    with pytest.raises(InputError) as err:
        is_huliu_prime(r4, frozenset({0, 1}))
    assert err.value.code == "not-an-ideal"


def test_spectrum_members_are_marked_prime(cat):
    for s in cat.values():
        for p in spectrum(s).primes:
            assert isinstance(p, GradedIdeal) and p.is_prime is True
