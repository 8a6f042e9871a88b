import itertools
from collections import Counter

import pytest

import huliu.integrality
from huliu import (
    InputError,
    IntegralWitness,
    component_ring,
    emit_structure,
    enumerate_subgroups,
    graded_witnesses,
    identity_hom,
    integral_witness,
    is_graded_integral,
    is_subrng,
    local_power,
    mul_power,
    push_down_check,
    ring_product,
    semidirect_null,
    validate_lcrng,
    witness_holds,
    zmod,
)
from huliu.cli import run
from huliu.integrality import _graded_search

from oracles import brute_min_monic_degree, outcome, per_element_witnesses

# Every abelian group of order <= 8, one presentation each (the cyclic ones
# carry none), and Z2^2 x Z4, whose classes have witnesses with more than one
# choice of coefficients, so the search order shows.
ORACLE_GROUPS = [(n,) for n in range(1, 9)] + [(2, 2), (2, 4), (2, 2, 2), (2, 2, 4)]


@pytest.fixture(scope="module")
def u16():
    b = ring_product(zmod(2), zmod(2))
    return validate_lcrng(semidirect_null(b, b, identity_hom(b), name="u16"))


def _tables_isomorphic_to_zmod(ring, n):
    model = zmod(n)
    carrier = list(ring.carrier)
    if len(carrier) != n:
        return False
    for images in itertools.permutations(range(n)):
        sigma = dict(zip(carrier, images))
        if sigma[ring.one] != model.one:
            continue
        if all(
            sigma[ring.plus(a, b)] == model.plus(sigma[a], sigma[b])
            and sigma[ring.times(a, b)] == model.times(sigma[a], sigma[b])
            for a in carrier
            for b in carrier
        ):
            return True
    return False


def test_component_rings_of_catalog(r4, r8):
    assert _tables_isomorphic_to_zmod(component_ring(r4, 0), 2)
    assert _tables_isomorphic_to_zmod(component_ring(r4, 1), 2)
    assert _tables_isomorphic_to_zmod(component_ring(r8, 0), 4)


def test_degree_one_witness_for_local_identity(r4):
    ring1 = component_ring(r4, 1)
    w = integral_witness(ring1, frozenset({0, 2}), 2)
    assert w == IntegralWitness(degree=1, coefficients=(2,))
    assert witness_holds(ring1, 2, w)


def test_degree_one_witness_inside_whole_zero_part(r8):
    ring0 = component_ring(r8, 0)
    w = integral_witness(ring0, frozenset({0, 1, 2, 3}), 2)
    assert w is not None and w.degree == 1


def test_u16_halo_elements_have_degree_at_most_two(u16):
    ring1 = component_ring(u16, 1)
    small = frozenset({0, u16.local_identity})
    for u in sorted(u16.halo):
        w = integral_witness(ring1, small, u)
        assert w is not None and w.degree <= 2
        assert witness_holds(ring1, u, w)
        oracle = brute_min_monic_degree(ring1, small, u, 4)
        assert oracle is not None and oracle[0] == w.degree


def test_minimal_degree_matches_oracle_on_catalog_pairs(pairs):
    for name, structure, subset in pairs:
        sub = structure.restrict(subset)
        s0, s1 = sub.r0, sub.r1
        ring0 = component_ring(structure, 0)
        ring1 = component_ring(structure, 1)
        for u in structure.elements():
            w0 = integral_witness(ring0, s0, structure.comp0(u))
            w1 = integral_witness(ring1, s1, structure.comp1(u))
            assert w0 is not None and w1 is not None, name
            assert brute_min_monic_degree(ring0, s0, structure.comp0(u), w0.degree)[0] == w0.degree
            assert brute_min_monic_degree(ring1, s1, structure.comp1(u), w1.degree)[0] == w1.degree


def test_elements_of_the_subrng_are_integral_of_degree_one(pairs):
    for name, structure, subset in pairs:
        for u in sorted(subset):
            w0, w1 = graded_witnesses(structure, subset, u)
            assert w0.degree == 1 and w1.degree == 1, name


def test_finite_pairs_are_automatically_integral(pairs):
    for name, structure, subset in pairs:
        for u in structure.elements():
            assert is_graded_integral(structure, subset, u, max_degree=structure.order), name


def test_witness_degree_can_only_drop_for_larger_subrings(u16):
    ring1 = component_ring(u16, 1)
    small = frozenset({0, u16.local_identity})
    whole = frozenset(ring1.carrier)
    for u in sorted(u16.halo):
        w_small = integral_witness(ring1, small, u)
        w_whole = integral_witness(ring1, whole, u)
        assert w_whole.degree <= w_small.degree


def test_power_transport_identity(cat):
    for s in cat.values():
        for x0 in sorted(s.r0):
            for u1 in sorted(s.halo):
                xu = s.times(x0, u1)
                for k in range(1, 5):
                    assert local_power(s, xu, k) == s.times(
                        mul_power(s, x0, k), local_power(s, u1, k)
                    )


def test_push_down_trivial_cases(r8):
    ring1 = component_ring(r8, 1)
    w = integral_witness(ring1, frozenset({0, 4}), 4)
    assert push_down_check(r8, r8.left_identity, 4, w)
    assert push_down_check(r8, 0, 4, w)


def test_push_down_for_every_witness_and_scalar(pairs):
    for name, structure, subset in pairs:
        s1 = structure.restrict(subset).r1
        ring1 = component_ring(structure, 1)
        for u1 in sorted(structure.halo):
            w = integral_witness(ring1, s1, u1)
            for x0 in sorted(structure.r0):
                assert push_down_check(structure, x0, u1, w), (name, x0, u1)


def test_push_down_rejects_bogus_witnesses(r8):
    fake = IntegralWitness(degree=1, coefficients=(0,))
    with pytest.raises(InputError) as err:
        push_down_check(r8, 2, 4, fake)
    assert err.value.code == "witness-does-not-hold"


def test_max_degree_below_one_finds_nothing(r8):
    ring0 = component_ring(r8, 0)
    assert integral_witness(ring0, frozenset({0, 1, 2, 3}), 2, max_degree=0) is None
    assert integral_witness(ring0, frozenset({0, 1, 2, 3}), 2, max_degree=-3) is None
    assert graded_witnesses(r8, frozenset(range(8)), 5, max_degree=0) == (None, None)


def test_pair_search_matches_the_per_element_loop(cat, census_of):
    """The search that checks the pair once gives the witnesses, or the first
    error, of the loop that re-checked the pair for every element."""
    structures = list(cat.values()) + [s for g in ORACLE_GROUPS for s in census_of(g)]
    assert len(structures) == 4 + 7 + 7
    kinds = Counter()
    for s in structures:
        for subset in enumerate_subgroups(s.group):
            if is_subrng(s, subset):
                kind = "strict"
            elif is_subrng(s, subset, strict=False):
                kind = "lenient-only"
            else:
                kind = "non-subrng"
            kinds[kind] += 1
            new = outcome(lambda: list(_graded_search(s, subset, s.elements())))
            old = outcome(lambda: per_element_witnesses(s, subset))
            assert new == old, (s.name, sorted(subset))
            if kind == "strict":
                assert all(w0 and w1 for _, w0, w1 in new)
                assert [(u, *graded_witnesses(s, subset, u)) for u in s.elements()] == old
            else:
                assert isinstance(new, tuple), (s.name, sorted(subset))
    assert all(kinds[k] for k in ("strict", "lenient-only", "non-subrng")), kinds


def test_integral_checks_each_component_ring_and_subring_once(tmp_path, monkeypatch, capsys):
    b = zmod(8)
    path = tmp_path / "null8x8.json"
    path.write_text(emit_structure(semidirect_null(b, b, identity_hom(b))), encoding="utf-8")
    calls = Counter()
    for name in ("_verify_component_ring", "_check_subring"):

        def counted(*args, name=name, real=getattr(huliu.integrality, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(huliu.integrality, name, counted)
    assert run(["integral", str(path), "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 64
    # The coefficient subrings are the subrng's parts, proved by
    # subrng_violation, so no subring check runs.
    assert calls == {"_verify_component_ring": 2}


def test_each_component_value_is_searched_once(monkeypatch):
    """w0 depends only on u·e and w1 only on u - u·e: on the whole carrier of
    null(Z8,Z8) that is |R0| + |R1| = 16 searches, not 2·64, with the
    witnesses of the per-element loop."""
    b = zmod(8)
    s = validate_lcrng(semidirect_null(b, b, identity_hom(b)))
    whole = frozenset(s.elements())
    old = per_element_witnesses(s, whole)
    searched = []
    real = huliu.integrality._witness_search

    def counted(ring, subset, members, u, max_degree):
        searched.append((ring.name, u))
        return real(ring, subset, members, u, max_degree)

    monkeypatch.setattr(huliu.integrality, "_witness_search", counted)
    assert list(_graded_search(s, whole, s.elements())) == old
    assert len(s.r0) + len(s.r1) == len(searched) == len(set(searched)) == 16
    # The first search for each value runs at the first element that has it.
    firsts = {}
    for u in s.elements():
        firsts.setdefault(("component-0", s.comp0(u)), None)
        firsts.setdefault(("component-1", s.comp1(u)), None)
    assert searched == list(firsts)
