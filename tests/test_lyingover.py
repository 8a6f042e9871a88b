import math

import pytest

import huliu.cli
import huliu.ideals
import huliu.integrality
import huliu.lyingover
from huliu import (
    InputError,
    TheoremAlarm,
    LyingOverRow,
    complement_closure_prime,
    as_graded_ideal,
    component_ring,
    decompose,
    embed_check,
    emit_structure,
    enumerate_ideals,
    enumerate_subgroups,
    from_lcrng,
    ideal_violation,
    induced_table,
    is_hl_commutative,
    is_subrng,
    is_huliu_prime,
    lcrng_isomorphic,
    left_identities,
    lying_over,
    maximal_in_t,
    spectrum,
    sub_primes,
    t_set,
    verify_lying_over_all,
)
from huliu.cli import run
from huliu.integrality import _graded_search

from oracles import (
    GROUPS_TO_16,
    brute_ideals,
    brute_spectrum,
    coefficient_subrings,
    lenient_embed,
    outcome,
    per_element_embed,
    reindexed_spectrum,
    span_degree,
)


def _identity_pair(structure):
    return embed_check(structure, frozenset(range(structure.order)))


def test_identity_pairs_embed(cat):
    for name, s in cat.items():
        pair = _identity_pair(s)
        assert pair.restricted.order == s.order, name


def test_diagonal_pair_embeds(u8):
    pair = embed_check(u8, frozenset({0, 3, 4, 7}))
    assert pair.restricted.order == 4
    assert pair.restricted.carrier == (0, 3, 4, 7)
    assert sorted(pair.restricted.halo) == [0, 4]  # ambient indices


def test_a_proper_carrier_is_refused_by_whole_group_functions(u8):
    """The diagonal pair's restricted structure is u8 on {0, 3, 4, 7}: every
    function that reads tables over 0..order-1 refuses it, and the ideal,
    spectrum, pair and component-ring machinery works on it as on any
    structure."""
    diagonal = frozenset({0, 3, 4, 7})
    restricted = embed_check(u8, diagonal).restricted
    calls = [
        lambda: emit_structure(restricted),
        lambda: from_lcrng(restricted),
        lambda: induced_table(restricted),
        lambda: decompose(restricted),
        lambda: lcrng_isomorphic(restricted, u8),
        lambda: lcrng_isomorphic(u8, restricted),
        restricted.raw,
    ]
    for call in calls:
        with pytest.raises(InputError) as err:
            call()
        assert err.value.code == "structure-not-on-whole-group"
        assert "u8 lives on 4 of the 8 elements" in str(err.value)

    assert spectrum(restricted).carriers() == reindexed_spectrum(u8, diagonal)
    for ideal in enumerate_ideals(restricted):
        assert ideal.carrier <= diagonal and ideal_violation(restricted, ideal.carrier) is None
    assert left_identities(restricted) <= diagonal
    for eps, part in ((0, restricted.r0), (1, restricted.r1)):
        assert component_ring(restricted, eps).carrier == tuple(sorted(part))
    pair = embed_check(restricted, diagonal)
    assert pair.restricted is restricted
    assert sub_primes(pair) == sub_primes(embed_check(u8, diagonal))
    assert verify_lying_over_all(pair).passed
    with pytest.raises(InputError) as err:
        embed_check(restricted, frozenset({0, 1}))
    assert err.value.code == "subset-out-of-range"
    assert str(err.value) == "subset-out-of-range: index 1 not in carrier"


def test_embed_check_rejects_non_subrngs(u8):
    with pytest.raises(InputError) as err:
        embed_check(u8, frozenset({0, 1, 2, 3, 4}))
    assert err.value.code == "not-a-subrng"


def test_lenient_only_subrngs_are_never_graded_integral(cat, census_of):
    """A subrng S that misses the local identity 1_1 has S_1·1_1 = S_1, so
    every element of a degree-k span over S_1 lies in S_1 and 1_1 = 1_1^k is
    never in it: 1_1 has no monic relation over S_1, and a lenient reading
    accepts no more pairs than the strict one, which refuses S outright.
    The lenient side is the span search of tests/oracles.py."""
    structures = list(cat.values()) + [s for g in GROUPS_TO_16 for s in census_of(g)]
    assert len(structures) == 4 + 39
    checked = 0
    for s in structures:
        halo_ring = component_ring(s, 1)
        for subset in enumerate_subgroups(s.group):
            if not is_subrng(s, subset, strict=False) or is_subrng(s, subset):
                continue
            assert outcome(lambda: lenient_embed(s, subset))[0] == "not-graded-integral"
            s1 = subset & s.halo
            assert span_degree(halo_ring, s1, s.local_identity, s.order) is None
            assert outcome(lambda: embed_check(s, subset))[0] == "not-a-subrng"
            checked += 1
    assert checked == 125  # 5 in the catalog, 120 in the census


# The non-cyclic groups of order <= 16 but Z2^4, Z2xZ6 under two presentations.
UNITAL_GROUPS = [(2, 2), (2, 4), (3, 3), (2, 6), (2, 8), (4, 4), (2, 2, 2), (2, 2, 3), (2, 2, 4)]


def test_strict_subrngs_have_unital_component_subrings(cat, census_of):
    """A strict subrng S holds e and 1_1, so S·e holds e·e = e and S ∩ halo
    holds 1_1: the coefficient subrings of every strict pair are unital, and
    the integrality check needs no lenient reading of them.  They are the
    parts of the structure restricted to S: S ∩ R0 = S·e."""
    structures = list(cat.values()) + [s for g in UNITAL_GROUPS for s in census_of(g)]
    checked = 0
    for s in structures:
        for subset in enumerate_subgroups(s.group):
            if is_subrng(s, subset):
                sub = s.restrict(subset)
                s0, s1 = coefficient_subrings(s, subset)
                assert (sub.r0, sub.r1) == (s0, s1), (s.name, sorted(subset))
                assert s.left_identity in s0 and s.local_identity in s1, (s.name, sorted(subset))
                checked += 1
    assert checked == 36


def test_strict_pair_without_a_witness_raises_an_alarm(u8, monkeypatch, tmp_path, capsys):
    """A strict pair is graded integral by a theorem, so a missing witness
    is an alarm with a dump, not an input error; here the search is made to
    find none."""
    monkeypatch.setattr(huliu.integrality, "_witness_search", lambda *args: None)
    with pytest.raises(TheoremAlarm) as err:
        embed_check(u8, frozenset({0, 3, 4, 7}))
    assert err.value.code == "not-graded-integral"
    assert err.value.dump.startswith("sub = 0,3,4,7\nambient mul = ")
    path = tmp_path / "u8.json"
    path.write_text(emit_structure(u8), encoding="utf-8")
    assert run(["lying-over", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "alarm: not-graded-integral: component 0 of element 0 has no monic relation"
    )


def test_shared_lattices_match_the_brute_oracles(cat, census_of):
    """enumerate_ideals, spectrum, and the lattices a pair shares (the
    ambient ideals and spectrum, and sub_primes) agree with the subset scans
    of tests/oracles.py on the catalog and on every census class of order
    <= 8, for every strict subrng; the subrng's primes are checked against
    the brute spectrum of its re-indexed copy."""
    small = [g for g in GROUPS_TO_16 if math.prod(g) <= 8]
    structures = list(cat.values()) + [s for g in small for s in census_of(g)]
    assert len(structures) == 4 + 7
    pairs = 0
    for s in structures:
        ideals, primes = brute_ideals(s), brute_spectrum(s)
        assert [i.carrier for i in enumerate_ideals(s)] == ideals, s.name
        assert spectrum(s).carriers() == primes, s.name
        for subset in enumerate_subgroups(s.group):
            if not is_subrng(s, subset):
                continue
            pair = embed_check(s, subset)
            assert [i.carrier for i in pair.ambient_ideals] == ideals
            assert pair.ambient_spectrum.carriers() == primes
            assert sub_primes(pair) == reindexed_spectrum(s, subset), (s.name, sorted(subset))
            pairs += 1
    assert pairs == 17


def test_lying_over_sweeps_the_census(census_of):
    """Every strict pair of every census class of order <= 16: the subrng's
    primes are the brute spectrum of its re-indexed copy, and every row of
    the lying-over report is ok.  Each class's bridge is a Hu-Liu
    commutative ring."""
    structures = [s for g in GROUPS_TO_16 for s in census_of(g)]
    assert len(structures) == 39
    pairs = rows = 0
    for s in structures:
        assert is_hl_commutative(from_lcrng(s))
        for subset in enumerate_subgroups(s.group):
            if not is_subrng(s, subset):
                continue
            pair = embed_check(s, subset)
            assert sub_primes(pair) == reindexed_spectrum(s, subset), (s.name, sorted(subset))
            report = verify_lying_over_all(pair)
            assert report.passed and all(row.ok for row in report.rows)
            pairs += 1
            rows += len(report.rows)
    assert (pairs, rows) == (109, 257)


def test_embed_check_matches_the_per_element_loop(cat, census_of):
    """embed_check checks each coefficient subring once, then searches every
    element; it accepts the pairs, finds the witnesses and raises the first
    error of the loop that re-checked both subrings for every element."""
    small = [g for g in GROUPS_TO_16 if math.prod(g) <= 8]
    structures = list(cat.values()) + [s for g in small for s in census_of(g)]

    def new(s, subset):
        embed_check(s, subset)
        return list(_graded_search(s, subset, s.elements(), s.order))

    accepted = 0
    for s in structures:
        for subset in enumerate_subgroups(s.group):
            got = outcome(lambda: new(s, subset))
            want = outcome(lambda: per_element_embed(s, subset))
            assert got == want, (s.name, sorted(subset))
            accepted += isinstance(got, list)
            assert isinstance(got, list) == is_subrng(s, subset), (s.name, sorted(subset))
    assert accepted


def test_whole_carrier_reuses_the_validated_ambient(cat, u8, tmp_path, monkeypatch, capsys):
    """`lying-over` without --subset validates the document once, and
    embed_check validates nothing: on the whole carrier the pair's restricted
    structure is the ambient one, and on a strict subrng it is the ambient
    one on the subrng's carrier."""
    validated = []
    checked = huliu.lcrng._checked

    def counted(raw):
        validated.append(raw)
        return checked(raw)

    monkeypatch.setattr(huliu.lcrng, "_checked", counted)
    for name, s in cat.items():
        path = tmp_path / f"{name}.json"
        path.write_text(emit_structure(s), encoding="utf-8")
        validated.clear()
        assert run(["lying-over", str(path), "--format", "csv"]) == 0, name
        capsys.readouterr()
        assert len(validated) == 1, name
        pair = _identity_pair(s)
        assert pair.restricted is s
        assert pair.sub_spectrum is pair.ambient_spectrum
    validated.clear()
    pair = embed_check(u8, frozenset({0, 3, 4, 7}))
    assert validated == []
    assert (pair.restricted.mul, pair.restricted.group) == (u8.mul, u8.group)


def test_t_set_examples(r4):
    pair = _identity_pair(r4)
    assert [sorted(j.carrier) for j in t_set(pair, frozenset({0}))] == [[0]]
    assert [sorted(j.carrier) for j in t_set(pair, frozenset({0, 2}))] == [[0], [0, 2]]
    for p in sub_primes(pair):
        assert frozenset({0}) in {j.carrier for j in t_set(pair, p)}


def test_maximal_in_t_examples(r4, u8):
    pair = _identity_pair(r4)
    assert [sorted(j.carrier) for j in maximal_in_t(pair, frozenset({0}))] == [[0]]
    assert [sorted(j.carrier) for j in maximal_in_t(pair, frozenset({0, 2}))] == [[0, 2]]
    diag = embed_check(u8, frozenset({0, 3, 4, 7}))
    for q in maximal_in_t(diag, frozenset({0})):
        assert q.carrier & diag.sub == frozenset({0})


def test_t_set_rejects_non_primes(r4, u8):
    identity = _identity_pair(r4)
    diag = embed_check(u8, frozenset({0, 3, 4, 7}))
    for pair, p, message in (
        (identity, frozenset({0, 1}), "p is not an ideal of the subrng"),
        (identity, frozenset(range(r4.order)), "p is not Hu-Liu prime in the subrng"),
        (diag, frozenset({0, 1}), "p is not contained in the subrng"),
    ):
        with pytest.raises(InputError) as err:
            t_set(pair, p)
        assert err.value.code == "p-not-prime"
        assert message in str(err.value)


def test_p_not_prime_witnesses_are_in_ambient_indices(u8):
    """p is given in ambient indices, and so is the witness that refutes it."""
    diag = embed_check(u8, frozenset({0, 3, 4, 7}))
    for p, witness in (
        ({0, 3}, "ideal-right-absorb at (3, 4)"),
        ({0, 7}, "ideal-right-absorb at (7, 3)"),
        ({0, 3, 4}, "not-a-subgroup at (3, 4)"),
        ({0, 3, 7}, "not-a-subgroup at (3, 7)"),
        ({0, 4, 7}, "not-a-subgroup at (4, 7)"),
    ):
        with pytest.raises(InputError) as err:
            t_set(diag, frozenset(p))
        assert err.value.code == "p-not-prime"
        assert f"p is not an ideal of the subrng: not-an-ideal: {witness}:" in str(err.value)


def test_primes_of_the_subrng_are_not_proved_again(pairs, monkeypatch):
    calls = []
    as_graded_ideal = huliu.lyingover.as_graded_ideal

    def counted(*args, **kwargs):
        calls.append(args)
        return as_graded_ideal(*args, **kwargs)

    monkeypatch.setattr(huliu.lyingover, "as_graded_ideal", counted)
    for name, structure, sub in pairs:
        pair = embed_check(structure, sub)
        verify_lying_over_all(pair)
        for p in sub_primes(pair):
            lying_over(pair, p)
        assert calls == [], name


def test_lying_over_identity_pairs(r4, r8):
    for s in (r4, r8):
        pair = _identity_pair(s)
        for p in sub_primes(pair):
            q = lying_over(pair, p)
            assert q.carrier == p


def test_lying_over_diagonal_pair(u8):
    pair = embed_check(u8, frozenset({0, 3, 4, 7}))
    q = lying_over(pair, frozenset({0}))
    assert sorted(q.carrier) == [0, 2]
    q2 = lying_over(pair, frozenset({0, 4}))
    assert q2.carrier & pair.sub == frozenset({0, 4})


def test_lying_over_witnesses_are_spectrum_members_with_exact_trace(cat, u8):
    pairs = [_identity_pair(s) for s in cat.values()]
    pairs.append(embed_check(u8, frozenset({0, 3, 4, 7})))
    for pair in pairs:
        carriers = {q.carrier for q in spectrum(pair.ambient).primes}
        for p in sub_primes(pair):
            q = lying_over(pair, p)
            assert q.carrier in carriers
            assert q.carrier & pair.sub == p


def test_report_rows_for_identity_pairs(r4, r8):
    rep4 = verify_lying_over_all(_identity_pair(r4))
    assert rep4.passed
    assert [(sorted(row.p), [sorted(w) for w in row.witnesses]) for row in rep4.rows] == [
        ([0], [[0]]),
        ([0, 2], [[0, 2]]),
    ]
    rep8 = verify_lying_over_all(_identity_pair(r8))
    assert rep8.passed and len(rep8.rows) == 2


def test_row_verdict_needs_a_witness_and_both_proof_targets():
    p = frozenset({0})
    assert LyingOverRow(p, (p,), (p,), True, True).ok
    assert not LyingOverRow(p, (), (p,), True, True).ok
    assert not LyingOverRow(p, (p,), (p,), False, True).ok
    assert not LyingOverRow(p, (p,), (p,), True, False).ok


def test_report_fails_when_a_maximal_element_misses_a_proof_target(r4, monkeypatch):
    pair = _identity_pair(r4)
    whole = pair.ambient_ideals[-1]
    monkeypatch.setattr(huliu.lyingover, "maximal_in_t", lambda pair, p: [whole])
    report = verify_lying_over_all(pair)
    assert all(row.witnesses for row in report.rows)
    assert not any(row.ok for row in report.rows)
    assert not report.passed


def test_report_rows_for_diagonal_pair(u8):
    pair = embed_check(u8, frozenset({0, 3, 4, 7}))
    report = verify_lying_over_all(pair)
    assert report.passed
    rows = {frozenset(row.p): row for row in report.rows}
    assert set(rows) == {frozenset({0}), frozenset({0, 4})}
    zero_row = rows[frozenset({0})]
    assert [sorted(w) for w in zero_row.witnesses] == [[0, 2]]
    assert [sorted(m) for m in zero_row.maximal] == [[0, 2]]
    halo_row = rows[frozenset({0, 4})]
    assert [sorted(w) for w in halo_row.witnesses] == [[0, 1, 4, 5], [0, 2, 4, 6]]
    assert [sorted(m) for m in halo_row.maximal] == [[0, 1, 4, 5], [0, 2, 4, 6]]
    for row in report.rows:
        assert row.maximal_meets_p and row.maximal_all_prime


def test_maximal_elements_satisfy_both_proof_targets(cat, u8):
    pairs = [_identity_pair(s) for s in cat.values()]
    pairs.append(embed_check(u8, frozenset({0, 3, 4, 7})))
    for pair in pairs:
        for p in sub_primes(pair):
            for q in maximal_in_t(pair, p):
                assert q.carrier & pair.sub == p
                assert is_huliu_prime(pair.ambient, q)
                assert complement_closure_prime(
                    pair.ambient, as_graded_ideal(pair.ambient, q.carrier)
                )


def test_each_pair_builds_one_ambient_and_one_restricted_lattice(pairs, monkeypatch):
    """The identity pair's restricted structure is the ambient one, so its
    subrng primes are the ambient ones: one lattice instead of two.  Both
    structures of a pair share one group, so each lattice is told apart by
    the carrier it spans, its largest member."""
    built = []
    lattice = huliu.ideals._lattice

    def counted(group, atoms):
        found = lattice(group, atoms)
        built.append(found[-1])
        return found

    def assert_built(*structures):
        assert built == [s.members for s in structures], name

    monkeypatch.setattr(huliu.ideals, "_lattice", counted)
    for name, structure, sub in pairs:
        identity = name.endswith("-identity")
        pair = embed_check(structure, sub)
        built.clear()
        verify_lying_over_all(pair)
        if identity:
            assert_built(pair.ambient)
        else:
            assert_built(pair.ambient, pair.restricted)

        pair = embed_check(structure, sub)
        built.clear()
        for p in sub_primes(pair):
            lying_over(pair, p)
        if identity:
            assert_built(pair.ambient)
        else:
            assert_built(pair.restricted, pair.ambient)
