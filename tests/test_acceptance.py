"""Acceptance suite: one test per criterion, exact integer arithmetic
throughout (tolerance: exact equality), one PASS/FAIL line printed each."""

import time
from contextlib import contextmanager

from huliu import (
    SENTINEL,
    complement_closure_prime,
    component_ring,
    emit_structure,
    enumerate_ideals,
    from_lcrng,
    hl_halo,
    hlring_violations,
    induced_product,
    induced_table,
    integral_witness,
    is_graded_integral,
    is_hl_commutative,
    is_huliu_prime,
    lcrng_violations,
    local_power,
    lying_over,
    maximal_in_t,
    mul_power,
    parse_structure,
    push_down_check,
    spectrum,
    sub_primes,
    embed_check,
    verify_lying_over_all,
)
from huliu.cli import run
from huliu.lcrng import decompose

from oracles import brute_spectrum, mutate, violation_is_genuine


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def _rejected_mutations(raw, want=20):
    n = raw.group.order
    candidates = []
    for i in range(n):
        for j in range(n):
            candidates.append(("mul", i, j, (raw.mul[i][j] + 1) % n))
            if raw.local_mul[i][j] != SENTINEL:
                candidates.append(("local_mul", i, j, (raw.local_mul[i][j] + 1) % n))
            else:
                candidates.append(("local_mul", i, j, 0))
    rejected = []
    for table, i, j, v in candidates:
        bad = mutate(raw, table, i, j, v)
        violations = lcrng_violations(bad)
        if violations:
            rejected.append((bad, violations))
        if len(rejected) >= want + 4:
            break
    return rejected


def test_criterion_1_axiom_suite(cat):
    with criterion(1, "axiom suite with mutation rejection"):
        start = time.perf_counter()
        for name, s in cat.items():
            assert lcrng_violations(s.raw()) == [], name
            rejected = _rejected_mutations(s.raw())
            assert len(rejected) >= 20, name
            for bad, violations in rejected:
                for violation in violations:
                    assert violation_is_genuine(bad, violation), (name, violation)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"axiom suite took {elapsed:.2f}s"


def test_criterion_2_induced_product_laws(cat):
    with criterion(2, "induced commutative product laws"):
        for s in cat.values():
            e = s.left_identity
            table = induced_table(s)
            rng = range(s.order)
            for x in rng:
                assert table[e][x] == x and table[x][e] == x
                for y in rng:
                    assert table[x][y] == table[y][x]
                    for z in rng:
                        assert table[table[x][y]][z] == table[x][table[y][z]]
                        assert table[x][s.plus(y, z)] == s.plus(table[x][y], table[x][z])
            for a in s.halo:
                for b in s.halo:
                    assert induced_product(s, a, b) == 0


def test_criterion_3_grading_laws(cat):
    with criterion(3, "grading laws on structures and ideals"):
        for s in cat.values():
            split = decompose(s)
            for a in s.elements():
                assert s.plus(split.comp0[a], split.comp1[a]) == a
                assert split.comp0[a] in s.r0 and split.comp1[a] in s.r1
            assert s.r0 & s.r1 == {0}
            assert len(s.r0) * len(s.r1) == s.order
            for x in s.elements():
                for y in s.r0:
                    assert s.times(x, y) in s.r0
                for y in s.r1:
                    assert s.times(x, y) in s.r1
            for ideal in enumerate_ideals(s):
                assert ideal.i0 == ideal.carrier & s.r0
                assert ideal.i1 == ideal.carrier & s.r1
                assert len(ideal.i0) * len(ideal.i1) == len(ideal.carrier)
                assert {
                    s.plus(a, b) for a in ideal.i0 for b in ideal.i1
                } == set(ideal.carrier)
                for a in ideal.carrier:
                    assert split.comp0[a] in ideal.i0 and split.comp1[a] in ideal.i1


def test_criterion_4_prime_equivalence_and_spectra(cat):
    with criterion(4, "Hu-Liu prime equivalence and spectra"):
        for s in cat.values():
            for ideal in enumerate_ideals(s):
                assert is_huliu_prime(s, ideal) == complement_closure_prime(s, ideal)
        assert [sorted(p.carrier) for p in spectrum(cat["r4"]).primes] == [[0], [0, 2]]
        assert [sorted(p.carrier) for p in spectrum(cat["r8"]).primes] == [
            [0, 2],
            [0, 2, 4, 6],
        ]
        for name in ("r4", "r8"):
            s = cat[name]
            assert [sorted(p.carrier) for p in spectrum(s).primes] == [
                sorted(x) for x in brute_spectrum(s)
            ]


def test_criterion_5_integrality(pairs):
    with criterion(5, "graded integrality and push-down"):
        for name, s, subset in pairs:
            for u in s.elements():
                assert is_graded_integral(s, subset, u, max_degree=s.order), (name, u)
            s1 = s.restrict(subset).r1
            ring1 = component_ring(s, 1)
            for u1 in sorted(s.halo):
                witness = integral_witness(ring1, s1, u1)
                assert witness is not None
                for x0 in sorted(s.r0):
                    assert push_down_check(s, x0, u1, witness), (name, x0, u1)
            for x0 in sorted(s.r0):
                for u1 in sorted(s.halo):
                    xu = s.times(x0, u1)
                    for k in range(1, 5):
                        assert local_power(s, xu, k) == s.times(
                            mul_power(s, x0, k), local_power(s, u1, k)
                        )


def test_criterion_6_lying_over_replay(cat):
    with criterion(6, "lying-over theorem replay"):
        targets = [
            (cat["r4"], frozenset(range(4))),
            (cat["r8"], frozenset(range(8))),
            (cat["u8"], frozenset({0, 3, 4, 7})),
        ]
        for s, subset in targets:
            start = time.perf_counter()
            pair = embed_check(s, subset)
            report = verify_lying_over_all(pair)
            assert report.passed
            for p in sub_primes(pair):
                q = lying_over(pair, p)
                assert q.carrier & subset == p
                for m in maximal_in_t(pair, p):
                    assert m.carrier & subset == p
                    assert is_huliu_prime(s, m)
            elapsed = time.perf_counter() - start
            assert elapsed < 5.0, f"pair took {elapsed:.2f}s"


def test_criterion_7_bridge(cat):
    with criterion(7, "Hu-Liu ring bridge"):
        for s in cat.values():
            ring = from_lcrng(s)
            assert hlring_violations(ring.raw()) == []
            assert hl_halo(ring) == s.halo
            assert is_hl_commutative(ring)
            for x in ring.elements():
                for y in ring.elements():
                    assert ring.minus(ring.rarrow[x][y], ring.larrow[y][x]) == 0
            assert ring.bullet == induced_table(s)


def test_criterion_8_round_trip_and_cli(cat, tmp_path, capsys):
    with criterion(8, "round-trip and CLI exit codes"):
        for name, s in cat.items():
            text = emit_structure(s)
            assert parse_structure(text) == s.raw()
            assert emit_structure(parse_structure(text)) == text
        good = tmp_path / "r4.json"
        good.write_text(emit_structure(cat["r4"]), encoding="utf-8")
        broken = tmp_path / "broken.json"
        broken.write_text(
            emit_structure(mutate(cat["r4"].raw(), "mul", 1, 2, 0)), encoding="utf-8"
        )
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{ nope", encoding="utf-8")
        matrix = [
            (["verify", str(good)], 0),
            (["spectrum", str(good)], 0),
            (["lying-over", str(good)], 0),
            (["verify", str(broken)], 1),
            (["verify", str(garbage)], 2),
            (["verify", str(tmp_path / "missing.json")], 2),
            (["lying-over", str(good), "--subset", "0,1,2"], 2),
            (["bogus"], 2),
            ([], 2),
        ]
        for argv, expected in matrix:
            assert run(argv) == expected, argv
            capsys.readouterr()
