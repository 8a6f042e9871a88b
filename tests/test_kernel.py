from collections import Counter
from dataclasses import replace
from functools import cache, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from huliu import (
    FiniteAbelianGroup,
    InputError,
    ValidationFailure,
    comm_ring_violations,
    diassociativity_report,
    direct_sum_group,
    emit_structure,
    enumerate_lcrngs,
    enumerate_subgroups,
    from_lcrng,
    hlring_violations,
    lcrng_violations,
    parse_structure,
    ring_product,
    subgroup_closure,
    validate_group,
    validate_hlring,
    validate_lcrng,
    zmod,
)
from huliu import kernel
from huliu.cli import run
from huliu.kernel import (
    check_table_shape,
    element_orders,
    generating_sequence,
    group_violations,
    subset_key,
)

from oracles import brute_subgroups

KLEIN = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]

Z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]


def test_klein_is_valid():
    g = validate_group(KLEIN)
    assert g.order == 4
    assert g.zero == 0
    assert all(g.neg(x) == x for x in g.elements())


def test_z4_is_valid_with_inverse_of_1_being_3():
    g = validate_group(Z4)
    assert g.neg(1) == 3


def test_noncommutative_patch_is_reported():
    rows = [list(r) for r in KLEIN]
    rows[1][2] = 2
    violations = group_violations(rows)
    codes = {v.code: v for v in violations}
    assert "add-not-commutative" in codes
    assert codes["add-not-commutative"].witness == (1, 2)
    with pytest.raises(ValidationFailure):
        validate_group(rows)


def test_zero_must_sit_at_index_zero():
    shifted = [[(i + j - 2) % 4 for j in range(4)] for i in range(4)]
    violations = group_violations(shifted)
    assert any(v.code == "zero-not-at-index-zero" for v in violations)


def test_non_square_table_is_an_input_error():
    with pytest.raises(InputError) as err:
        group_violations([[0, 1], [1]])
    assert err.value.code == "non-square-table"


def test_tables_above_order_256_are_refused_before_any_row_is_read():
    """Rows are bytes in the law engine, so 256 is the kernel's range; the
    documented envelope of structure documents is 64."""
    rows = [[(i + j) % 257 for j in range(257)] for i in range(257)]
    with pytest.raises(InputError) as err:
        group_violations(rows)
    assert err.value.code == "order-too-large"
    with pytest.raises(InputError) as err:
        check_table_shape([None] * 257)  # rows that are not rows: none is read
    assert err.value.code == "order-too-large"
    z256 = [[(i + j) % 256 for j in range(256)] for i in range(256)]
    assert group_violations(z256) == []


def test_float_sentinel_is_refused():
    """Only the int SENTINEL stands for an undefined entry: -1.0 compares
    equal to it but is refused like 1.0 and True."""
    assert check_table_shape([[-1, 0], [0, 0]], allow_sentinel=True) == ((-1, 0), (0, 0))
    for bad in (-1.0, 1.0, True):
        with pytest.raises(InputError) as err:
            check_table_shape([[bad, 0], [0, 0]], allow_sentinel=True)
        assert (err.value.code, err.value.message) == (
            "table-entry-out-of-range",
            f"entry (0,0) is {bad!r}",
        )


@pytest.mark.parametrize("sentinel", [False, True])
def test_table_checks_name_the_first_bad_entry_of_the_first_bad_row(sentinel):
    """Whole rows are checked at once; the one refused is walked for its first
    bad entry, with the message of an entry-by-entry check."""
    for bad in [4, -2, 2.0, False, "1", None, [0]] + ([] if sentinel else [-1]):
        rows = [[0, 1, 2, 3], [1, 2, 3, bad], [2, bad, 0, 1], [3, 0, 1, 2]]
        with pytest.raises(InputError) as err:
            check_table_shape(rows, allow_sentinel=sentinel)
        assert err.value.message == f"entry (1,3) is {bad!r}"
    rows = [[0, 1, 2, 3], [1, 2, 3, -1], [2, 3, 0, 1], [3, 0, 1, 2]]
    if sentinel:
        assert check_table_shape(rows, allow_sentinel=True)[1] == (1, 2, 3, -1)


def test_int_subclass_entries_are_frozen_as_ints():
    class Index(int):
        pass

    table = check_table_shape([[Index(0), Index(1)], [1, 0]])
    assert table == ((0, 1), (1, 0))
    assert {type(x) for row in table for x in row} == {int}


@pytest.fixture
def row_checks(monkeypatch):
    """Calls of the row predicate of every table check the kernel makes."""
    calls = []
    make = kernel._row_check

    def counted(n, extra=()):
        fits, first_bad = make(n, extra)
        return (lambda row: calls.append(n) or fits(row)), first_bad

    monkeypatch.setattr(kernel, "_row_check", counted)
    return calls


def test_parsed_tables_are_not_checked_again(cat, row_checks):
    """The reader checks each table once; every validator, the bridge and
    the dialgebra report then take the marked tables as they are."""
    raw = parse_structure(emit_structure(cat["r8"]))
    hl = parse_structure(emit_structure(from_lcrng(cat["r8"])))
    ring = parse_structure(emit_structure(zmod(6)))
    row_checks.clear()  # the bridge of the hand-built r8 checked its +
    assert lcrng_violations(raw) == hlring_violations(hl) == comm_ring_violations(ring) == []
    bridged = from_lcrng(validate_lcrng(raw))
    diassociativity_report(bridged)
    diassociativity_report(validate_hlring(hl))
    assert row_checks == []
    # Unmarked tables are checked, row by row, on each validation.
    unmarked = replace(
        raw,
        group=FiniteAbelianGroup(8, tuple(raw.group.add)),
        mul=tuple(raw.mul),
        local_mul=tuple(raw.local_mul),
    )
    for _ in range(2):
        lcrng_violations(unmarked)
    assert row_checks == [8] * 3 * 8 * 2


def test_a_hand_built_bad_entry_is_still_refused(cat):
    raw = parse_structure(emit_structure(cat["r8"]))
    mul = [list(row) for row in raw.mul]
    mul[5][2] = 8
    with pytest.raises(InputError) as err:
        lcrng_violations(replace(raw, mul=mul))
    assert (err.value.code, err.value.message) == ("table-entry-out-of-range", "entry (5,2) is 8")


def test_a_checked_table_with_sentinels_is_refused_as_a_full_table(cat):
    raw = parse_structure(emit_structure(cat["r8"]))
    partial = raw.local_mul
    assert check_table_shape(partial, allow_sentinel=True) is partial
    cases = (
        lambda: lcrng_violations(replace(raw, mul=partial)),
        lambda: lcrng_violations(replace(raw, group=FiniteAbelianGroup(8, partial))),
        lambda: hlring_violations(replace(from_lcrng(cat["r8"]).raw(), larrow=partial)),
        lambda: group_violations(partial),
    )
    for case in cases:
        with pytest.raises(InputError) as err:
            case()
        assert err.value.code == "table-entry-out-of-range"
    # Without a SENTINEL it passes as a full table, and is marked as one.
    without = check_table_shape(tuple(raw.mul), allow_sentinel=True)
    full = check_table_shape(without)
    assert full is not without and check_table_shape(full) is full == raw.mul


def test_subgroup_closure_examples():
    g = validate_group(Z4)
    assert subgroup_closure(g, {2}) == frozenset({0, 2})
    assert subgroup_closure(g, set()) == frozenset({0})
    k = validate_group(KLEIN)
    assert subgroup_closure(k, {1, 2}) == frozenset({0, 1, 2, 3})


GROUPS = [
    validate_group(Z4),
    validate_group(KLEIN),
    zmod(6).group,
    direct_sum_group([2, 4]),
    direct_sum_group([12]),
    direct_sum_group([2, 2, 2]),
    direct_sum_group([3, 3]),
]
IDS = ["z4", "klein", "z6", "z2xz4", "z12", "z2xz2xz2", "z3xz3"]


@cache
def _brute_subgroups(gi):
    return brute_subgroups(GROUPS[gi])


@settings(deadline=None, max_examples=60)
@given(data=st.data(), gi=st.integers(0, len(GROUPS) - 1))
def test_closure_is_idempotent_and_monotone(data, gi):
    g = GROUPS[gi]
    seed = data.draw(st.frozensets(st.integers(0, g.order - 1), max_size=g.order))
    bigger = data.draw(st.frozensets(st.integers(0, g.order - 1), max_size=g.order))
    closed = subgroup_closure(g, seed)
    assert closed == min((s for s in _brute_subgroups(gi) if seed <= s), key=len)
    assert subgroup_closure(g, closed) == closed
    assert closed <= subgroup_closure(g, seed | bigger)


def test_known_subgroup_lattices():
    assert enumerate_subgroups(validate_group(Z4)) == [
        frozenset({0}),
        frozenset({0, 2}),
        frozenset({0, 1, 2, 3}),
    ]
    assert len(enumerate_subgroups(validate_group(KLEIN))) == 5
    assert len(enumerate_subgroups(direct_sum_group([2, 4]))) == 8


@pytest.mark.parametrize("group", GROUPS, ids=IDS)
def test_enumeration_matches_subset_scan_oracle(group):
    ours = enumerate_subgroups(group)
    assert ours == brute_subgroups(group)
    for s in ours:
        assert all(group.add[a][b] in s for a in s for b in s)


def test_canonical_ordering_is_size_then_membership():
    subs = enumerate_subgroups(validate_group(KLEIN))
    assert subs == sorted(subs, key=subset_key)


@pytest.mark.parametrize("gi", range(len(GROUPS)), ids=IDS)
def test_element_orders_and_generating_sequences(gi):
    g = GROUPS[gi]
    least = [min(k for k in range(1, g.order + 1) if g.sum([x] * k) == 0) for x in g.elements()]
    assert element_orders(g) == tuple(least)
    for s in _brute_subgroups(gi):
        assert subgroup_closure(g, generating_sequence(g, s)) == s


def _gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("p, n", [(2, 4), (2, 5), (3, 3)], ids=["z2^4", "z2^5", "z3^3"])
def test_elementary_abelian_subgroup_counts(p, n):
    g = direct_sum_group([p] * n)
    subs = enumerate_subgroups(g)
    sizes = Counter(len(s) for s in subs)
    assert sizes == {p**k: _gaussian_binomial(n, k, p) for k in range(n + 1)}
    assert len(set(subs)) == len(subs)
    assert subs == sorted(subs, key=subset_key)
    for s in subs:
        assert 0 in s
        assert all(g.add[a][b] in s for a in s for b in s)


def _factorisations(n):
    """Every ordered factorisation of n into factors >= 2."""
    if n == 1:
        return [()]
    return [(d, *rest) for d in range(2, n + 1) if n % d == 0 for rest in _factorisations(n // d)]


def test_direct_sum_group_is_the_group_of_the_product_ring():
    """The table built by arithmetic is the one the product of cyclic rings
    builds, index x + |A|·y, on every ordered factorisation of n <= 16 and
    on orders with factors of 1."""
    cases = [f for n in range(2, 17) for f in _factorisations(n)]
    for orders in [*cases, (1,), (1, 4, 4), (2, 1, 2), (3, 1)]:
        ring = reduce(ring_product, map(zmod, orders))
        assert direct_sum_group(orders).add == ring.group.add, orders


def test_direct_sum_groups_up_to_order_64_are_groups():
    """direct_sum_group marks its table checked without validating it."""
    cases = [f for n in range(2, 65) for f in _factorisations(n)]
    assert len(cases) == 440
    for orders in cases:
        group = direct_sum_group(orders)
        assert check_table_shape(group.add) is group.add
        assert group_violations(group.add) == [], orders


def test_a_census_proves_the_group_laws_of_a_direct_sum_once(monkeypatch):
    proofs = []

    def counted(add, real=kernel._group_violations):
        proofs.append(add)
        return real(add)

    monkeypatch.setattr(kernel, "_group_violations", counted)
    assert len(enumerate_lcrngs(direct_sum_group([2, 2, 2]))) == 5
    assert len(proofs) == 1


# The law engine: each law settled at most once, decisions in place of scans.


def _null_z8_z8():
    from huliu import identity_hom, semidirect_null

    z8 = zmod(8)
    return semidirect_null(z8, z8, identity_hom(z8))


def _scans(monkeypatch):
    """Every `_first_witness` call, as (row, domains), the objects kept so
    that their ids stay unique."""
    calls = []
    first_witness = kernel._first_witness

    def recording(row, domains):
        calls.append((row, domains))
        return first_witness(row, domains)

    monkeypatch.setattr(kernel, "_first_witness", recording)
    return calls


def _whole_cubes(calls, n):
    return [d for _, d in calls if len(d) == 3 and all(len(x) == n for x in d)]


def test_an_after_code_that_names_no_law_raises():
    holds = kernel.Law("holds", "", ((0,),), lambda: (0, 0))
    decided = kernel.Law(
        "decided", "", ((0,),), lambda: (0, 0), decision=kernel.Decision(((0,),), ("missing",))
    )
    with pytest.raises(ValueError, match="missing"):
        list(kernel._law_violations([holds, decided]))
    with pytest.raises(ValueError, match="missing"):
        kernel._law_holds([holds, decided], ["decided"])
    assert kernel._law_holds([holds, decided._replace(decision=None)], ["decided"]) == [True]


def test_a_law_after_another_waits_for_it_wherever_it_stands():
    """A decision after a later law settles that law first; a skipped or
    failing prerequisite sends the decided law to its full scan."""
    n = 4
    calls = []

    def row(name, holds):
        def side(*prefix):
            calls.append(name)
            return (0,) * n, (0,) * n if holds else (1,) * n

        return side

    def table(prerequisite_holds, skipped):
        domains = (range(n), range(n))
        first = kernel.Law("first", "{} {}", domains, row("first", not skipped))
        decided = kernel.Law(
            "decided",
            "{} {}",
            domains,
            row("decided", True),
            decision=kernel.Decision(((0,), (0,)), ("after",), row("decision", True)),
        )
        after = kernel.Law("after", "{} {}", domains, row("after", prerequisite_holds), ("first",))
        return [first, decided, after]

    assert list(kernel._law_violations(table(True, False))) == []
    assert calls == ["first"] * n + ["after"] * n + ["decision"]
    calls.clear()
    assert [v.code for v in kernel._law_violations(table(False, False))] == ["after"]
    assert calls == ["first"] * n + ["after"] + ["decided"] * n
    calls.clear()
    assert [v.code for v in kernel._law_violations(table(True, True))] == ["first"]
    assert calls == ["first"] + ["decided"] * n
    calls.clear()
    assert kernel._law_holds(table(True, True), ["decided"]) == [True]
    assert calls == ["first"] + ["decided"] * n


def test_no_row_is_scanned_twice_in_one_call(monkeypatch):
    """Each decision runs at most once per call, and each law gets at most
    one full scan, valid or not."""
    raw = _null_z8_z8()
    bumped = [list(r) for r in raw.mul]
    bumped[63][62] = (bumped[63][62] + 1) % 64
    bad = replace(raw, mul=tuple(map(tuple, bumped)))
    ring = from_lcrng(validate_lcrng(raw))
    bullet = [list(r) for r in ring.bullet]
    bullet[2][3] = (bullet[2][3] + 1) % 64
    runs = [
        (lcrng_violations, raw),
        (lcrng_violations, bad),
        (hlring_violations, ring.raw()),
        (hlring_violations, replace(ring.raw(), bullet=tuple(map(tuple, bullet)))),
        (diassociativity_report, ring),
        (comm_ring_violations, zmod(64)),
    ]
    for call, arg in runs:
        calls = _scans(monkeypatch)
        call(arg)
        counts = Counter((id(row), id(domains)) for row, domains in calls)
        assert calls and max(counts.values()) == 1, call.__name__


def test_valid_null_z8_z8_and_its_bridge_make_no_whole_cube_scan(monkeypatch):
    raw = _null_z8_z8()
    calls = _scans(monkeypatch)
    structure = validate_lcrng(raw)
    ring = from_lcrng(structure)
    assert calls and _whole_cubes(calls, 64) == []
    calls.clear()
    validate_hlring(ring.raw())
    assert calls and _whole_cubes(calls, 64) == []


def test_a_failing_identity_gets_no_witness_scan(monkeypatch):
    """diassociativity_report answers yes or no: an identity that its
    decision shows failing is not scanned for a witness."""
    ring = from_lcrng(validate_lcrng(_null_z8_z8()))
    calls = _scans(monkeypatch)
    report = diassociativity_report(ring)
    assert not all(report.values())
    assert calls and _whole_cubes(calls, 64) == []


def test_a_call_leaves_no_reference_cycles():
    """Each call's laws, rows and tables are freed when it ends, not left
    for the cycle collector: also a call that stops at its first failure."""
    import gc

    raw = _null_z8_z8()
    ring = from_lcrng(validate_lcrng(raw))
    bumped = [list(r) for r in raw.mul]
    bumped[1][1] = (bumped[1][1] + 1) % 64
    calls = [
        lambda: lcrng_violations(raw),
        lambda: lcrng_violations(replace(raw, mul=tuple(map(tuple, bumped)))),
        lambda: hlring_violations(ring.raw()),
        lambda: diassociativity_report(ring),
        lambda: next(kernel._law_violations([kernel.Law("a", "", (), lambda: (0, 1))])),
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


# A group proves its laws of + once, and its verdict is never shared stale.


@pytest.mark.parametrize("command", ["bridge", "hl-verify"])
def test_bridge_and_hl_verify_prove_the_group_laws_once(command, cat, tmp_path, monkeypatch, capsys):
    path = tmp_path / "doc.json"
    doc = cat["r8"] if command == "bridge" else from_lcrng(cat["r8"])
    path.write_text(emit_structure(doc), encoding="utf-8")
    calls = []
    prove = kernel._group_violations
    monkeypatch.setattr(kernel, "_group_violations", lambda add: calls.append(add) or prove(add))
    assert run([command, str(path)]) == 0
    assert len(calls) == 1


def test_census_rows_on_z2xz4_are_unchanged(capsys):
    assert run(["enumerate", "--group", "zmod:2x4", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "0;2;0,1\n"
    assert run(["enumerate", "--group", "zmod:2x4", "--format", "csv", "--no-dedup"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0;2;0,1", "1;6;0,1", "2;2;0,5", "3;6;0,5", "4;3;0,1", "5;7;0,1", "6;3;0,5", "7;7;0,5"
    ]


def test_a_returned_violation_list_is_the_callers_own(cat):
    """Each call gets a fresh list, also when the group's verdict is kept."""
    raw = parse_structure(emit_structure(cat["r8"]))
    add = [list(row) for row in raw.group.add]
    add[1][2] = (add[1][2] + 1) % 8  # + is no longer commutative
    bad = parse_structure(emit_structure(replace(raw, group=FiniteAbelianGroup(8, add))))
    hl = replace(parse_structure(emit_structure(from_lcrng(cat["r8"]))), group=bad.group)
    ring = replace(parse_structure(emit_structure(zmod(8))), group=bad.group)
    first = [*lcrng_violations(bad)]
    assert "add-not-commutative" in [v.code for v in first]
    for call, arg in ((lcrng_violations, bad), (hlring_violations, hl), (comm_ring_violations, ring)):
        found = call(arg)
        assert found == first
        found.clear()
        found.append("junk")
        assert call(arg) == first


def test_a_table_the_caller_may_change_is_read_on_every_call(cat):
    """Only a group whose + is marked checked keeps its verdict: a list
    table changed between two calls is checked and proved again."""
    raw = cat["r8"].raw()
    add = [list(row) for row in raw.group.add]
    unmarked = replace(raw, group=FiniteAbelianGroup(8, add))
    assert lcrng_violations(unmarked) == []
    add[1][2] = (add[1][2] + 1) % 8
    assert "add-not-commutative" in [v.code for v in lcrng_violations(unmarked)]
    add[1][2] = 8
    with pytest.raises(InputError):
        lcrng_violations(unmarked)
