import random
from dataclasses import replace

import pytest

from huliu import (
    InputError,
    RawHlRing,
    diassociativity_report,
    from_lcrng,
    hl_halo,
    hlring_violations,
    induced_table,
    is_hl_commutative,
    validate_hlring,
    zmod,
)
from huliu.hlring import hl_commutativity_violation


def _degenerate(n=4):
    """A plain commutative ring read as a Hu-Liu ring: both arrows equal the product."""
    ring = zmod(n)
    return validate_hlring(
        RawHlRing(
            group=ring.group,
            bullet=ring.mul,
            rarrow=ring.mul,
            larrow=ring.mul,
            sigma=ring.one,
            name=f"degenerate-{n}",
        )
    )


def test_bridges_of_catalog_validate(cat):
    for name, s in cat.items():
        ring = from_lcrng(s)
        assert hlring_violations(ring.raw()) == [], name


def test_degenerate_commutative_ring_is_valid():
    ring = _degenerate()
    assert ring.halo == frozenset({0})
    assert is_hl_commutative(ring)
    assert all(diassociativity_report(ring).values())


def test_bridge_halo_matches_source(cat):
    for s in cat.values():
        ring = from_lcrng(s)
        assert hl_halo(ring) == s.halo
        assert ring.sigma == s.left_identity


def test_bridge_is_commutative_with_identically_zero_difference(cat):
    for s in cat.values():
        ring = from_lcrng(s)
        assert is_hl_commutative(ring)
        for x in ring.elements():
            for y in ring.elements():
                assert ring.minus(ring.rarrow[x][y], ring.larrow[y][x]) == 0


def test_bridge_bullet_equals_induced_table(cat):
    for s in cat.values():
        assert from_lcrng(s).bullet == induced_table(s)


def test_mutated_bridge_reports_the_decomposition_law(r4):
    raw = from_lcrng(r4).raw()
    rows = [list(r) for r in raw.larrow]
    rows[2][1] = 1
    bad = replace(raw, larrow=tuple(map(tuple, rows)))
    violations = hlring_violations(bad)
    decomposition = [v for v in violations if v.code == "product-decomposition"]
    assert decomposition and decomposition[0].witness == (2, 3)


def test_shifted_rarrow_breaks_commutativity(r4):
    ring = from_lcrng(r4)
    rows = [list(r) for r in ring.rarrow]
    rows[1][2] = 1  # 1 is not a halo element
    shifted = replace(ring, rarrow=tuple(map(tuple, rows)))
    bad = hl_commutativity_violation(shifted)
    assert bad is not None and bad.witness == (1, 2)


def _brute_commutativity_witness(ring):
    """The first (x, y) where x⇀y - y↼x leaves the halo, entry by entry."""
    add, neg = ring.group.add, ring.group.negation
    for x in ring.elements():
        for y in ring.elements():
            if add[ring.rarrow[x][y]][neg[ring.larrow[y][x]]] not in ring.halo:
                return (x, y)
    return None


def test_hl_commutativity_matches_brute_force_on_mutated_rings(cat):
    """Bridges with one arrow entry changed or the halo edited by hand, as
    no validation would leave them."""
    rand = random.Random("hl-commutativity")
    seen = set()
    for s in cat.values():
        ring = from_lcrng(s)
        n = ring.order
        for _ in range(40):
            field = rand.choice(["rarrow", "larrow", "halo"])
            if field == "halo":
                mutated = replace(ring, halo=ring.halo ^ {rand.randrange(n)})
            else:
                rows = [list(r) for r in getattr(ring, field)]
                rows[rand.randrange(n)][rand.randrange(n)] = rand.randrange(n)
                mutated = replace(ring, **{field: tuple(map(tuple, rows))})
            bad = hl_commutativity_violation(mutated)
            want = _brute_commutativity_witness(mutated)
            assert (bad and bad.witness) == want
            seen.add(want is None)
    assert seen == {True, False}


def test_diassociativity_report_on_bridge(r4):
    report = diassociativity_report(from_lcrng(r4))
    assert report["x>(y>z) == (x>y)>z"] is True
    assert report["(x<y)<z == x<(y<z)"] is True
    assert len(report) == 5


def test_mutated_arrow_association_shows_in_report():
    ring = _degenerate()
    rows = [list(r) for r in ring.rarrow]
    rows[2][3] = (rows[2][3] + 1) % 4
    broken = replace(ring, rarrow=tuple(map(tuple, rows)))
    report = diassociativity_report(broken)
    assert report["x>(y>z) == (x>y)>z"] is False


def test_arrow_associativity_is_enforced_by_the_validator():
    ring = _degenerate()
    rows = [list(r) for r in ring.rarrow]
    rows[2][3] = (rows[2][3] + 1) % 4
    violations = hlring_violations(replace(ring.raw(), rarrow=tuple(map(tuple, rows))))
    assert any(v.code == "rarrow-not-associative" for v in violations)


@pytest.mark.parametrize("report", [hl_commutativity_violation, diassociativity_report])
@pytest.mark.parametrize("arrow", ["rarrow", "larrow", "both"])
def test_an_arrow_not_of_the_group_order_is_an_input_error(r4, report, arrow):
    """An order-2 arrow on the order-4 bridge of r4 is refused as
    `hlring_violations` refuses it, not read past its end."""
    small = ((0, 1), (1, 0))
    names = ["rarrow", "larrow"] if arrow == "both" else [arrow]
    ring = replace(from_lcrng(r4), **dict.fromkeys(names, small))
    with pytest.raises(InputError) as err:
        report(ring)
    assert err.value.code == "table-shape-mismatch"
    assert str(err.value) == "table-shape-mismatch: product tables do not match group order"
    with pytest.raises(InputError) as err:
        hlring_violations(ring.raw())
    assert err.value.code == "table-shape-mismatch"
