"""First-witness semantics of every validator under seeded single-entry edits.

Each edit changes one table entry of a catalog structure, of its bridge, or
of a commutative ring.  Every reported violation must fail its law at the
witness and no earlier row-major tuple may fail the same law; the codes must
come out in the validator's check order, and every law the oracle sees fail
must be reported unless a law it waits for failed.  The subset checks of ideals.py
report only their first failed clause; they run on every subgroup and ideal
of each structure and on seeded one-element edits of each ideal.
"""

import itertools
import random
from dataclasses import replace

import pytest

from huliu import (
    SENTINEL,
    FiniteAbelianGroup,
    GradedIdeal,
    comm_ring_violations,
    enumerate_ideals,
    enumerate_subgroups,
    from_lcrng,
    hlring_violations,
    identity_hom,
    ideal_violation,
    lcrng_violations,
    ring_hom,
    ring_product,
    semidirect_null,
    subrng_violation,
    validate_lcrng,
    zmod,
)
from huliu.constructions import RING_CHECKS
from huliu.hlring import HLRING_CHECKS
from huliu.ideals import prime_violation
from huliu.kernel import GROUP_CHECKS
from huliu.lcrng import LCRNG_CHECKS

from oracles import (
    first_failed_clause,
    group_laws,
    hlring_laws,
    ideal_clauses,
    lcrng_laws,
    prime_clauses,
    ring_laws,
    subrng_clauses,
    witness_is_first,
)

EDITS = 40


def _edit(table, i, j, value):
    rows = [list(r) for r in table]
    rows[i][j] = value
    return tuple(map(tuple, rows))


def _edits(obj, names, seed):
    """Seeded one-entry edits of the named tables, each a fresh object.

    Three in four # edits land where # is defined, so the halo-ring laws
    behind the local-mul-missing gate are reached too.
    """
    rand = random.Random(seed)
    n = obj.group.order
    for _ in range(EDITS):
        name = rand.choice(names)
        table = obj.group.add if name == "add" else getattr(obj, name)
        cells = [(i, j) for i in range(n) for j in range(n)]
        if name == "local_mul" and rand.random() < 0.75:
            cells = [(i, j) for i, j in cells if table[i][j] != SENTINEL]
        i, j = rand.choice(cells)
        choices = [v for v in range(n) if v != table[i][j]]
        if name == "local_mul" and table[i][j] != SENTINEL:
            choices.append(SENTINEL)
        new = _edit(table, i, j, rand.choice(choices))
        if name == "add":
            yield f"add[{i}][{j}]", replace(obj, group=FiniteAbelianGroup(order=n, add=new))
        else:
            yield f"{name}[{i}][{j}]", replace(obj, **{name: new})


# The lcrng laws that wait for others: a law is reported only when each law
# it names held.  Every non-group law of every validator waits for the group
# laws.
LOCAL = ("local-mul-missing",)
PREREQUISITES = {
    "local-mul-not-closed": LOCAL,
    "local-mul-not-commutative": LOCAL,
    "local-mul-not-associative": LOCAL,
    "local-mul-not-distributive": ("halo-not-subgroup", *LOCAL),
    "no-local-identity": LOCAL,
    "local-triassociativity": LOCAL,
}


def _fails(domains, holds):
    return not all(holds(*t) for t in itertools.product(*domains))


def _expected_codes(laws):
    """The oracle laws that fail and whose prerequisites held."""
    failed = {code for code in GROUP_CHECKS if _fails(*laws[code])}
    if failed:
        return failed
    failed = {code for code, law in laws.items() if _fails(*law)}
    return {code for code in failed if failed.isdisjoint(PREREQUISITES.get(code, ()))}


def _check(violations, laws, checks, where):
    """Codes in check order, each witness the first, and every law that the
    oracle sees fail, with its prerequisites held, reported."""
    order = (*GROUP_CHECKS, *checks)
    codes = [v.code for v in violations]
    assert codes == sorted(set(codes), key=order.index), where
    for v in violations:
        assert witness_is_first(laws, v), (where, v)
    assert set(codes) == _expected_codes(laws), where


@pytest.mark.parametrize("name", ["r4", "r8", "u8", "r18"])
def test_lcrng_witnesses_are_first(cat, name):
    raw = cat[name].raw()
    for where, bad in _edits(raw, ["add", "mul", "local_mul"], seed=name):
        laws = {**group_laws(bad.group.add), **lcrng_laws(bad)}
        _check(lcrng_violations(bad), laws, LCRNG_CHECKS, f"{name} {where}")


@pytest.mark.parametrize("name", ["r4", "r8", "u8", "r18"])
def test_bridge_witnesses_are_first(cat, name):
    raw = from_lcrng(cat[name]).raw()
    for where, bad in _edits(raw, ["add", "bullet", "rarrow", "larrow"], seed=f"hl-{name}"):
        laws = {**group_laws(bad.group.add), **hlring_laws(bad)}
        _check(hlring_violations(bad), laws, HLRING_CHECKS, f"hl({name}) {where}")


@pytest.mark.parametrize("label", ["Z6", "Z2xZ3"])
def test_ring_witnesses_are_first(label):
    ring = zmod(6) if label == "Z6" else ring_product(zmod(2), zmod(3))
    failures = 0
    for where, bad in _edits(ring, ["add", "mul"], seed=label):
        violations = comm_ring_violations(bad)
        failures += bool(violations)
        laws = {**group_laws(bad.group.add), **ring_laws(bad)}
        _check(violations, laws, RING_CHECKS, f"{label} {where}")
    assert failures


def _subsets(structure, seed):
    """Every subgroup and ideal, and seeded one-element edits of each ideal."""
    rand = random.Random(seed)
    subgroups = enumerate_subgroups(structure.group)
    ideals = [ideal.carrier for ideal in enumerate_ideals(structure)]
    edits = [t ^ {rand.randrange(structure.order)} for t in ideals for _ in range(4)]
    return subgroups + ideals + edits


def _check_first_clause(violation, clauses, where):
    clause = first_failed_clause(clauses)
    if clause is None:
        assert violation is None, where
        return
    code, domains, holds = clause
    assert violation is not None and violation.code == code, (where, violation, code)
    assert len(violation.witness) == len(domains), (where, violation)
    assert witness_is_first({code: (domains, holds)}, violation), (where, violation)


def test_subset_witnesses_are_first(cat):
    """The catalog plus two null rngs whose halo ring Z2xZ2 has subgroups that
    are not ideals, so that the absorption and #-primality clauses fail too.
    No input here reaches halo-not-multiplicatively-closed: that needs a halo
    ring with an additive subgroup that is not #-closed, such as Z3xZ3."""
    z2xz2 = ring_product(zmod(2), zmod(2))
    structures = {
        **cat,
        "null(Z2,Z2xZ2)": validate_lcrng(
            semidirect_null(zmod(2), z2xz2, ring_hom(zmod(2), z2xz2, [0, 3]))
        ),
        "null(Z2xZ2,Z2xZ2)": validate_lcrng(semidirect_null(z2xz2, z2xz2, identity_hom(z2xz2))),
    }
    codes = set()
    for name, s in structures.items():
        for t in _subsets(s, seed=f"subsets-{name}"):
            ideal = GradedIdeal(t, t & s.r0, t & s.r1, "ideal")
            checks = [
                (ideal_violation(s, t), ideal_clauses(s, t)),
                (subrng_violation(s, t), subrng_clauses(s, t, strict=True)),
                (subrng_violation(s, t, strict=False), subrng_clauses(s, t, strict=False)),
                (prime_violation(s, ideal), prime_clauses(s, ideal)),
            ]
            for violation, clauses in checks:
                _check_first_clause(violation, clauses, f"{name} {{{sorted(t)}}}")
                codes.add(violation and violation.code)
    assert codes == {
        None,
        "not-a-subgroup",
        "ideal-right-absorb",
        "ideal-left-absorb",
        "halo-ideal-absorb",
        "missing-left-identity",
        "not-multiplicatively-closed",
        "missing-local-identity",
        "prime-requires-proper",
        "prime-product-condition",
        "prime-local-condition",
    }


def _bump(obj, name, i, j):
    """obj with entry (i, j) of one table moved on by one: mod n, or for #
    to the next halo element, as the benchmark's mutations do."""
    n = obj.group.order
    table = obj.group.add if name == "add" else getattr(obj, name)
    if name == "local_mul":
        halo = sorted(x for x in range(n) if obj.mul[x][obj.left_identity] == 0)
        value = halo[(halo.index(table[i][j]) + 1) % len(halo)]
    else:
        value = (table[i][j] + 1) % n
    new = _edit(table, i, j, value)
    if name == "add":
        return replace(obj, group=FiniteAbelianGroup(order=n, add=new))
    return replace(obj, **{name: new})


def _check_wide(violations, laws, checks, where, n):
    """_check, except that at order 64 the oracle scans only the laws
    reported (codes in check order, each witness the first), which keeps
    the test quick."""
    if n <= 32:
        return _check(violations, laws, checks, where)
    order = (*GROUP_CHECKS, *checks)
    codes = [v.code for v in violations]
    assert codes and codes == sorted(set(codes), key=order.index), where
    for v in violations:
        assert witness_is_first(laws, v), (where, v)


@pytest.mark.parametrize("spec", [(16, 2), (8, 8)])
def test_witnesses_are_first_at_full_byte_width(spec):
    """Single-entry edits of null(Z16,Z2) (order 32) and null(Z8,Z8) (order
    64) and of their bridges, at the positions the benchmark mutates, where
    rows are bytes over 32 and 64 elements."""
    a, b = zmod(spec[0]), zmod(spec[1])
    s = validate_lcrng(semidirect_null(a, b, ring_hom(a, b, [x % spec[1] for x in range(spec[0])])))
    raw, n, e, h = s.raw(), s.order, s.left_identity, max(s.halo)
    edits = [("mul", 1, 1), ("mul", 2, 3), ("mul", n - 1, n - 2), ("mul", e, n - 1)]
    for name, i, j in [*edits, ("add", 3, 2), ("local_mul", h, h)]:
        bad = _bump(raw, name, i, j)
        laws = {**group_laws(bad.group.add), **lcrng_laws(bad)}
        _check_wide(lcrng_violations(bad), laws, LCRNG_CHECKS, f"{n} {name}[{i}][{j}]", n)
    hl = from_lcrng(s).raw()
    for name, i, j in [("bullet", 2, 3), ("rarrow", n - 1, 1), ("larrow", 1, n - 1)]:
        bad = _bump(hl, name, i, j)
        laws = {**group_laws(bad.group.add), **hlring_laws(bad)}
        _check_wide(hlring_violations(bad), laws, HLRING_CHECKS, f"hl {n} {name}[{i}][{j}]", n)
