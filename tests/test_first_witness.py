"""First-witness semantics of every validator under seeded single-entry edits.

Each edit changes one table entry of a catalog structure, of its bridge, or
of a commutative ring.  Every reported violation must fail its law at the
witness and no earlier row-major tuple may fail the same law; the codes must
come out in the validator's check order.
"""

import random
from dataclasses import replace

import pytest

from huliu import (
    SENTINEL,
    FiniteAbelianGroup,
    comm_ring_violations,
    from_lcrng,
    hlring_violations,
    lcrng_violations,
    ring_product,
    zmod,
)
from huliu.constructions import RING_CHECKS
from huliu.hlring import HLRING_CHECKS
from huliu.kernel import GROUP_CHECKS
from huliu.lcrng import LCRNG_CHECKS

from oracles import group_laws, hlring_laws, lcrng_laws, ring_laws, witness_is_first

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


def _check(violations, laws, checks, where):
    order = (*GROUP_CHECKS, *checks)
    codes = [v.code for v in violations]
    assert codes == sorted(set(codes), key=order.index), where
    for v in violations:
        assert witness_is_first(laws, v), (where, v)


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
