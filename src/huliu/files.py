"""JSON interchange for structures: parse and canonical emit.

One document format for all three kinds.  Tables are row-major nested
arrays; undefined local-product entries are JSON null; the additive zero
sits at index 0.  Parsing refuses orders above 64 and then checks shape
only — algebraic validation is a separate step — and emit produces
canonical bytes (sorted keys, fixed indentation), so parse∘emit is the
identity on structures and emit is deterministic byte-for-byte.

The shape check made while reading is the only one a parsed table gets:
each table is returned marked as checked (`kernel._Checked`), and the
validators' `check_table_shape` returns a marked table at once.  Emit
renders a row of a checked table by joining precomputed entry strings,
and any other table through `json.dumps`, with the same text.
"""

from __future__ import annotations

import json
from typing import Any

from .constructions import FiniteCommRing
from .errors import InputError
from .hlring import HlRing, RawHlRing
from .kernel import (
    SENTINEL,
    FiniteAbelianGroup,
    Table,
    _Checked,
    _CheckedPartial,
    _require_whole,
    _row_check,
)
from .lcrng import LcRng, Metadata, RawLcRng

Structure = RawLcRng | RawHlRing | FiniteCommRing
Emittable = Structure | LcRng | HlRing

_SCALARS = (str, int, float, bool)

# The documented envelope: tables are quadratic and most searches cubic in
# the order, so larger documents are refused before any table is read.
MAX_ORDER = 64


def _shape_error(message: str) -> InputError:
    return InputError("shape-mismatch", message)


def _read_table(doc: dict, key: str, order: int, allow_null: bool = False) -> Table:
    """The table under `key`, checked as `check_table_shape` checks it
    (null for SENTINEL where allowed), and marked as checked."""
    rows = doc.get(key)
    if not isinstance(rows, list) or len(rows) != order:
        raise _shape_error(f"'{key}' must be a {order}x{order} array")
    fits, first_bad = _row_check(order, (None,) if allow_null else ())
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != order:
            raise _shape_error(f"'{key}' row {i} must have length {order}")
        if not fits(row):  # JSON has no int subclasses, so a bad entry exists
            j = first_bad(row)
            raise _shape_error(f"'{key}' entry ({i},{j}) is {row[j]!r}")
        out.append(tuple([SENTINEL if x is None else x for x in row] if allow_null else row))
    return (_CheckedPartial if allow_null else _Checked)(out)


def _read_index(doc: dict, key: str, order: int) -> int:
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < order):
        raise _shape_error(f"'{key}' must be an element index, got {v!r}")
    return v


def _read_common(doc: dict) -> tuple[int, str, Metadata]:
    order = doc.get("order")
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise _shape_error(f"'order' must be a positive integer, got {order!r}")
    if order > MAX_ORDER:
        raise InputError(
            "order-too-large", f"structure documents are capped at order {MAX_ORDER}, got {order}"
        )
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise _shape_error("'name' must be a string")
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise _shape_error("'metadata' must be an object")
    pairs = []
    for k in sorted(meta):
        if not isinstance(k, str) or not isinstance(meta[k], _SCALARS):
            raise _shape_error("'metadata' must map strings to scalars")
        pairs.append((k, meta[k]))
    return order, name, tuple(pairs)


def parse_structure(text: str) -> Structure:
    """Raw structure from a JSON document; shape checks only."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError("malformed-document", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("malformed-document", "top level must be an object")
    kind = doc.get("kind")
    if kind not in ("lcrng", "hlring", "ring"):
        raise InputError("unknown-kind", f"unknown structure kind {kind!r}")
    order, name, metadata = _read_common(doc)
    group = FiniteAbelianGroup(order=order, add=_read_table(doc, "add", order))
    if kind == "lcrng":
        return RawLcRng(
            group=group,
            mul=_read_table(doc, "mul", order),
            left_identity=_read_index(doc, "left_identity", order),
            local_mul=_read_table(doc, "local_mul", order, allow_null=True),
            name=name,
            metadata=metadata,
        )
    if kind == "hlring":
        return RawHlRing(
            group=group,
            bullet=_read_table(doc, "bullet", order),
            rarrow=_read_table(doc, "rarrow", order),
            larrow=_read_table(doc, "larrow", order),
            sigma=_read_index(doc, "identity", order),
            name=name,
            metadata=metadata,
        )
    return FiniteCommRing(
        group=group,
        mul=_read_table(doc, "mul", order),
        one=_read_index(doc, "one", order),
        name=name,
        metadata=metadata,
    )


def _table_json(table: Table) -> list[str]:
    """Each row of a table as JSON text.  The entries of a checked table are
    ints in range(n), or SENTINEL where it is allowed, so a row joins their
    precomputed strings ("null" sits at index -1, SENTINEL's).  Any other
    table, which may hold anything, goes through json.dumps row by row."""
    if isinstance(table, (_Checked, _CheckedPartial)):
        names = (*map(str, range(len(table))), "null")
        return ["[" + ", ".join(map(names.__getitem__, row)) + "]" for row in table]
    return [json.dumps([None if x == SENTINEL else x for x in row]) for row in table]


def emit_structure(structure: Emittable) -> str:
    """Canonical JSON text for a structure: sorted keys, row-major tables."""
    doc: dict[str, Any]
    if isinstance(structure, LcRng):
        structure = structure.raw()  # refuses a proper carrier
    if isinstance(structure, RawLcRng):
        doc = {
            "kind": "lcrng",
            "order": structure.group.order,
            "add": _table_json(structure.group.add),
            "mul": _table_json(structure.mul),
            "local_mul": _table_json(structure.local_mul),
            "left_identity": structure.left_identity,
        }
    elif isinstance(structure, (RawHlRing, HlRing)):
        doc = {
            "kind": "hlring",
            "order": structure.group.order,
            "add": _table_json(structure.group.add),
            "bullet": _table_json(structure.bullet),
            "rarrow": _table_json(structure.rarrow),
            "larrow": _table_json(structure.larrow),
            "identity": structure.sigma,
        }
    elif isinstance(structure, FiniteCommRing):
        _require_whole("ring", structure)
        doc = {
            "kind": "ring",
            "order": structure.group.order,
            "add": _table_json(structure.group.add),
            "mul": _table_json(structure.mul),
            "one": structure.one,
        }
    else:
        raise InputError("unknown-kind", f"cannot emit {type(structure).__name__}")
    if structure.name:
        doc["name"] = structure.name
    if structure.metadata:
        doc["metadata"] = dict(structure.metadata)
    return _dumps(doc)


def _dumps(doc: dict[str, Any]) -> str:
    """Canonical rendering: sorted keys, one table row per line.  A list
    value is a table as `_table_json` renders it."""
    lines = ["{"]
    keys = sorted(doc)
    for ki, key in enumerate(keys):
        value = doc[key]
        comma = "," if ki < len(keys) - 1 else ""
        if isinstance(value, list):
            lines.append(f' "{key}": [')
            for ri, row in enumerate(value):
                tail = "," if ri < len(value) - 1 else ""
                lines.append("  " + row + tail)
            lines.append(f" ]{comma}")
        else:
            lines.append(f' "{key}": ' + json.dumps(value, sort_keys=True) + comma)
    lines.append("}")
    return "\n".join(lines) + "\n"
