"""Seeded fuzz of the input boundary: mutated structure documents through
the file subcommands end in exit code 0, 1 or 2, and never in an uncaught
exception; every exit 2 carries an InputError message on stderr."""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from huliu import catalog, emit_structure, from_lcrng
from huliu.cli import run

SOURCES = {}
for _name, _s in catalog().items():
    SOURCES[_name] = emit_structure(_s)
    SOURCES[f"{_name}-bridge"] = emit_structure(from_lcrng(_s))

COMMANDS = ("verify", "lying-over", "integral", "bridge", "hl-verify")

VALUES = st.one_of(
    st.integers(-3, 20),
    st.none(),
    st.booleans(),
    st.sampled_from(["1", "lcrng", 1.5, [], {}, [[0]]]),
)


def _is_table(value) -> bool:
    return isinstance(value, list) and bool(value) and isinstance(value[0], list)


@st.composite
def documents(draw) -> str:
    text = SOURCES[draw(st.sampled_from(sorted(SOURCES)))]
    how = draw(st.sampled_from(("entry", "shape", "text")))
    if how == "text":
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        insert = draw(st.text(alphabet='0123456789-[]{},:."enul ', max_size=4))
        return text[:i] + insert + text[j:]
    doc = json.loads(text)
    key = draw(st.sampled_from(sorted(doc)))
    value = doc[key]
    if how == "entry":
        new = draw(VALUES)
        if _is_table(value):
            i = draw(st.integers(0, len(value) - 1))
            value[i][draw(st.integers(0, len(value[i]) - 1))] = new
        else:
            doc[key] = new
        return json.dumps(doc)
    op = draw(st.sampled_from(("drop-key", "drop-row", "add-row", "cut-row", "grow-row")))
    if op == "drop-key" or not _is_table(value):
        del doc[key]
    else:
        i = draw(st.integers(0, len(value) - 1))
        if op == "drop-row":
            del value[i]
        elif op == "add-row":
            value.append(list(value[i]))
        elif op == "cut-row":
            value[i].pop()
        else:
            value[i].append(0)
    return json.dumps(doc)


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary") / "doc.json"


@settings(derandomize=True, max_examples=120, deadline=None)
@given(text=documents())
def test_mutated_documents_end_in_an_exit_code(document_path, text):
    document_path.write_text(text, encoding="utf-8")
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run([command, str(document_path)])
        assert code in (0, 1, 2), command
        if code == 2:
            assert re.fullmatch(r"error: [a-z][a-z0-9-]*: .+\n", err.getvalue(), re.S), command
