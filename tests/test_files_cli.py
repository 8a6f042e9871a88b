import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from huliu import (
    FiniteAbelianGroup,
    FiniteCommRing,
    InputError,
    LcRng,
    RawHlRing,
    RawLcRng,
    component_ring,
    emit_structure,
    from_lcrng,
    parse_structure,
    ring_product,
    validate_hlring,
    validate_lcrng,
    zmod,
)
import huliu.cli
import huliu.files
import huliu.lcrng
from huliu.cli import COMMANDS, build_parser, run

from oracles import GROUPS_TO_16, mutate, rowwise_emit


def test_round_trip_catalog(cat):
    for name, s in cat.items():
        text = emit_structure(s)
        again = parse_structure(text)
        assert again == s.raw(), name
        assert emit_structure(again) == text


def test_emit_matches_the_rowwise_renderer(cat, census_of):
    """Rows of checked tables are joined from precomputed strings, any other
    table's go through json.dumps: the text is the same either way, on
    validated and parsed structures, bridges, rings, census classes (their
    local products hold nulls) and hand-built raw tables."""
    structures = []
    for s in cat.values():
        structures += [s, s.raw(), from_lcrng(s)]
    structures += [zmod(1), zmod(6), ring_product(zmod(2), zmod(4))]
    for orders in GROUPS_TO_16:
        if math.prod(orders) <= 8:
            structures += [t for s in census_of(orders) for t in (s, from_lcrng(s))]
    texts = [emit_structure(s) for s in structures]
    for s, text in zip(structures, texts):
        assert text == rowwise_emit(s), s.name
        assert emit_structure(parse_structure(text)) == text, s.name
    # Every lcrng document has null entries: # is undefined off the halo.
    assert ["null" in t for t in texts] == [isinstance(s, (LcRng, RawLcRng)) for s in structures]
    z2 = FiniteAbelianGroup(order=2, add=((0, 1), (1, 0)))
    for raw in (
        RawLcRng(z2, ((0, True), (1, 7)), 0, ((-1, -1.0), (False, 0)), name="bent"),
        RawHlRing(z2, ((0, 1), (1, 0)), ((0, 9), (0, 1)), ((True, 0), (0, -1)), 1),
        FiniteCommRing(FiniteAbelianGroup(order=2, add=[[0, 1], [1, 0]]), [[0, 0], [0, 1]], 1),
    ):
        assert emit_structure(raw) == rowwise_emit(raw)


def test_rows_of_parsed_tables_are_emitted_without_json_dumps(cat, monkeypatch):
    """A parsed table is checked, so its rows are joined from strings: only
    the scalar values of a document go through json.dumps."""
    parsed = [parse_structure(emit_structure(s)) for s in cat.values()]
    parsed.append(parse_structure(emit_structure(from_lcrng(cat["r8"]))))
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a) or dumps(*a, **k))
    for raw in parsed:
        emit_structure(raw)
    assert all(not isinstance(value, list) for value, *_ in calls)
    assert 0 < len(calls) <= 4 * len(parsed)  # kind, order, identity, name


def test_round_trip_hlring_and_ring(r4):
    ring = from_lcrng(r4)
    assert parse_structure(emit_structure(ring)) == ring.raw()
    z6 = zmod(6)
    assert parse_structure(emit_structure(z6)) == z6
    with pytest.raises(InputError) as err:
        emit_structure(component_ring(r4, 0))  # a ring on a proper subgroup
    assert err.value.code == "ring-not-on-whole-group"


def test_round_trip_preserves_name_and_metadata(r4):
    tagged = replace(r4.raw(), name="tagged", metadata=(("seed", 7), ("source", "demo")))
    again = parse_structure(emit_structure(tagged))
    assert again == tagged


def test_emit_is_deterministic(r4):
    assert emit_structure(r4) == emit_structure(validate_lcrng(parse_structure(emit_structure(r4))))


def test_parse_errors():
    with pytest.raises(InputError) as err:
        parse_structure("{ truncated")
    assert err.value.code == "malformed-document"
    with pytest.raises(InputError) as err:
        parse_structure(json.dumps({"kind": "weird"}))
    assert err.value.code == "unknown-kind"
    with pytest.raises(InputError) as err:
        parse_structure(json.dumps({"kind": "ring", "order": 2, "add": [[0, 1]], "mul": [], "one": 1}))
    assert err.value.code == "shape-mismatch"


def test_parse_names_the_first_bad_table_entry(r4):
    """Rows are checked whole; a refused row is walked for its first bad
    entry.  JSON null is an entry only of local_mul, and -1 never is."""
    doc = json.loads(emit_structure(r4))
    for key, bad in [("mul", None), ("mul", -1), ("local_mul", -1), ("add", 1.0), ("mul", True)]:
        bent = json.loads(json.dumps(doc))
        bent[key][2][1] = bent[key][2][3] = bad
        with pytest.raises(InputError) as err:
            parse_structure(json.dumps(bent))
        assert (err.value.code, err.value.message) == (
            "shape-mismatch",
            f"'{key}' entry (2,1) is {bad!r}",
        )
    assert parse_structure(emit_structure(r4)).local_mul == r4.local_mul


def test_parse_accepts_offhalo_local_entry_validation_rejects(r4):
    #  parsing is shape-only; the algebraic complaint comes from validation
    bad = mutate(r4.raw(), "local_mul", 1, 2, 0)
    text = emit_structure(bad)
    parsed = parse_structure(text)
    assert parsed == bad
    with pytest.raises(Exception):
        validate_lcrng(parsed)


@pytest.fixture()
def files(tmp_path, cat, r4, r8):
    paths = {}
    for name, s in cat.items():
        p = tmp_path / f"{name}.json"
        p.write_text(emit_structure(s), encoding="utf-8")
        paths[name] = str(p)
    broken = tmp_path / "broken.json"
    broken.write_text(emit_structure(mutate(r4.raw(), "mul", 1, 2, 0)), encoding="utf-8")
    paths["broken"] = str(broken)
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{ nope", encoding="utf-8")
    paths["garbage"] = str(garbage)
    hl = tmp_path / "hl4.json"
    hl.write_text(emit_structure(from_lcrng(r4)), encoding="utf-8")
    paths["hl4"] = str(hl)
    ringfile = tmp_path / "z6.json"
    ringfile.write_text(emit_structure(zmod(6)), encoding="utf-8")
    paths["z6"] = str(ringfile)
    return paths


def test_cli_verify_exit_codes(files, capsys):
    assert run(["verify", files["r4"]]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    assert "ok left-identity-fails" in out  # the report lists every axiom checked
    assert run(["verify", files["broken"]]) == 1
    out = capsys.readouterr().out
    assert "verdict: fail" in out and "violation" in out
    assert run(["verify", files["garbage"]]) == 2
    assert run(["verify", files["z6"]]) == 0
    assert run(["verify", files["hl4"]]) == 0


def test_cli_usage_errors(files, capsys):
    assert run([]) == 2
    capsys.readouterr()
    assert run(["bogus-command"]) == 2
    capsys.readouterr()
    assert run(["verify", "/nonexistent/x.json"]) == 2


ROOT = Path(__file__).resolve().parent.parent
USAGE_ARGVS = [
    [],
    ["-h"],
    ["bogus"],
    ["ver"],
    *([name, "-h"] for name in COMMANDS),
    *([name] for name in COMMANDS),
    ["construct", "--a", "zmod:4"],
    ["integral", "F", "--max-degree", "x"],
    ["enumerate", "--group", "zmod:2", "--max-candidates", "x"],
    ["spectrum", "F", "--format", "xml"],
    ["verify", "a", "b"],
    ["lying-over", "F", "--lenient"],
]


@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=" ".join)
def test_cli_usage_matches_the_full_parser(argv, capsys, monkeypatch):
    """`run` builds only the named subcommand's parser; its help, usage
    and errors are still those of the parser with every subcommand."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        build_parser().parse_args(argv)
    expected = (int(stop.value.code or 0), *capsys.readouterr())
    assert (run(argv), *capsys.readouterr()) == expected


def test_each_parser_is_built_once_per_process():
    for command in (*COMMANDS, None):
        assert build_parser(command) is build_parser(command)
    assert len({id(build_parser(c)) for c in (*COMMANDS, None)}) == len(COMMANDS) + 1


def test_kept_parsers_answer_as_a_fresh_full_parser(capsys, monkeypatch):
    """In one process, at one help width and then another, every usage
    argv gets what a newly built full parser gives."""
    for columns in ("80", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in USAGE_ARGVS:
            with pytest.raises(SystemExit) as stop:
                huliu.cli._new_parser(None).parse_args(argv)
            expected = (int(stop.value.code or 0), *capsys.readouterr())
            assert (run(argv), *capsys.readouterr()) == expected, (columns, argv)


def test_run_builds_only_the_named_subparser(files, capsys, monkeypatch):
    built = []

    def recording(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(huliu.cli, "build_parser", recording)
    assert run(["verify", files["r4"]]) == 0
    assert run(["bogus"]) == 2
    assert run(["verify", "a", "b"]) == 2  # leftovers: the full parser reports them
    assert built == ["verify", None, "verify", None]


def test_module_entry_point_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "-h"])
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "huliu", "verify", "-h"],
        env={**os.environ, "COLUMNS": "80", "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, *capsys.readouterr())


def test_a_reader_that_closes_early_gets_no_traceback():
    """`huliu ... | head -1`: the census of Z2^3 without dedup writes about
    600 KB, far more than a pipe holds, so its writes meet the closed pipe;
    the console script exits 1 with nothing on stderr."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    argv = ["enumerate", "--group", "zmod:2x2x2", "--no-dedup", "--emit"]
    with subprocess.Popen(
        [sys.executable, "-m", "huliu", *argv],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        assert proc.stdout.readline() == "enumerate zmod:2x2x2\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert err == ""


def test_readme_command_block_lists_the_subcommand_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    names = [line.split()[1] for line in block.splitlines() if line.startswith("huliu ")]
    assert names == list(COMMANDS)


def test_cli_spectrum_csv_rows(files, capsys):
    assert run(["spectrum", files["r8"], "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert [r.split(";")[0] for r in rows] == ["0,2", "0,2,4,6"]
    assert all(r.split(";")[1] == "yes" for r in rows)


def test_cli_ideals_and_decompose(files, capsys):
    assert run(["ideals", files["r4"], "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows == ["0;yes;0|0", "0,2;yes;0|0,2", "0,1,2,3;no;0,1|0,2"]
    assert run(["decompose", files["r8"], "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[6] == "6;2;4"


def test_cli_lying_over(files, capsys):
    assert run(["lying-over", files["r4"]]) == 0
    capsys.readouterr()
    assert run(["lying-over", files["r4"], "--subset", "0,1,2"]) == 2
    err = capsys.readouterr().err
    assert "not-a-subrng" in err
    assert run(["lying-over", files["r4"], "--lenient"]) == 2
    assert "unrecognized arguments: --lenient" in capsys.readouterr().err


def test_cli_lying_over_diagonal(files, tmp_path, capsys, u8):
    p = tmp_path / "u8.json"
    p.write_text(emit_structure(u8), encoding="utf-8")
    assert run(["lying-over", str(p), "--subset", "0,3,4,7", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows == [
        "0;0,2;0,2;yes",
        "0,4;0,1,4,5|0,2,4,6;0,1,4,5|0,2,4,6;yes",
    ]


def test_cli_integral_reports_a_bound_too_low_as_missing(tmp_path, capsys, u8):
    p = tmp_path / "u8.json"
    p.write_text(emit_structure(u8), encoding="utf-8")
    argv = ["integral", str(p), "--subset", "0,3,4,7", "--max-degree", "1", "--format", "csv"]
    assert run(argv) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows == ["0;1;1", "1;-;1", "2;-;1", "3;1;1", "4;1;1", "5;-;1", "6;-;1", "7;1;1"]


def test_cli_integral(files, capsys):
    assert run(["integral", files["r8"], "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert all(r.split(";")[1] == "1" and r.split(";")[2] == "1" for r in rows)
    assert run(["integral", files["r8"], "--subset", "0,1,2,3", "--lenient"]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --lenient" in err
    assert run(["integral", files["r8"], "--subset", "0,1,2,3"]) == 2
    err = capsys.readouterr().err
    assert "not-a-subrng: missing-local-identity" in err


@pytest.mark.parametrize("degree", ["0", "-3"])
def test_cli_integral_rejects_max_degree_below_one(files, capsys, degree):
    assert run(["integral", files["r8"], "--max-degree", degree, "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad-max-degree: --max-degree must be >= 1, got {degree}\n"
    assert run(["integral", files["r8"], "--max-degree", "1", "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 8


def test_cli_construct_round_trip(tmp_path, capsys, r8):
    assert run(["construct", "--a", "zmod:4", "--b", "zmod:2", "--name", "r8"]) == 0
    text = capsys.readouterr().out
    assert validate_lcrng(parse_structure(text)).mul == r8.mul
    assert run(["construct", "--a", "zmod:2", "--b", "zmod:1"]) == 2
    assert "zero-b" in capsys.readouterr().err
    assert run(["construct", "--a", "zmod:2x2", "--b", "zmod:2", "--hom", "p1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "a, b, hom",
    [("zmod:8", "zmod:8", "id"), ("zmod:4", "zmod:2", "auto"), ("zmod:2x2", "zmod:2", "p2")],
)
def test_construct_validates_its_structure_once(capsys, monkeypatch, a, b, hom):
    """The structure semidirect_null validated is the one printed, as
    validate_lcrng prints it."""
    checked = huliu.lcrng._checked
    calls = []
    monkeypatch.setattr(huliu.lcrng, "_checked", lambda raw: calls.append(raw) or checked(raw))
    assert run(["construct", "--a", a, "--b", b, "--hom", hom]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == emit_structure(checked(calls[0])[1])


def test_cli_bridge_and_hl_verify(files, tmp_path, capsys):
    assert run(["bridge", files["r4"]]) == 0
    text = capsys.readouterr().out
    hl = tmp_path / "bridged.json"
    hl.write_text(text, encoding="utf-8")
    validate_hlring(parse_structure(text))
    assert run(["hl-verify", str(hl)]) == 0
    out = capsys.readouterr().out
    assert "hl-commutative: yes" in out
    assert run(["hl-verify", files["r4"]]) == 2  # wrong kind


def test_construct_and_bridge_print_one_document_in_either_format(files, capsys):
    """`construct` and `bridge` print a structure document, so `--format`
    leaves their stdout, stderr and exit code unchanged, as README states."""
    for argv in (
        ["construct", "--a", "zmod:2x2", "--b", "zmod:2", "--hom", "p1", "--name", "u8"],
        ["bridge", files["u8"]],
    ):
        printed = []
        for extra in ([], ["--format", "csv"], ["--format", "text"]):
            assert run(argv + extra) == 0, argv + extra
            printed.append(capsys.readouterr())
        assert printed[0].out.startswith("{\n")
        assert printed[0] == printed[1] == printed[2], argv


def test_cli_enumerate(capsys):
    assert run(["enumerate", "--group", "zmod:2x2", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 1
    assert run(["enumerate", "--group", "zmod:2"]) == 0
    out = capsys.readouterr().out
    assert "0 structures" in out


@pytest.mark.parametrize("k", ["0", "-3"])
def test_cli_enumerate_rejects_max_candidates_below_one(capsys, k):
    assert run(["enumerate", "--group", "zmod:2x2", "--max-candidates", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad-max-candidates: --max-candidates must be >= 1, got {k}\n"
    assert run(["enumerate", "--group", "zmod:2x2", "--max-candidates", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "0;1;0,2\n"


@pytest.mark.parametrize(
    "spec", ["zmod:2_2", "zmod:+2", "zmod: 2", "zmod:٢x2", "zmod:-2", "zmod:2x2 "]
)
@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--group"],
        ["construct", "--b", "zmod:2", "--a"],
        ["construct", "--a", "zmod:4", "--b"],
    ],
    ids=["enumerate", "construct-a", "construct-b"],
)
def test_ring_spec_factors_are_ascii_digits(capsys, argv, spec):
    """int() reads 2_2 as 22 and takes signs, spaces and other scripts'
    digits; a factor is read only when it is ASCII digits."""
    assert run(argv + [spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad-ring-spec: cannot parse {spec!r}\n"


def test_cli_rejects_oversized_specs_before_building_tables(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(huliu.cli, "zmod", lambda n: built.append(n) or zmod(n))
    assert run(["enumerate", "--group", "zmod:20x30"]) == 2
    err = capsys.readouterr().err
    assert err == "error: order-too-large: census is capped at order 16, got 600\n"
    assert run(["construct", "--a", "zmod:200", "--b", "zmod:2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: order-too-large: construct is capped at order 64, got 400\n"
    assert run(["construct", "--a", "zmod:2x2", "--b", "zmod:17", "--hom", "p1"]) == 2
    assert "order-too-large" in capsys.readouterr().err
    assert built == []
    assert run(["enumerate", "--group", "zmod:17"]) == 2
    assert "census is capped at order 16, got 17" in capsys.readouterr().err
    assert run(["construct", "--a", "zmod:16", "--b", "zmod:4"]) == 0
    capsys.readouterr()
    assert run(["enumerate", "--group", "zmod:4x4", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "0;1;0,4,8,12\n"


def test_documents_above_order_64_are_refused_before_any_table_is_read(
    tmp_path, capsys, monkeypatch
):
    ring_doc = emit_structure(zmod(65))
    add = json.loads(ring_doc)["add"]
    tables = {key: add for key in ("add", "bullet", "rarrow", "larrow")}
    hl_doc = json.dumps({"kind": "hlring", "order": 65, "identity": 0, **tables})
    read = []
    read_table = huliu.files._read_table

    def counted(doc, key, *args, **kwargs):
        read.append(key)
        return read_table(doc, key, *args, **kwargs)

    monkeypatch.setattr(huliu.files, "_read_table", counted)
    for command, text in (("verify", ring_doc), ("hl-verify", hl_doc)):
        path = tmp_path / f"{command}.json"
        path.write_text(text, encoding="utf-8")
        assert run([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: order-too-large: structure documents are capped at order 64, got 65\n"
    assert read == []


def test_order_64_documents_still_pass(tmp_path, capsys):
    def output(argv):
        assert run(argv) == 0, argv
        return capsys.readouterr().out

    lcrng, hl, ring = tmp_path / "null8x8.json", tmp_path / "bridge.json", tmp_path / "z64.json"
    lcrng.write_text(output(["construct", "--a", "zmod:8", "--b", "zmod:8", "--hom", "id"]), encoding="utf-8")
    hl.write_text(output(["bridge", str(lcrng)]), encoding="utf-8")
    ring.write_text(emit_structure(zmod(64)), encoding="utf-8")
    for command, path in (("verify", lcrng), ("hl-verify", hl), ("verify", ring)):
        assert "verdict: pass" in output([command, str(path)])
