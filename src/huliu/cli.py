"""Command-line surface: structure files in, reports and exit codes out.

Exit codes partition outcomes: 0 = verdict pass, 1 = algebraic
failure/violation (including theorem alarms), 2 = input or usage error.
Reports have a human text form and a machine CSV form (--format csv);
CSV rows use ';' between fields, ',' inside subsets, and '|' between
subsets in a list field.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from .constructions import (
    FiniteCommRing,
    RING_CHECKS,
    comm_ring_violations,
    enumerate_lcrngs,
    identity_hom,
    projection_hom,
    reduction_hom,
    ring_product,
    semidirect_null,
    zmod,
)
from .errors import InputError, TheoremAlarm, ValidationFailure, Violation
from .files import MAX_ORDER, emit_structure, parse_structure
from .hlring import (
    HLRING_CHECKS,
    RawHlRing,
    diassociativity_report,
    from_lcrng,
    hlring_violations,
    is_hl_commutative,
    validate_hlring,
)
from .ideals import GradedIdeal, enumerate_ideals, is_huliu_prime, spectrum
from .integrality import _graded_search
from .kernel import GROUP_CHECKS, direct_sum_group, format_subset, parse_subset
from .lcrng import LCRNG_CHECKS, RawLcRng, decompose, lcrng_violations, validate_lcrng
from .lyingover import embed_check, verify_lying_over_all


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError("missing-file", f"cannot read {path}: {exc}") from exc


def _emit_report(
    args: argparse.Namespace,
    command: str,
    lines: list[str],
    rows: list[str],
    verdict: str,
    text_rows: bool = True,
) -> int:
    if args.format == "csv":
        for row in rows:
            print(row)
    else:
        print(command)
        for line in lines:
            print(line)
        if text_rows:
            for row in rows:
                print(row)
        print(f"verdict: {verdict}")
    return 0 if verdict == "pass" else 1


def _axiom_lines(
    checks: Sequence[str], violations: list[Violation]
) -> tuple[list[str], list[str], bool]:
    by_code = {v.code: v for v in violations}
    lines, rows = [], []
    for code in (*GROUP_CHECKS, *checks):
        v = by_code.get(code)
        if v is None:
            lines.append(f"ok {code}")
            rows.append(f"{code};ok;")
        else:
            lines.append(f"violation {v}")
            rows.append(f"{code};fail;{','.join(map(str, v.witness))}")
    for v in violations:
        if v.code not in GROUP_CHECKS and v.code not in checks:
            lines.append(f"violation {v}")
            rows.append(f"{v.code};fail;{','.join(map(str, v.witness))}")
    return lines, rows, not violations


def _parse_lcrng_file(path: str) -> RawLcRng:
    structure = parse_structure(_read_file(path))
    if not isinstance(structure, RawLcRng):
        raise InputError("kind-mismatch", f"{path} does not hold an lcrng document")
    return structure


def _cmd_verify(args: argparse.Namespace) -> int:
    structure = parse_structure(_read_file(args.file))
    if isinstance(structure, RawLcRng):
        checks, violations = LCRNG_CHECKS, lcrng_violations(structure)
    elif isinstance(structure, RawHlRing):
        checks, violations = HLRING_CHECKS, hlring_violations(structure)
    else:
        checks, violations = RING_CHECKS, comm_ring_violations(structure)
    lines, rows, ok = _axiom_lines(checks, violations)
    return _emit_report(
        args, f"verify {args.file}", lines, rows, "pass" if ok else "fail", text_rows=False
    )


def _cmd_decompose(args: argparse.Namespace) -> int:
    structure = validate_lcrng(_parse_lcrng_file(args.file))
    split = decompose(structure)
    lines = [
        f"r0 = {format_subset(split.r0)}",
        f"r1 = {format_subset(split.r1)}",
    ]
    rows = [f"{a};{split.comp0[a]};{split.comp1[a]}" for a in structure.elements()]
    return _emit_report(args, f"decompose {args.file}", lines, rows, "pass")


def _ideal_row(ideal: GradedIdeal, prime: bool) -> str:
    flag, i0, i1 = "yes" if prime else "no", format_subset(ideal.i0), format_subset(ideal.i1)
    return f"{format_subset(ideal.carrier)};{flag};{i0}|{i1}"


def _cmd_ideals(args: argparse.Namespace) -> int:
    structure = validate_lcrng(_parse_lcrng_file(args.file))
    rows = [_ideal_row(i, is_huliu_prime(structure, i)) for i in enumerate_ideals(structure)]
    lines = [f"{len(rows)} ideals"]
    return _emit_report(args, f"ideals {args.file}", lines, rows, "pass")


def _cmd_spectrum(args: argparse.Namespace) -> int:
    structure = validate_lcrng(_parse_lcrng_file(args.file))
    rows = [_ideal_row(p, True) for p in spectrum(structure).primes]
    lines = [f"{len(rows)} Hu-Liu prime ideals"]
    return _emit_report(args, f"spectrum {args.file}", lines, rows, "pass")


def _subset(args: argparse.Namespace, structure) -> frozenset[int]:
    """The --subset indices, or the whole carrier when none are given."""
    if args.subset:
        return parse_subset(args.subset, structure.order)
    return frozenset(structure.elements())


def _cmd_integral(args: argparse.Namespace) -> int:
    if args.max_degree is not None and args.max_degree < 1:
        raise InputError("bad-max-degree", f"--max-degree must be >= 1, got {args.max_degree}")
    structure = validate_lcrng(_parse_lcrng_file(args.file))
    subset = _subset(args, structure)
    found = list(_graded_search(structure, subset, structure.elements(), args.max_degree))
    rows = [f"{u};{w0.degree if w0 else '-'};{w1.degree if w1 else '-'}" for u, w0, w1 in found]
    lines = [f"subrng = {format_subset(subset)}"]
    verdict = "pass" if all(w0 and w1 for _, w0, w1 in found) else "fail"
    return _emit_report(args, f"integral {args.file}", lines, rows, verdict)


def _cmd_lying_over(args: argparse.Namespace) -> int:
    structure = validate_lcrng(_parse_lcrng_file(args.file))
    subset = _subset(args, structure)
    pair = embed_check(structure, subset)
    report = verify_lying_over_all(pair)
    rows = []
    for row in report.rows:
        rows.append(
            f"{format_subset(row.p)};"
            f"{'|'.join(format_subset(w) for w in row.witnesses)};"
            f"{'|'.join(format_subset(m) for m in row.maximal)};"
            f"{'yes' if row.ok else 'no'}"
        )
    lines = [f"subrng = {format_subset(subset)}", f"{len(report.rows)} primes checked"]
    return _emit_report(
        args, f"lying-over {args.file}", lines, rows, "pass" if report.passed else "fail"
    )


def _spec_orders(spec: str) -> list[int]:
    if not spec.startswith("zmod:"):
        raise InputError("bad-ring-spec", f"expected zmod:N or zmod:NxM..., got {spec!r}")
    factors = spec.split(":", 1)[1].split("x")
    # int() would also read signs, spaces, underscores and non-ASCII digits
    if not all(f.isascii() and f.isdigit() for f in factors):
        raise InputError("bad-ring-spec", f"cannot parse {spec!r}")
    orders = [int(f) for f in factors]
    for n in orders:
        if n < 1:
            raise InputError("bad-order", f"zmod needs n >= 1, got {n}")
    return orders


def _orders_from_specs(specs: Sequence[str], cap: int, what: str) -> list[list[int]]:
    """The cyclic orders of each spec zmod:N or zmod:NxM....  The product of
    all of them must not pass cap; that is checked before any table is
    built, since building one is quadratic in its order."""
    parsed = [_spec_orders(spec) for spec in specs]
    total = math.prod(n for orders in parsed for n in orders)
    if total > cap:
        raise InputError("order-too-large", f"{what} is capped at order {cap}, got {total}")
    return parsed


def _rings_from_specs(specs: Sequence[str], cap: int, what: str) -> list[FiniteCommRing]:
    """The rings zmod:N or zmod:NxM... (products of cyclic rings)."""
    return [
        functools.reduce(ring_product, map(zmod, orders))
        for orders in _orders_from_specs(specs, cap, what)
    ]


def _resolve_hom(a_spec: str, b_spec: str, hom: str):
    a, b = _rings_from_specs([a_spec, b_spec], MAX_ORDER, "construct")
    a_orders = _spec_orders(a_spec)
    if hom == "auto":
        hom = "reduction" if len(a_orders) == 1 else ""
        if not hom:
            raise InputError("bad-hom-spec", "product ring A needs an explicit --hom p1/p2")
    if hom == "id":
        if a != b:
            raise InputError("bad-hom-spec", "--hom id needs identical rings")
        return a, b, identity_hom(a)
    if hom == "reduction":
        return a, b, reduction_hom(a, b)
    if hom in ("p1", "p2"):
        if len(a_orders) != 2:
            raise InputError("bad-hom-spec", "--hom p1/p2 needs a two-factor product ring A")
        first, second = map(zmod, a_orders)
        which = 0 if hom == "p1" else 1
        phi = projection_hom(a, first, second, which)
        if phi.target != b:
            raise InputError("bad-hom-spec", "projection target does not match --b")
        return a, b, phi
    raise InputError("bad-hom-spec", f"unknown hom {hom!r}")


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.family != "semidirect":
        raise InputError("bad-family", f"unknown family {args.family!r}")
    a, b, phi = _resolve_hom(args.a, args.b, args.hom)
    # semidirect_null has validated what it returns.
    sys.stdout.write(emit_structure(semidirect_null(a, b, phi, name=args.name or "")))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.max_candidates is not None and args.max_candidates < 1:
        raise InputError(
            "bad-max-candidates", f"--max-candidates must be >= 1, got {args.max_candidates}"
        )
    (orders,) = _orders_from_specs([args.group], 16, "census")
    group = direct_sum_group(orders)
    structures = enumerate_lcrngs(
        group, max_candidates=args.max_candidates, dedup=not args.no_dedup
    )
    rows = [
        f"{i};{s.left_identity};{format_subset(s.halo)}" for i, s in enumerate(structures)
    ]
    lines = [f"{len(structures)} structures on a group of order {group.order}"]
    code = _emit_report(args, f"enumerate {args.group}", lines, rows, "pass")
    if args.emit:
        for s in structures:
            sys.stdout.write(emit_structure(s))
    return code


def _cmd_bridge(args: argparse.Namespace) -> int:
    structure = validate_lcrng(_parse_lcrng_file(args.file))
    sys.stdout.write(emit_structure(from_lcrng(structure)))
    return 0


def _cmd_hl_verify(args: argparse.Namespace) -> int:
    structure = parse_structure(_read_file(args.file))
    if not isinstance(structure, RawHlRing):
        raise InputError("kind-mismatch", f"{args.file} does not hold an hlring document")
    try:
        ring, violations = validate_hlring(structure), []
    except ValidationFailure as failure:
        ring, violations = None, failure.violations
    lines, rows, ok = _axiom_lines(HLRING_CHECKS, violations)
    if ring is not None:
        lines.append(f"halo = {format_subset(ring.halo)}")
        lines.append(f"hl-commutative: {'yes' if is_hl_commutative(ring) else 'no'}")
        for name, holds in diassociativity_report(ring).items():
            flag = "yes" if holds else "no"
            lines.append(f"diassociativity {name}: {flag}")
            rows.append(f"{name};{flag}")
    return _emit_report(
        args, f"hl-verify {args.file}", lines, rows, "pass" if ok else "fail", text_rows=False
    )


_FILE = ("file", {})
_SUBSET = ("--subset", {"default": "", "help": "subrng as comma-separated indices"})

# The subcommands, in the order `huliu -h` lists them: name -> (handler,
# help line, options).  Every subcommand also takes --format, added first.
COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], int], str, tuple]] = {
    "verify": (_cmd_verify, "validate a structure file against every axiom", (_FILE,)),
    "decompose": (_cmd_decompose, "print the grading and per-element components", (_FILE,)),
    "ideals": (_cmd_ideals, "enumerate ideals with primality flags", (_FILE,)),
    "spectrum": (_cmd_spectrum, "list the Hu-Liu prime ideals", (_FILE,)),
    "bridge": (_cmd_bridge, "emit the Hu-Liu ring built from an lcrng file", (_FILE,)),
    "hl-verify": (_cmd_hl_verify, "validate a Hu-Liu ring file", (_FILE,)),
    "integral": (
        _cmd_integral,
        "minimal monic witness degrees over a subrng",
        (_FILE, _SUBSET, ("--max-degree", {"type": int})),
    ),
    "lying-over": (_cmd_lying_over, "replay the lying-over theorem on a pair", (_FILE, _SUBSET)),
    "construct": (
        _cmd_construct,
        "build a structure from a family recipe",
        (
            ("--family", {"default": "semidirect"}),
            ("--a", {"required": True, "help": "ring spec, e.g. zmod:4 or zmod:2x2"}),
            ("--b", {"required": True, "help": "ring spec, e.g. zmod:2"}),
            ("--hom", {"default": "auto", "help": "auto | id | reduction | p1 | p2"}),
            ("--name", {"default": ""}),
        ),
    ),
    "enumerate": (
        _cmd_enumerate,
        "census of structures on an abelian group",
        (
            ("--group", {"required": True, "help": "group spec, e.g. zmod:2x2"}),
            ("--max-candidates", {"type": int}),
            ("--no-dedup", {"action": "store_true"}),
            ("--emit", {"action": "store_true", "help": "also print each structure document"}),
        ),
    ),
}


# Parsers by subcommand name (None: every subcommand), each built on first
# use and kept for the process: parsing an argv leaves a parser unchanged,
# and building one costs several times what parsing with it does.  Help
# width (COLUMNS) is read when help is printed, not when a parser is built.
_PARSERS: dict[str | None, argparse.ArgumentParser] = {}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `huliu` parser with every subcommand, or with `command` alone,
    built once per process."""
    parser = _PARSERS.get(command)
    if parser is None:
        parser = _PARSERS[command] = _new_parser(command)
    return parser


def _new_parser(command: str | None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="huliu",
        description="Workbench for left commutative rngs and rings with the Hu-Liu product.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, options) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=helptext)
            p.add_argument("--format", choices=("text", "csv"), default="text")
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A named subcommand needs only its own subparser.  No arguments, -h, an
    # unknown name and leftover arguments get the full parser and its usage.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args, rest = build_parser(command).parse_known_args(argv)
        if rest:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command][0](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationFailure as exc:
        for v in exc.violations:
            print(f"violation {v}")
        print("verdict: fail")
        return 1
    except TheoremAlarm as exc:
        print(f"alarm: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`huliu ... | head -1`).  Point
        # stdout at devnull, so the flush at exit cannot fail again, and
        # exit 1, as Python does on a broken pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
