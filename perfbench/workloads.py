"""The four workloads: task lists and the reference answer for every task.

A task is one `huliu` subcommand on one input file.  A round is a
workload's whole stated task list.  Every task reads a document of its own,
relabeled for that task alone (see `Builder`), so no two tasks of a run
read identical tables.  Reference answers never come
from the code under test:

- hand-derived facts: census iso-class counts from the splitting
  R = R0 ⊕ R1 (triples (A, B, φ)), |Spec| = |Spec A| + |Spec B| for the
  null family, integral degrees over the whole carrier, the bridge tables;
- the brute-force oracles of `tests/oracles.py` for orders up to 12;
- otherwise outputs recorded from the seed program on unrelabeled inputs
  (`expected.json`, written by `record.py`), mapped through the relabeling;
- every witness a rejected document reports is re-derived from its tables.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from structures import (
    NullSpec,
    bridge_document,
    digits,
    dumps,
    index,
    null_document,
    random_relabeling,
    relabel,
)

WORKLOADS = ("lattice", "laws", "reject", "census")
# Each group appears once per run: a census input cannot be relabeled, and
# a repeat would hand an in-process cache a gain no CLI user sees.  A traced
# run's second, untraced round only measures what tracing costs.
SINGLE_ROUND = frozenset({"census"})
SENTINEL = -1


@dataclass
class Result:
    code: int
    out: str
    err: str


@dataclass
class Task:
    """argv runs through `huliu.cli.run`; `check` lists what is wrong.

    `key` names the expected.json entry the check reads (None if the
    reference is derived by hand); `record` turns the seed program's result
    on the unrelabeled input into that entry.
    """

    label: str
    argv: list[str]
    check: Callable[[Result, Any], list[str]]
    key: str | None = None
    record: Callable[[Result], Any] | None = None


# ---------------------------------------------------------------- helpers


def subset_key(subset) -> tuple[int, tuple[int, ...]]:
    return (len(subset), tuple(sorted(subset)))


def fmt(subset) -> str:
    return ",".join(str(i) for i in sorted(subset))


def parse_set(text: str) -> frozenset[int]:
    return frozenset(int(p) for p in text.split(",") if p != "")


def rows(text: str) -> list[str]:
    return text.splitlines()


def output_rows(result: Result) -> list[str]:
    return rows(result.out)


def load_oracles(root: Path):
    """tests/oracles.py, the brute-force checks the test suite trusts."""
    spec = importlib.util.spec_from_file_location("huliu_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Tables:
    """The attributes the oracles read, built from a document."""

    def __init__(self, doc: dict):
        n = doc["order"]
        self.order = n
        self.add = doc["add"]
        self.mul = doc["mul"]
        self.local_mul = [[SENTINEL if v is None else v for v in row] for row in doc["local_mul"]]
        self.left_identity = doc["left_identity"]
        self.group = self
        e = self.left_identity
        self.halo = frozenset(x for x in range(n) if self.mul[x][e] == 0)
        self.r0 = frozenset(self.mul[x][e] for x in range(n))

    def plus(self, a: int, b: int) -> int:
        return self.add[a][b]


def _digest(value) -> bytes:
    return hashlib.blake2b(json.dumps(value, sort_keys=True).encode(), digest_size=16).digest()


def restrict(doc: dict, subset) -> tuple[dict, list[int]]:
    """The sub-structure on a subset, re-indexed in ascending order."""
    members = sorted(subset)
    index = {a: i for i, a in enumerate(members)}

    def table(t):
        return [[None if t[a][b] is None else index[t[a][b]] for b in members] for a in members]

    loc = [
        [doc["local_mul"][a][b] for b in members] for a in members
    ]
    sub = {
        "order": len(members),
        "add": table(doc["add"]),
        "mul": table(doc["mul"]),
        "local_mul": [[None if v is None else index[v] for v in row] for row in loc],
        "left_identity": index[doc["left_identity"]],
    }
    return sub, members


def is_strict_subrng(doc: dict, subset) -> bool:
    """Contains 0 and e, closed under + and ·, halo part #-closed and unital."""
    s = frozenset(subset)
    t = Tables(doc)
    if 0 not in s or t.left_identity not in s:
        return False
    if any(t.add[a][b] not in s or t.mul[a][b] not in s for a in s for b in s):
        return False
    h = s & t.halo
    if any(t.local_mul[a][b] not in s for a in h for b in h):
        return False
    local_one = next(c for c in sorted(t.halo) if all(t.local_mul[c][a] == a for a in t.halo))
    return local_one in s


def strict_subrngs(doc: dict) -> list[frozenset[int]]:
    """Every strict subrng, found by closing generator sets (no huliu call)."""
    t = Tables(doc)
    n = t.order

    def closure(seed):
        members = {0, *seed}
        frontier = list(members)
        while frontier:
            x = frontier.pop()
            for y in list(members):
                for z in (t.add[x][y], t.add[y][x], t.mul[x][y], t.mul[y][x]):
                    if z not in members:
                        members.add(z)
                        frontier.append(z)
        return frozenset(members)

    start = closure({t.left_identity})
    seen, frontier = {start}, [start]
    while frontier:
        base = frontier.pop()
        for x in range(n):
            if x not in base:
                bigger = closure(base | {x})
                if bigger not in seen:
                    seen.add(bigger)
                    frontier.append(bigger)
    return sorted((s for s in seen if is_strict_subrng(doc, s)), key=subset_key)


# ------------------------------------------------- output relabeling maps


def map_set(text: str, sigma) -> frozenset[int]:
    return frozenset(sigma[i] for i in parse_set(text))


def map_set_list(text: str, sigma) -> str:
    if text == "":
        return ""
    sets = [map_set(part, sigma) for part in text.split("|")]
    return "|".join(fmt(s) for s in sorted(sets, key=subset_key))


def map_ideal_rows(recorded: list[str], sigma) -> list[str]:
    """`carrier;prime;i0|i1` rows, relabeled and put back in canonical order."""
    out = []
    for row in recorded:
        carrier, prime, parts = row.split(";")
        i0, i1 = parts.split("|")
        c = map_set(carrier, sigma)
        out.append((subset_key(c), f"{fmt(c)};{prime};{fmt(map_set(i0, sigma))}|{fmt(map_set(i1, sigma))}"))
    return [r for _, r in sorted(out)]


def map_lying_over_rows(recorded: list[str], sigma) -> list[str]:
    """`p;witnesses;maximal;ok` rows, relabeled and canonically ordered."""
    out = []
    for row in recorded:
        p, witnesses, maximal, ok = row.split(";")
        mp = map_set(p, sigma)
        text = f"{fmt(mp)};{map_set_list(witnesses, sigma)};{map_set_list(maximal, sigma)};{ok}"
        out.append((subset_key(mp), text))
    return [r for _, r in sorted(out)]


# ---------------------------------------------------- brute-force answers


def brute_lattice_rows(oracles, doc: dict) -> tuple[list[str], list[str]]:
    """(ideals rows, spectrum rows) straight from the definitions."""
    t = Tables(doc)
    out_ideals, out_primes = [], []
    for s in oracles.brute_subgroups(t):
        if not oracles.brute_is_ideal(t, s):
            continue
        prime = oracles.brute_is_prime(t, s)
        row = f"{fmt(s)};{'yes' if prime else 'no'};{fmt(s & t.r0)}|{fmt(s & t.halo)}"
        out_ideals.append(row)
        if prime:
            out_primes.append(row)
    return out_ideals, out_primes


def brute_lying_over_rows(oracles, doc: dict, subset) -> list[str]:
    """The lying-over report recomputed from brute-force ideal lists."""
    t = Tables(doc)
    ideals = [s for s in oracles.brute_subgroups(t) if oracles.brute_is_ideal(t, s)]
    primes = [s for s in ideals if oracles.brute_is_prime(t, s)]
    sub_doc, members = restrict(doc, subset)
    st = Tables(sub_doc)
    sub_primes = [
        frozenset(members[i] for i in s)
        for s in oracles.brute_subgroups(st)
        if oracles.brute_is_ideal(st, s) and oracles.brute_is_prime(st, s)
    ]
    s_set = frozenset(subset)
    out = []
    for p in sorted(sub_primes, key=subset_key):
        witnesses = [q for q in primes if q & s_set == p]
        t_set = [j for j in ideals if (j & s_set) <= p]
        maximal = [j for j in t_set if not any(j < k for k in t_set)]
        ok = bool(witnesses) and all(m & s_set == p for m in maximal) and all(
            m in primes for m in maximal
        )
        out.append(
            f"{fmt(p)};{'|'.join(fmt(q) for q in witnesses)};"
            f"{'|'.join(fmt(m) for m in maximal)};{'yes' if ok else 'no'}"
        )
    return out


# ---------------------------------------------------- witness re-derivation


def hl_violation_is_genuine(oracles, doc: dict, code: str, witness: tuple[int, ...]) -> bool:
    """Re-derive a reported Hu-Liu ring axiom failure from the tables."""
    add, b, ra, la, s = doc["add"], doc["bullet"], doc["rarrow"], doc["larrow"], doc["identity"]
    n = doc["order"]
    laws3 = {
        "bullet-left-distributive": lambda x, y, z: b[x][add[y][z]] == add[b[x][y]][b[x][z]],
        "bullet-right-distributive": lambda x, y, z: b[add[x][y]][z] == add[b[x][z]][b[y][z]],
        "bullet-not-associative": lambda x, y, z: b[b[x][y]][z] == b[x][b[y][z]],
        "strong-law-bullet-link": lambda x, y, z: b[ra[x][y]][z] == b[x][la[y][z]],
        "strong-law-rarrow": lambda x, y, z: ra[x][b[y][z]] == ra[ra[x][y]][z],
        "strong-law-larrow": lambda x, y, z: la[b[x][y]][z] == la[la[x][y]][z],
        "rarrow-left-distributive": lambda x, y, z: ra[x][add[y][z]] == add[ra[x][y]][ra[x][z]],
        "rarrow-right-distributive": lambda x, y, z: ra[add[x][y]][z] == add[ra[x][z]][ra[y][z]],
        "larrow-left-distributive": lambda x, y, z: la[x][add[y][z]] == add[la[x][y]][la[x][z]],
        "larrow-right-distributive": lambda x, y, z: la[add[x][y]][z] == add[la[x][z]][la[y][z]],
        "rarrow-not-associative": lambda x, y, z: ra[ra[x][y]][z] == ra[x][ra[y][z]],
        "larrow-not-associative": lambda x, y, z: la[la[x][y]][z] == la[x][la[y][z]],
    }
    if any(not (0 <= w < n) for w in witness):
        return False
    if code in laws3:
        return len(witness) == 3 and not laws3[code](*witness)
    if code == "bullet-identity-fails":
        (x,) = witness
        return b[s][x] != x or b[x][s] != x
    if code == "product-decomposition":
        x, y = witness
        neg = [row.index(0) for row in add]
        return b[x][y] != add[ra[x][y]][add[la[x][y]][neg[ra[la[x][s]][y]]]]
    # The group axioms read the addition table only.
    group_only = {"order": n, "add": add, "mul": add, "local_mul": add, "left_identity": 0}
    return oracles.violation_is_genuine(Tables(group_only), _Violation(code, witness))


@dataclass
class _Violation:
    code: str
    witness: tuple[int, ...]


def parse_axiom_rows(text: str) -> dict[str, tuple[str, tuple[int, ...]]]:
    """`code;ok;` / `code;fail;w1,w2` rows of verify and hl-verify."""
    out = {}
    for row in rows(text):
        parts = row.split(";")
        if len(parts) == 3 and parts[1] in ("ok", "fail"):
            out[parts[0]] = (parts[1], tuple(int(w) for w in parts[2].split(",") if w != ""))
    return out


VIOLATION_LINE = re.compile(r"^violation (\S+) at \(([^)]*)\): ")


def parse_violation_lines(text: str) -> list[tuple[str, tuple[int, ...]]]:
    out = []
    for line in rows(text):
        m = VIOLATION_LINE.match(line)
        if m:
            out.append((m.group(1), tuple(int(w) for w in m.group(2).split(",") if w.strip())))
    return out


# ------------------------------------------------------------ check makers


def expect_code(result: Result, code: int) -> list[str]:
    return [] if result.code == code else [f"exit {result.code}, expected {code}"]


def check_rows(result: Result, expected: list[str]) -> list[str]:
    problems = expect_code(result, 0)
    if rows(result.out) != expected:
        problems.append("output differs from the reference")
    return problems


def check_input_error(codes: tuple[str, ...]):
    """Exit 2, nothing on stdout, and `error: <code>:` on stderr."""

    def check(result: Result, _recorded) -> list[str]:
        problems = expect_code(result, 2)
        if result.out:
            problems.append("stdout not empty on an input error")
        if not any(result.err.startswith(f"error: {c}:") for c in codes):
            problems.append(f"stderr {result.err[:80]!r} names none of {codes}")
        return problems

    return check


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Scale:
    """The inputs of one round of each workload."""

    lattice: tuple[NullSpec, ...]
    laws: tuple[NullSpec, ...]
    reject_lcrng: tuple[NullSpec, ...]
    reject_hlring: tuple[NullSpec, ...]
    census: tuple[str, ...]


class Builder:
    """Relabels documents and writes them into the run's input directory.

    One builder serves a whole run.  Every task gets a document of its own:
    no two documents of a run are identical, and none repeats an addition
    table an earlier one had, unless the group has too few relabelings left
    for that (Z2³ has only 30 addition tables that fix 0).
    """

    DRAWS = 64

    def __init__(self, workdir: Path, rng: random.Random, identity: bool = False):
        self.workdir = workdir
        self.rng = rng
        self.identity = identity
        self.count = 0
        self.documents: set[bytes] = set()
        self.groups: set[bytes] = set()

    def relabel(self, doc: dict) -> tuple[dict, list[int]]:
        """`doc` under a fresh relabeling σ, and σ."""
        n = doc["order"]
        if self.identity:
            return doc, list(range(n))
        for draw in range(2 * self.DRAWS):
            sigma = random_relabeling(self.rng, n)
            new = relabel(doc, sigma)
            whole, group = _digest(new), _digest(new["add"])
            if whole not in self.documents and (group not in self.groups or draw >= self.DRAWS):
                self.documents.add(whole)
                self.groups.add(group)
                return new, sigma
        raise RuntimeError(f"no unused relabeling of {doc['kind']} order {n} left in this run")

    def write(self, text: str) -> str:
        self.count += 1
        path = self.workdir / f"in{self.count:04d}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)


LATTICE_HEAVY = (
    NullSpec((8,), (8,), (0,)),
    NullSpec((2, 2, 2), (2, 2), (0, 1)),
)
LATTICE_SMALL = (
    NullSpec((2, 2), (2,), (0,)),
    NullSpec((4,), (2,), (0,)),
    NullSpec((6,), (2,), (0,)),
)
# Order 16 on the group Z2^4, the largest lattice at that order (67 subgroups).
LATTICE_LIGHT = (
    NullSpec((2, 2, 2), (2,), (0,)),
    NullSpec((2, 2), (2, 2), (0, 0)),
    NullSpec((2, 2), (2, 2), (0, 1)),
)
BRUTE_MAX_ORDER = 12


@functools.cache
def lattice_reference(oracles, spec: NullSpec):
    """(strict subrngs, brute-force rows or None) in the unrelabeled labels.

    The rows are {"ideals": …, "spectrum": …, subset: lying-over rows} for
    orders up to BRUTE_MAX_ORDER; each task maps them through its own
    relabeling."""
    base = null_document(spec)
    subsets = strict_subrngs(base)
    if spec.order > BRUTE_MAX_ORDER:
        return subsets, None
    ideal_rows, prime_rows = brute_lattice_rows(oracles, base)
    brute = {"ideals": ideal_rows, "spectrum": prime_rows}
    brute.update((s, brute_lying_over_rows(oracles, base, s)) for s in subsets)
    return subsets, brute


def lattice_round(b: Builder, oracles, scale: Scale) -> list[Task]:
    """ideals, spectrum and lying-over on every strict subrng, each task on
    its own relabeling of the structure."""
    out: list[Task] = []
    for spec in scale.lattice:
        base = null_document(spec)
        subsets, brute = lattice_reference(oracles, spec)
        for command in ("ideals", "spectrum"):
            doc, sigma = b.relabel(base)
            label, argv = f"{spec.name} {command}", [command, b.write(dumps(doc)), "--format", "csv"]
            count = spec.spectrum_size() if command == "spectrum" else None
            if brute:
                out.append(Task(label, argv, _fixed_rows(map_ideal_rows(brute[command], sigma), count)))
            else:
                check = _mapped_rows(map_ideal_rows, sigma, count)
                out.append(Task(label, argv, check, key=label, record=output_rows))
        for subset in subsets:
            doc, sigma = b.relabel(base)
            mapped = frozenset(sigma[a] for a in subset)
            argv = ["lying-over", b.write(dumps(doc)), "--subset", fmt(mapped), "--format", "csv"]
            label = f"{spec.name} lying-over {fmt(subset)}"
            if brute:
                out.append(Task(label, argv, _fixed_rows(map_lying_over_rows(brute[subset], sigma))))
            else:
                check = _mapped_rows(map_lying_over_rows, sigma)
                out.append(Task(label, argv, check, key=label, record=output_rows))
    return out


def _fixed_rows(want: list[str], count: int | None = None):
    def check(result: Result, _recorded) -> list[str]:
        problems = check_rows(result, want)
        if count is not None and len(want) != count:
            problems.append(f"reference has {len(want)} primes, theory says {count}")
        return problems

    return check


def _mapped_rows(mapper, sigma, count: int | None = None):
    """Compare with the seed's rows mapped through the relabeling; lying-over
    rows must also all read ok, because the theorem says they do."""

    def check(result: Result, recorded) -> list[str]:
        problems = check_rows(result, mapper(recorded, sigma))
        if count is not None and len(rows(result.out)) != count:
            problems.append(f"{len(rows(result.out))} primes, expected |Spec A| + |Spec B| = {count}")
        if mapper is map_lying_over_rows and not all(r.endswith(";yes") for r in rows(result.out)):
            problems.append("a lying-over row is not ok")
        return problems

    return check


LAWS_HEAVY = (
    NullSpec((8,), (8,), (0,)),
    NullSpec((32,), (2,), (0,)),
    NullSpec((16,), (4,), (0,)),
)
LAWS_LIGHT = (
    NullSpec((4,), (2,), (0,)),
    NullSpec((6,), (2,), (0,)),
    NullSpec((4,), (4,), (0,)),
    NullSpec((8,), (2,), (0,)),
    NullSpec((6,), (3,), (0,)),
    NullSpec((9,), (3,), (0,)),
    NullSpec((16,), (2,), (0,)),
    NullSpec((8,), (4,), (0,)),
)


def laws_round(b: Builder, oracles, scale: Scale) -> list[Task]:
    """verify, integral, bridge and hl-verify on valid structures: every law
    holds, so every scan runs to its end.  Each task reads its own
    relabeling; hl-verify reads the bridge of another one, which is what
    `bridge` prints for that relabeling."""
    out: list[Task] = []
    for spec in scale.laws:
        base = null_document(spec)

        def path() -> str:
            return b.write(dumps(b.relabel(base)[0]))

        n = spec.order
        out.append(
            Task(
                f"{spec.name} verify",
                ["verify", path(), "--format", "csv"],
                _all_ok,
                key=f"{spec.name} verify",
                record=output_rows,
            )
        )
        out.append(
            Task(
                f"{spec.name} integral",
                ["integral", path(), "--format", "csv"],
                _fixed_rows([f"{u};1;1" for u in range(n)]),
            )
        )
        doc = b.relabel(base)[0]
        argv = ["bridge", b.write(dumps(doc)), "--format", "csv"]
        out.append(Task(f"{spec.name} bridge", argv, _same_document(bridge_document(doc))))
        out.append(
            Task(
                f"{spec.name} hl-verify",
                ["hl-verify", b.write(dumps(bridge_document(b.relabel(base)[0]))), "--format", "csv"],
                _all_ok,
                key=f"{spec.name} hl-verify",
                record=output_rows,
            )
        )
    return out


def _all_ok(result: Result, recorded) -> list[str]:
    """Exit 0, the seed's rows, and every axiom row ok (the structure is
    valid by construction, and the bridge of a valid structure is valid)."""
    problems = check_rows(result, recorded)
    if any(status != "ok" for status, _ in parse_axiom_rows(result.out).values()):
        problems.append("an axiom failed on a valid structure")
    return problems


def _same_document(want: dict):
    def check(result: Result, _recorded) -> list[str]:
        problems = expect_code(result, 0)
        try:
            got = json.loads(result.out)
        except json.JSONDecodeError:
            return problems + ["bridge output is not JSON"]
        if got != want:
            problems.append("bridge tables differ from the reference")
        return problems

    return check


REJECT_LCRNG = (
    NullSpec((2, 2), (2, 2), (0, 1)),
    NullSpec((4,), (4,), (0,)),
    NullSpec((8,), (4,), (0,)),
    NullSpec((2, 4), (2, 2), (0, 1)),
    NullSpec((8,), (8,), (0,)),
)
REJECT_HLRING = (
    NullSpec((2, 2), (2, 2), (0, 1)),
    NullSpec((4,), (4,), (0,)),
    NullSpec((8,), (2,), (0,)),
    NullSpec((8,), (4,), (0,)),
)
# (table, row, column, shift): entry += shift (mod n), in base labels.
LCRNG_MUTATIONS = (
    ("mul", 1, 1, 1),
    ("mul", 2, 3, 1),
    ("mul", -1, -2, 1),
    ("local_mul", "h", "h", 1),
    ("add", 3, 2, 1),
    ("mul", "e", -1, 1),
)
HLRING_MUTATIONS = (
    ("bullet", 2, 3, 1),
    ("rarrow", -1, 1, 1),
    ("larrow", 1, -1, 1),
)


def mutate(doc: dict, table: str, i, j, shift: int) -> tuple[dict, str]:
    """One entry of one table changed; symbolic positions pick a halo
    element ("h"), the left identity ("e") or count from the end."""
    n = doc["order"]
    halo = sorted(x for x in range(n) if doc["mul"][x][doc["left_identity"]] == 0) if "mul" in doc else []

    def pos(p):
        if p == "h":
            return halo[-1]
        if p == "e":
            return doc["left_identity"]
        return p % n

    r, c = pos(i), pos(j)
    rows_ = [list(row) for row in doc[table]]
    old = rows_[r][c]
    if table == "local_mul":
        rows_[r][c] = halo[(halo.index(old) + shift) % len(halo)]
    else:
        rows_[r][c] = (old + shift) % n
    out = dict(doc)
    out[table] = rows_
    return out, f"{table}[{r}][{c}]"


def reject_round(b: Builder, oracles, scale: Scale) -> list[Task]:
    """Documents and arguments that must be refused, each task on its own
    relabeling."""
    out: list[Task] = []
    for spec in scale.reject_lcrng:
        base = null_document(spec)
        for mutation in LCRNG_MUTATIONS:
            bad, where = mutate(base, *mutation)
            for command, found_in in (("verify", failed_rows), ("lying-over", parse_violation_lines)):
                doc = b.relabel(bad)[0]
                raw = Tables(doc)

                def genuine(code, witness, raw=raw):
                    return oracles.violation_is_genuine(raw, _Violation(code, witness))

                label = f"{spec.name} {where} {command}"
                check = _genuine(found_in, genuine)
                argv = [command, b.write(dumps(doc)), "--format", "csv"]
                out.append(Task(label, argv, check, key=label, record=_failed_codes(found_in)))
        for name in ("halo", "r0", "e", "halo+e"):
            doc = b.relabel(base)[0]
            t = Tables(doc)
            subset = {
                "halo": t.halo,
                "r0": t.r0,
                "e": {0, t.left_identity},
                "halo+e": t.halo | {t.left_identity},
            }[name]
            if is_strict_subrng(doc, subset):
                raise AssertionError(f"{name} of {spec.name} is a strict subrng")
            out.append(
                Task(
                    f"{spec.name} lying-over --subset {name}",
                    ["lying-over", b.write(dumps(doc)), "--subset", fmt(subset), "--format", "csv"],
                    check_input_error(("not-a-subrng",)),
                )
            )
        for command in ("verify", "lying-over"):
            for name, broken, codes in _broken_documents(b, base):
                out.append(
                    Task(f"{spec.name} {name} {command}", [command, b.write(broken), "--format", "csv"], check_input_error(codes))
                )
    for spec in scale.reject_hlring:
        base = bridge_document(null_document(spec))
        for mutation in HLRING_MUTATIONS:
            bad, where = mutate(base, *mutation)
            doc = b.relabel(bad)[0]
            label = f"hl({spec.name}) {where} hl-verify"

            def genuine(code, witness, doc=doc):
                return hl_violation_is_genuine(oracles, doc, code, witness)

            check = _genuine(failed_rows, genuine)
            argv = ["hl-verify", b.write(dumps(doc)), "--format", "csv"]
            out.append(Task(label, argv, check, key=label, record=_failed_codes(failed_rows)))
        for name, broken, codes in _broken_documents(b, base):
            out.append(
                Task(f"hl({spec.name}) {name} hl-verify", ["hl-verify", b.write(broken), "--format", "csv"], check_input_error(codes))
            )
    return out


def _broken_documents(b: Builder, base: dict):
    """(name, text, accepted error codes) for documents the parser refuses,
    each made from its own relabeling of `base`."""
    n = base["order"]
    table = "mul" if base["kind"] == "lcrng" else "bullet"

    def fresh() -> dict:
        doc = b.relabel(base)[0]
        return dict(doc, **{table: [list(r) for r in doc[table]]})

    short, wide, missing = fresh(), fresh(), fresh()
    short[table][n - 1] = short[table][n - 1][:-1]
    wide[table][n // 2][n // 2] = n
    del missing[table]
    truncated, unknown = dumps(fresh()), dumps(fresh())
    return (
        ("short-row", dumps(short), ("shape-mismatch",)),
        ("out-of-range", dumps(wide), ("shape-mismatch",)),
        ("missing-table", dumps(missing), ("shape-mismatch",)),
        ("truncated", truncated[: len(truncated) * 9 // 10], ("malformed-document",)),
        ("unknown-kind", unknown.replace(f'"{base["kind"]}"', '"rng"', 1), ("unknown-kind",)),
    )


def failed_rows(text: str) -> list[tuple[str, tuple[int, ...]]]:
    """(code, witness) of every failed axiom in verify/hl-verify rows."""
    return [(code, w) for code, (status, w) in parse_axiom_rows(text).items() if status == "fail"]


def _genuine(found_in, is_genuine):
    """Exit 1, the seed's set of failed axioms (a relabeling cannot change
    it), and every reported witness re-derived from the tables."""

    def check(result: Result, recorded) -> list[str]:
        problems = expect_code(result, 1)
        found = found_in(result.out)
        codes = sorted(code for code, _ in found)
        if codes != recorded:
            problems.append(f"failed axioms {codes} differ from {recorded}")
        for code, witness in found:
            if not is_genuine(code, witness):
                problems.append(f"{code} at {witness} is not a genuine failure")
        return problems

    return check


def _failed_codes(found_in):
    return lambda result: sorted(code for code, _ in found_in(result.out))


# Iso classes per group, counted by hand from the splitting R = R0 ⊕ R1:
# classes are triples (A, B, φ) with A ⊕ B the group, A and B unital rings,
# B nonzero and φ: A → B unital.  A ring on a cyclic group is Z_m, and a
# unital Z_a → Z_b needs b | a, so a cyclic group (coprime |A|, |B|) has
# none; Z2xZ2: (Z2,Z2,id); Z2xZ4: (Z4,Z2,mod 2); Z3xZ3: (Z3,Z3,id);
# Z2xZ6: (Z6,Z2,mod 2); Z2xZ8: (Z8,Z2,mod 2); Z4xZ4: (Z4,Z4,id).
# The value is (number of classes, possible halo orders |B|).
CENSUS = {f"zmod:{n}": (0, ()) for n in range(1, 17)}
CENSUS.update(
    {
        "zmod:2x2": (1, (2,)),
        "zmod:2x4": (1, (2,)),
        "zmod:3x3": (1, (3,)),
        "zmod:2x6": (1, (2,)),
        "zmod:2x8": (1, (2,)),
        "zmod:3x5": (0, ()),
        "zmod:4x4": (1, (4,)),
    }
)
# Left out until the census is fixed (seconds at seed, one run, 2 CPUs):
# zmod:2x2x2 105 s; zmod:2x2x3, zmod:2x2x4 and zmod:2x2x2x2 over 150 s.


def group_add(spec: str) -> list[list[int]]:
    """The addition table `zmod:AxB...` denotes, first factor fastest."""
    factors = tuple(int(p) for p in spec.split(":", 1)[1].split("x"))
    n = 1
    for f in factors:
        n *= f
    dig = [digits(x, factors) for x in range(n)]
    return [
        [index([(p + q) % f for p, q, f in zip(dig[x], dig[y], factors)], factors) for y in range(n)]
        for x in range(n)
    ]


def census_round(b: Builder, oracles, scale: Scale) -> list[Task]:
    out: list[Task] = []
    for spec in scale.census:
        count, halo_orders = CENSUS[spec]
        out.append(
            Task(f"enumerate {spec}", ["enumerate", "--group", spec, "--format", "csv"], _census_check(spec, count, halo_orders))
        )
    return out


def _census_check(spec: str, count: int, halo_orders: tuple[int, ...]):
    def check(result: Result, _recorded) -> list[str]:
        problems = expect_code(result, 0)
        lines = rows(result.out)
        if len(lines) != count:
            return problems + [f"{len(lines)} classes, expected {count}"]
        add = group_add(spec)
        for i, line in enumerate(lines):
            index, e, halo_text = line.split(";")
            halo = parse_set(halo_text)
            if int(index) != i:
                problems.append(f"row {i} numbered {index}")
            if 0 not in halo or any(add[a][c] not in halo for a in halo for c in halo):
                problems.append(f"halo {halo_text} is not a subgroup")
            if len(halo) not in halo_orders:
                problems.append(f"halo of order {len(halo)}, expected one of {halo_orders}")
            if int(e) in halo:
                problems.append("left identity inside the halo")
        return problems

    return check


ROUNDS = {
    "lattice": lattice_round,
    "laws": laws_round,
    "reject": reject_round,
    "census": census_round,
}


# Heavy inputs once per round and light ones several times, so that a round
# of lattice, laws or reject has at least 100 tasks and its p90 is measured.
# The copies also keep each percentile inside one cluster of task sizes,
# about three of its estimator's standard deviations (in ranks) from the
# next cluster, where it would jump from run to run.  On lattice the median
# and p90 fall among the order-16 tasks (p90 among lying-over on the whole
# carrier), below the 12 order-32 and order-64 tasks; on laws p90 falls
# among the order-32 integral, bridge and hl-verify tasks, below the 9
# order-64 tasks that take longer.
FULL = Scale(
    lattice=LATTICE_HEAVY + LATTICE_SMALL + LATTICE_LIGHT * 12,
    laws=LAWS_HEAVY + LAWS_LIGHT * 8,
    reject_lcrng=REJECT_LCRNG,
    reject_hlring=REJECT_HLRING,
    census=tuple(CENSUS),
)
TINY = Scale(
    lattice=(NullSpec((2, 2), (2,), (0,)), NullSpec((4,), (2,), (0,)), NullSpec((2, 2), (2, 2), (0, 1))),
    laws=(NullSpec((4,), (2,), (0,)), NullSpec((4,), (4,), (0,))),
    reject_lcrng=(NullSpec((2, 2), (2, 2), (0, 1)),),
    reject_hlring=(NullSpec((4,), (2,), (0,)),),
    census=("zmod:1", "zmod:2", "zmod:4", "zmod:2x2", "zmod:2x4"),
)
