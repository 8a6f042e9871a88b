"""Per-layer tracing from outside the program.

`Tracer.install()` wraps every public function of each huliu module (the
layers) and rebinds every name under which another huliu module imported
it, so calls between layers pass through the wrappers too.  Each call is
timed; its self time is its duration minus the time of the wrapped calls
it made.  Calls are recorded as spans (id, parent id, task id, name, start,
end) kept in memory and written out by `write_spans`; the hot leaf
functions in HOT are only counted and timed in aggregate.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from pathlib import Path
from time import perf_counter

LAYERS = (
    "kernel",
    "lcrng",
    "ideals",
    "integrality",
    "lyingover",
    "hlring",
    "constructions",
    "files",
    "cli",
)

# Called thousands of times per task: counted and timed, not spanned.
HOT = frozenset(
    {
        "kernel.subgroup_closure",
        "kernel.subset_key",
        "kernel.format_subset",
        "kernel.element_orders",
        "kernel.generating_sequence",
        "kernel.freeze_table",
        "ideals.ideal_violation",
        "ideals.prime_violation",
        "ideals.is_huliu_prime",
        "ideals.as_graded_ideal",
        "ideals.ideal_components",
        "ideals.subrng_violation",
        "ideals.is_subrng",
        "integrality.integral_witness",
        "integrality.witness_holds",
        "integrality.component_ring",
        "integrality.component_subrings",
        "lcrng.induced_product",
        "lcrng.left_identities",
        "constructions.lcrng_isomorphic",
    }
)


class Tracer:
    def __init__(self) -> None:
        self.modules = {layer: importlib.import_module(f"huliu.{layer}") for layer in LAYERS}
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total s, self s]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # frames: [child seconds, span id, name]
        self.next_id = 0
        self.task_id = 0
        self._bindings: list[tuple[types.ModuleType, str, object]] = []

    # ------------------------------------------------------------ wiring

    def install(self) -> None:
        originals = {}
        for layer, module in self.modules.items():
            for name, fn in vars(module).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and not name.startswith("_")
                    and fn.__module__ == module.__name__
                ):
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "huliu" and not modname.startswith("huliu."):
                continue
            for name, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, name, value))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, value in self._bindings:
            setattr(module, name, value)
        self._bindings.clear()

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        spans = self.spans
        spanned = name not in HOT
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            tracer.next_id += 1
            frame = [0.0, tracer.next_id, name]
            stack.append(frame)
            result = error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if spanned:
                    spans.append((frame[1], parent[1], tracer.task_id, name, t0, t1))
                if observe is not None:
                    observe(tracer.counters, result, error, parent[2])

        return wrapper

    # ------------------------------------------------------------ tasks

    def begin_task(self) -> None:
        self.task_id += 1
        self.next_id += 1
        self.stack.append([0.0, self.next_id, "task"])

    def end_task(self) -> None:
        self.stack.clear()

    def exclude(self, seconds: float) -> None:
        """Keep time the benchmark itself spent inside a call out of that
        call's self time."""
        if self.stack:
            self.stack[-1][0] += seconds

    # ------------------------------------------------------------ output

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, parent_id, task_id, name, t0, t1 in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "parent": parent_id, "task": task_id, "name": name, "start": t0, "end": t1}
                    )
                    + "\n"
                )

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per round: (value, unit)."""

        def calls(name: str) -> float:
            return _per_round(self.stats.get(name, [0, 0.0, 0.0])[0], rounds)

        def count(key: str) -> float:
            return _per_round(self.counters.get(key, 0), rounds)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        self_s = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, own) in self.stats.items():
            self_s[name.split(".", 1)[0]] += own
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            if layer != "constructions":
                out[f"{layer}.self_s"] = (self_s[layer] / rounds, "s")
        c = self.counters
        out.update(
            {
                "kernel.enumerate_subgroups.calls": (calls("kernel.enumerate_subgroups"), "count"),
                "kernel.subgroup_closure.calls": (calls("kernel.subgroup_closure"), "count"),
                "kernel.closure_yield": (
                    ratio(c.get("subgroups_returned", 0), self.stats.get("kernel.subgroup_closure", [0])[0]),
                    "ratio",
                ),
                "ideals.enumerate_ideals.calls": (calls("ideals.enumerate_ideals"), "count"),
                "ideals.spectrum.calls": (calls("ideals.spectrum"), "count"),
                "ideals.ideal_yield": (
                    ratio(c.get("ideals_returned", 0), c.get("subgroups_tested", 0)),
                    "ratio",
                ),
                "lyingover.t_set.calls": (calls("lyingover.t_set"), "count"),
                "lyingover.primes_checked": (count("primes_checked"), "count"),
                "lcrng.lcrng_violations.calls": (calls("lcrng.lcrng_violations"), "count"),
                "lcrng.violations_found": (count("violations_found"), "count"),
                "hlring.hlring_violations.calls": (calls("hlring.hlring_violations"), "count"),
                "integrality.component_ring.calls": (calls("integrality.component_ring"), "count"),
                "integrality.integral_witness.calls": (calls("integrality.integral_witness"), "count"),
                "constructions.search_self_s": (
                    self.stats.get("constructions.enumerate_lcrngs", [0, 0.0, 0.0])[2] / rounds,
                    "s",
                ),
                "constructions.lcrng_isomorphic.calls": (calls("constructions.lcrng_isomorphic"), "count"),
                "constructions.lcrng_isomorphic_s": (
                    self.stats.get("constructions.lcrng_isomorphic", [0, 0.0, 0.0])[1] / rounds,
                    "s",
                ),
                "constructions.candidates_validated": (count("candidates_validated"), "count"),
                "constructions.dedup_yield": (
                    ratio(c.get("iso_classes", 0), c.get("candidates_validated", 0)),
                    "ratio",
                ),
                "files.parse_structure.calls": (calls("files.parse_structure"), "count"),
                "files.input_errors": (count("input_errors"), "count"),
            }
        )
        return out


def _per_round(total: float, rounds: int) -> float:
    """Counts repeat exactly from round to round, so this is a whole number
    unless something made the rounds differ."""
    return total // rounds if total % rounds == 0 else total / rounds


def _bump(counters: dict[str, int], key: str, by: int = 1) -> None:
    counters[key] = counters.get(key, 0) + by


def _subgroups(counters, result, error, parent):
    if error is None:
        _bump(counters, "subgroups_returned", len(result))
        if parent == "ideals.enumerate_ideals":
            _bump(counters, "subgroups_tested", len(result))


def _ideals(counters, result, error, parent):
    if error is None:
        _bump(counters, "ideals_returned", len(result))


def _lying_over(counters, result, error, parent):
    if error is None:
        _bump(counters, "primes_checked", len(result.rows))


def _violations(counters, result, error, parent):
    if error is None:
        _bump(counters, "violations_found", len(result))


def _validated(counters, result, error, parent):
    if parent == "constructions.enumerate_lcrngs":
        _bump(counters, "candidates_validated")


def _census(counters, result, error, parent):
    if error is None:
        _bump(counters, "iso_classes", len(result))


def _parsed(counters, result, error, parent):
    if error is not None and type(error).__name__ == "InputError":
        _bump(counters, "input_errors")


OBSERVERS = {
    "kernel.enumerate_subgroups": _subgroups,
    "ideals.enumerate_ideals": _ideals,
    "lyingover.verify_lying_over_all": _lying_over,
    "lcrng.lcrng_violations": _violations,
    "lcrng.validate_lcrng": _validated,
    "constructions.enumerate_lcrngs": _census,
    "files.parse_structure": _parsed,
}
