"""Per-layer tracing by wrapping attrfuse's public functions from outside.

Each wrapped function counts its calls and measures its self time (its
duration minus the time spent in wrapped functions it called). Counters are
aggregated in memory; full spans, tagged with the id of the operation that
caused them, are kept only for a bounded sample and written out at the end.
Nothing under ``src/`` is modified: wrappers replace the function objects in
every ``attrfuse`` module namespace that binds them, and are removed again by
``uninstall``.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (module, function) pairs, grouped by layer. ``experiments`` entries are the
# harness loops, so their self time is harness-loop overhead.
TRACED = {
    "catalog": ("compute_stats", "load_catalog"),
    "classifier": ("calibrate_bin", "classify", "load_models", "save_models"),
    "fusion": ("make_observation", "update", "decide", "init_posterior", "posterior"),
    "simulator": ("derived_rng", "sample_score", "run_episode", "draw_training_sets", "load_scenario"),
    "theory": ("required_predictive_values",),
    "experiments": ("experiment3_attribute_families", "exact_recognition_suite", "convergence_suite"),
    "cli": ("main",),
}
TRACED_NAMES = tuple(f"{module}.{function}" for module, functions in TRACED.items() for function in functions)

# Behaviour ratios: name -> (traced function, predicate on (args, result)).
RATIOS = {
    "fusion.update.adopted_ratio": (
        "fusion.update",
        lambda args, result: len(args) > 1 and getattr(args[1], "outcome", None) in ("positive", "negative"),
    ),
    "classifier.classify.uncertain_ratio": ("classifier.classify", lambda args, result: result == "uncertain"),
    "fusion.decide.random_tie_ratio": (
        "fusion.decide",
        lambda args, result: getattr(result, "tie_broken_by", None) == "random",
    ),
    "classifier.calibrate_bin.reliable_ratio": (
        "classifier.calibrate_bin",
        lambda args, result: bool(getattr(result, "reliable", False)),
    ),
}

MAX_SPANS = 20000


class Tracer:
    """Call counters, self-time totals and a bounded span sample for the wrapped functions."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.calls = dict.fromkeys(TRACED_NAMES, 0)
        self.self_s = dict.fromkeys(TRACED_NAMES, 0.0)
        self.ratio_hits = dict.fromkeys(RATIOS, 0)
        self.ratio_base = dict.fromkeys(RATIOS, 0)
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_span = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        ratios = [(r, pred) for r, (target, pred) in RATIOS.items() if target == name]
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_span
            self._next_span += 1
            parent = stack[-1][2] if stack else None
            frame = [0.0, 0.0, span_id]  # [start, child time, span id]
            stack.append(frame)
            frame[0] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < MAX_SPANS:
                    spans.append((self.op_id, span_id, parent, name, start, end))
            for ratio, pred in ratios:
                self.ratio_base[ratio] += 1
                self.ratio_hits[ratio] += bool(pred(args, result))
            return result

        return wrapper

    def install(self) -> None:
        """Replace every traced function in every loaded attrfuse module that binds it."""
        modules = [
            module
            for key, module in list(sys.modules.items())
            if module is not None and (key == "attrfuse" or key.startswith("attrfuse."))
        ]
        for name in TRACED_NAMES:
            module_name, function = name.split(".")
            home = sys.modules.get(f"attrfuse.{module_name}")
            original = getattr(home, function, None)
            if original is None or not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def snapshot(self) -> tuple[dict, dict, dict]:
        return dict(self.calls), dict(self.ratio_hits), dict(self.ratio_base)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][4] if self.spans else 0.0
        with path.open("w") as out:
            for op_id, span_id, parent, name, start, end in self.spans:
                record = {
                    "op": op_id,
                    "span": span_id,
                    "parent": parent,
                    "name": name,
                    "start_us": round((start - t0) * 1e6, 3),
                    "end_us": round((end - t0) * 1e6, 3),
                }
                out.write(json.dumps(record) + "\n")
