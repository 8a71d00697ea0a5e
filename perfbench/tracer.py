"""Span tracer that wraps the public functions of each `risim` module.

Modules import each other's functions by name (`from .geometry import
distance_grid`), so patching only the defining module would miss most
calls. `Tracer.install` therefore rebinds every alias of a wrapped function
in every loaded `risim*` module, and `Tracer.uninstall` puts the originals
back. The four CLI subcommand callbacks are wrapped on their click commands.

Spans (name, start_ns, end_ns, parent span index, op id) stay in memory;
`write_spans` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

# layer (risim module) -> wrapped public functions
WRAPPED = {
    "config": ("load_config",),
    "geometry": ("element_grid", "distance_grid", "projection_grid"),
    "masks": ("build_codebook", "nearfield_steering_mask", "farfield_steering_mask"),
    "patterns": ("array_factor_far", "pattern_nearfield", "pattern_metrics", "write_pattern_csv"),
    "linkbudget": (
        "received_power",
        "f_combine_grid",
        "geometric_accumulation",
        "required_cascade_mask",
        "phase_error_loss",
    ),
    "localization": ("simulate_sweep", "estimate_angle", "write_sweep_csv"),
    "hardware": ("serialize_mask", "write_frame"),
}
CLI_CALLBACKS = ("cmd_pattern", "cmd_localize", "cmd_linkbudget", "cmd_export_frame")
LAYERS = tuple(WRAPPED) + ("cli",)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns) + tuple(
    f"cli.{cb}" for cb in CLI_CALLBACKS
)

WRITERS = ("patterns.write_pattern_csv", "localization.write_sweep_csv", "hardware.write_frame")


def _cut_terms(args) -> int:
    """T * M * N of one pattern cut: theta samples times elements."""
    return len(args["theta_grid_deg"]) * args["geom"].size


def _sweep_terms(args) -> int:
    """entries * M * N of one codebook sweep."""
    codebook = args["codebook"]
    return len(codebook) * codebook.entries[0].mask.geom.size


# computed operation counts: span name -> (counter name, count from bound arguments)
COMPUTED = {
    "patterns.array_factor_far": ("patterns.cut_terms", _cut_terms),
    "patterns.pattern_nearfield": ("patterns.cut_terms", _cut_terms),
    "localization.simulate_sweep": ("localization.sweep_terms", _sweep_terms),
}


class Tracer:
    """Records one span per call of every wrapped function while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        layer = name.split(".", 1)[0]
        computed = COMPUTED.get(name)
        signature = inspect.signature(fn) if computed else None
        writes = name in WRITERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, self.op)
                if computed:
                    bound = signature.bind(*args, **kwargs).arguments
                    self.counters[computed[0]] += computed[1](bound)
                if writes:
                    path = args[1] if len(args) > 1 else kwargs["path"]
                    if os.path.exists(path):
                        self.counters[f"{name}.bytes"] += os.path.getsize(path)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function and rebind all of its aliases."""
        wrappers = {}
        for mod, names in WRAPPED.items():
            module = importlib.import_module(f"risim.{mod}")
            for fn_name in names:
                original = getattr(module, fn_name)
                wrappers[id(original)] = (original, self._wrap(f"{mod}.{fn_name}", original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "risim" and not mod_name.startswith("risim."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        cli = importlib.import_module("risim.cli")
        for command in cli.main.commands.values():
            original = command.callback
            self._patches.append((command, "callback", original))
            command.callback = self._wrap(f"cli.{original.__name__}", original)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()


def aggregate(spans, first: int, last: int) -> tuple[Counter, Counter]:
    """Per span name: call count and self time (ns) over spans[first:last].

    Self time is the span's duration minus the durations of its direct
    children, which cover disjoint sub-intervals of it.
    """
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for name, start, end, parent, _op in spans[first:last]:
        calls[name] += 1
        self_ns[name] += end - start
        if parent >= first:
            self_ns[spans[parent][0]] -= end - start
    return calls, self_ns


def write_spans(spans, path) -> None:
    """One CSV row per span: index, name, start_ns, end_ns, parent, op."""
    with open(path, "w") as fh:
        fh.write("index,name,start_ns,end_ns,parent,op\n")
        for i, (name, start, end, parent, op) in enumerate(spans):
            fh.write(f"{i},{name},{start},{end},{parent},{'' if op is None else op}\n")
