"""Layer spans for the traced run, recorded from outside the program.

The tracer replaces the public functions of growthlab's modules (the
layers) with wrappers, in every growthlab module namespace that refers to
them, so calls made inside the package go through the wrappers too.  A call
from one layer into another opens a span; a call within the same layer runs
straight through.  ``core`` is the primitive layer called inside every
step, so it gets no spans: its two value types are counted by wrapping
their constructors.

Spans carry a name, start, end, parent and op id.  They are kept in memory
and written out once, at the end.  Self time is a span's duration minus
the time its child spans cover.  The benchmark is one thread running one
op at a time, so no work ever waits for another: every span is busy time,
and no waiting time is reported.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("cli", "config", "core", "dynamics", "equilibrium", "evolution",
          "experiments", "svgchart")

#: core value types whose constructions are counted (metric -> class name).
COUNTED_TYPES = {"core.agent_states": "AgentState", "core.strategies": "Strategy"}

#: Wrapped names each per-layer metric depends on.  When one is gone from
#: the program, the metric is reported as unmeasured instead of as zero.
REQUIRES = {
    "dynamics.calls": ("dynamics",),
    "dynamics.s": ("dynamics",),
    "dynamics.us_per_agent_step": ("dynamics",),
    "core.agent_states": ("core.AgentState",),
    "core.strategies": ("core.Strategy",),
    "core.agent_states_per_agent_step": ("core.AgentState",),
    "evolution.init_s": ("evolution.init_population",),
    "evolution.step_s": ("evolution.evolve_step",),
    "evolution.us_per_agent_step": ("evolution.evolve_step",),
    "evolution.imitations": ("evolution.evolve_step", "evolution.mutate_strategy"),
    "equilibrium.annotate_calls": ("equilibrium.equilibrium_growth",),
    "equilibrium.annotate_s": ("equilibrium.equilibrium_growth",),
    "equilibrium.annotate_distinct_ratio": ("equilibrium.equilibrium_growth",),
    "experiments.self_s": ("experiments",),
    "svgchart.calls": ("svgchart.emit_svg",),
    "svgchart.points": ("svgchart.emit_svg",),
    "svgchart.s": ("svgchart.emit_svg",),
    "config.calls": ("config.config_from_dict",),
    "config.s": ("config.config_from_dict",),
    "cli.self_s": ("cli.cli_main",),
}

_NAME, _LAYER, _START, _END, _PARENT, _OP, _OUTER = range(7)


class Tracer:
    """Wraps growthlab's layers and records spans and counts while active."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start_ns, end_ns, parent, op, outermost]
        self.stack: list[int] = []
        self.depth = {layer: 0 for layer in LAYERS}
        self.counts: dict[str, int] = {}
        self.annotate_keys: set[tuple[bytes, bytes]] = set()
        self.broken: set[str] = set()  # metrics whose probe failed on the program's arguments
        self.present: set[str] = set()  # wrapped "layer" and "layer.name" entries
        self.undo: list[tuple[object, str, object]] = []  # (owner, attribute, original)
        self.op = -1

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        for layer in self.depth:
            self.depth[layer] = 0
        self.counts.clear()
        self.annotate_keys.clear()
        self.broken.clear()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of each layer, and count core types."""
        replaced = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"growthlab.{layer}")
            except ImportError:
                continue
            if layer == "core":
                for metric, cls_name in COUNTED_TYPES.items():
                    cls = getattr(mod, cls_name, None)
                    if inspect.isclass(cls):
                        self._count_constructions(cls, metric)
                        self.present.update(("core", f"core.{cls_name}"))
                continue
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                replaced[fn] = self._wrap(layer, name, fn)
                self.present.update((layer, f"{layer}.{name}"))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "growthlab"
                                   or mod_name.startswith("growthlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    self.undo.append((mod, attr, value))
                    setattr(mod, attr, replaced[value])

    def uninstall(self) -> None:
        """Put the program's own functions and constructors back."""
        while self.undo:
            owner, attr, original = self.undo.pop()
            setattr(owner, attr, original)

    def unmeasured(self, metrics) -> list[str]:
        """Metrics whose wrapped functions are missing or whose probe failed."""
        return sorted(
            m for m in metrics
            if m in self.broken
            or any(need not in self.present for need in REQUIRES.get(m, ()))
        )

    def _count_constructions(self, cls, metric: str) -> None:
        counts = self.counts
        original = cls.__init__

        @functools.wraps(original)
        def __init__(obj, *args, **kwargs):
            counts[metric] = counts.get(metric, 0) + 1
            original(obj, *args, **kwargs)

        self.undo.append((cls, "__init__", original))
        cls.__init__ = __init__

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, depth = self.spans, self.stack, self.depth
        clock = time.perf_counter_ns
        full = f"{layer}.{name}"
        probe = {
            "equilibrium.equilibrium_growth": self._probe_annotation,
            "evolution.mutate_strategy": self._probe_imitation,
            "svgchart.emit_svg": self._probe_svg,
        }.get(full)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if probe is not None:
                probe(parent, args, kwargs)
            if parent >= 0 and spans[parent][_LAYER] == layer:
                return fn(*args, **kwargs)
            span = [full, layer, clock(), 0, parent, self.op, depth[layer] == 0]
            stack.append(len(spans))
            spans.append(span)
            depth[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                depth[layer] -= 1
                stack.pop()

        return wrapper

    # -- probes: counts taken from the arguments at the layer boundary ----

    def _probe_annotation(self, parent, args, kwargs) -> None:
        if parent < 0 or self.spans[parent][_LAYER] != "experiments":
            return
        try:
            strategy = args[0] if args else kwargs["strategy"]
            params = args[2] if len(args) > 2 else kwargs["params"]
            prices = args[3] if len(args) > 3 else kwargs.get("prices")
            if prices is None:
                prices = params.prices
            key = (np.asarray(strategy.weights, dtype=float).tobytes(),
                   np.asarray(prices, dtype=float).tobytes())
        except (IndexError, KeyError, AttributeError, TypeError, ValueError):
            self.broken.add("equilibrium.annotate_distinct_ratio")
            return
        self.annotate_keys.add(key)

    def _probe_imitation(self, parent, args, kwargs) -> None:
        if parent >= 0 and self.spans[parent][_NAME] == "evolution.evolve_step":
            self.counts["evolution.imitations"] = (
                self.counts.get("evolution.imitations", 0) + 1)

    def _probe_svg(self, parent, args, kwargs) -> None:
        try:
            series = args[0] if args else kwargs["series"]
            points = sum(len(pts) for _, pts in series)
        except (IndexError, KeyError, TypeError, ValueError):
            self.broken.add("svgchart.points")
            return
        self.counts["svgchart.points"] = self.counts.get("svgchart.points", 0) + points

    # -- ops and output -------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack.append(len(self.spans))
        self.spans.append(["bench.op", "bench", time.perf_counter_ns(), 0, -1, op, True])

    def end_op(self) -> None:
        self.spans[self.stack.pop()][_END] = time.perf_counter_ns()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[_PARENT]},{s[_OP]},{s[_NAME]},{s[_START]},{s[_END]}\n")

    def summary(self, agent_steps: int, evolve_agent_steps: int) -> tuple[dict, dict]:
        """Per-layer metric values and the exact counts that must repeat.

        ``agent_steps`` and ``evolve_agent_steps`` are the agent-steps the
        workload's inputs ask of ``dynamics`` and of ``evolution``.  A
        per-agent-step ratio with no agent-steps reads 0.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child_ns[s[_PARENT]] += s[_END] - s[_START]
        calls = {layer: 0 for layer in LAYERS}
        inclusive = {layer: 0 for layer in LAYERS}
        self_ns = {layer: 0 for layer in LAYERS}
        by_name: dict[str, int] = {}
        init_ns = step_ns = annotate_ns = annotate_calls = 0
        for i, s in enumerate(spans):
            layer = s[_LAYER]
            if layer == "bench":
                continue
            dur = s[_END] - s[_START]
            calls[layer] += 1
            by_name[s[_NAME]] = by_name.get(s[_NAME], 0) + 1
            self_ns[layer] += dur - child_ns[i]
            if s[_OUTER]:
                inclusive[layer] += dur
            if s[_NAME] == "evolution.init_population":
                init_ns += dur
            elif s[_NAME] == "evolution.evolve_step":
                step_ns += dur
            elif (s[_NAME] == "equilibrium.equilibrium_growth" and s[_PARENT] >= 0
                  and spans[s[_PARENT]][_LAYER] == "experiments"):
                annotate_calls += 1
                annotate_ns += dur

        def per(num, den):
            return num / den if den else 0.0

        c = self.counts
        agent_states = c.get("core.agent_states", 0)
        values = {
            "dynamics.calls": calls["dynamics"],
            "dynamics.s": inclusive["dynamics"] / 1e9,
            "dynamics.agent_steps": agent_steps,
            "dynamics.us_per_agent_step": per(inclusive["dynamics"] / 1e3, agent_steps),
            "core.agent_states": agent_states,
            "core.strategies": c.get("core.strategies", 0),
            "core.agent_states_per_agent_step": per(agent_states, agent_steps),
            "evolution.init_s": init_ns / 1e9,
            "evolution.step_s": step_ns / 1e9,
            "evolution.us_per_agent_step": per(step_ns / 1e3, evolve_agent_steps),
            "evolution.imitations": c.get("evolution.imitations", 0),
            "equilibrium.annotate_calls": annotate_calls,
            "equilibrium.annotate_s": annotate_ns / 1e9,
            "equilibrium.annotate_distinct_ratio": per(len(self.annotate_keys), annotate_calls),
            "experiments.self_s": self_ns["experiments"] / 1e9,
            "svgchart.calls": calls["svgchart"],
            "svgchart.points": c.get("svgchart.points", 0),
            "svgchart.s": inclusive["svgchart"] / 1e9,
            "config.calls": calls["config"],
            "config.s": inclusive["config"] / 1e9,
            "cli.self_s": self_ns["cli"] / 1e9,
        }
        exact = dict(c)
        exact.update({f"spans.{name}": n for name, n in by_name.items()})
        exact["annotate_distinct"] = len(self.annotate_keys)
        return values, exact
