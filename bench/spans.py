"""Per-layer spans recorded from outside the program.

`Tracer.installed()` replaces the layer-boundary functions of clfgsim
(`TRACED`) with timing wrappers and puts the originals back on exit.
The wrappers aggregate as they go, per span name: calls, total time
(``s``) and self time (``self_s``, the span's time minus the time of the
spans it called), plus result counts for a few spans.  Aggregating in
place of storing every span keeps memory flat: one pulse iteration opens
tens of thousands of spans.

Only the functions in `TRACED` are wrapped.  Small helpers that run once
per event or sample (``time_constant``, ``event_csv_row``, ...) are left
alone so the wrappers do not swamp what they measure; their time counts
as self time of the traced function that called them.
"""
from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

# (module, function) pairs; the span is named "<module>.<function>" with
# any leading underscore dropped.  `device._low_pass` is the tank filter
# that `engine.run_generic` calls directly.  Every figure driver in
# `figures.DRIVERS` is traced as well.
TRACED = (
    ("protocol", "apply_write"),
    ("protocol", "decode_frame"),
    ("protocol", "parse_stream"),
    ("fsm", "step"),
    ("fsm", "playback"),
    ("analog", "settle"),
    ("analog", "apply_fg"),
    ("analog", "lock"),
    ("analog", "unlock"),
    ("analog", "set_hold"),
    ("analog", "output_voltage"),
    ("device", "conductance"),
    ("device", "_low_pass"),
    ("device", "envelope_check"),
    ("thermal", "temperature"),
    ("thermal", "pulse_power"),
    ("thermal", "total_power"),
    ("thermal", "feasibility_map"),
    ("engine", "load_scenario"),
    ("engine", "build_scenario"),
    ("engine", "set_axis"),
    ("engine", "apply_overrides"),
    ("engine", "run_scenario"),
    ("engine", "run_generic"),
    ("engine", "sweep"),
    ("engine", "export"),
    ("figures", "run_figure"),
)

MODULES = ("protocol", "fsm", "analog", "device", "thermal", "engine", "figures")

# The table kinds a generic run fills with one row per sample (and cell).
SAMPLE_TABLES = ("cells", "hold", "conductance", "readout", "power", "temperature")

# Counts taken from a span's return value: span name -> {counter: fn}.
RESULT_COUNTS = {
    "fsm.playback": {"fsm.playback.events": lambda result: len(result[1])},
    "engine.run_generic": {
        "engine.run_generic.events": lambda bundle: len(bundle.events),
        "engine.run_generic.samples": lambda bundle: sum(
            len(table.rows) for kind, table in bundle.tables.items() if kind in SAMPLE_TABLES
        ),
    },
}


class Tracer:
    """Aggregated spans: `stats[name] = [calls, s, self_s]`, plus `counts`."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        # Time spent in child spans, one entry per open span; the bottom
        # entry collects spans that run outside any other span.
        self._child_s = [0.0]
        self.patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """Return `fn` wrapped so each call is recorded as a span `name`."""
        record = self.stats.setdefault(name, [0, 0.0, 0.0])
        counters = list(RESULT_COUNTS.get(name, {}).items())
        for counter, _ in counters:
            self.counts.setdefault(counter, 0)
        counts = self.counts
        child_s = self._child_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_s.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = child_s.pop()
                child_s[-1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - inner
            for counter, count in counters:
                counts[counter] += count(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace every function in `TRACED` until the block ends.

        A function is replaced wherever a clfgsim module holds it: as a
        module attribute, including names bound by ``from .x import f``,
        and as a value of a module-level dict such as `figures.DRIVERS`.
        Every replacement is undone on exit, also when the block raises.
        """
        figures = importlib.import_module("clfgsim.figures")  # engine imports it lazily
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("clfgsim")]
        targets = list(TRACED) + [("figures", name) for name in figures.DRIVERS]
        try:
            for module_name, attr in targets:
                original = getattr(sys.modules[f"clfgsim.{module_name}"], attr)
                wrapped = self.span(f"{module_name}.{attr.lstrip('_')}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self.patches.append((module, key, original))
                            setattr(module, key, wrapped)
                        elif type(value) is dict:
                            for dkey, dvalue in value.items():
                                if dvalue is original:
                                    self.patches.append((value, dkey, original))
                                    value[dkey] = wrapped
            yield self
        finally:
            while self.patches:
                holder, key, original = self.patches.pop()
                if type(holder) is dict:
                    holder[key] = original
                else:
                    setattr(holder, key, original)

    def per_iteration(self, name: str, field: int, n: int) -> float:
        """`stats[name][field]` per iteration, over `n` iterations (0 if never called)."""
        return self.stats.get(name, [0, 0.0, 0.0])[field] / n

    def module_total(self, module: str, field: int) -> float:
        return sum(v[field] for k, v in self.stats.items() if k.startswith(module + "."))
