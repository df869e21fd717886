"""In-memory tracing of oqst from outside the package.

``install_oqst`` replaces functions in the loaded ``oqst`` modules with
wrappers.  Every wrapped call updates an aggregate counter (calls,
inclusive time, self time, and optional work units); calls at coarse
boundaries also record a span (name, start, end, parent span, trace id).
Self time is inclusive time minus the inclusive time of wrapped callees,
kept on a per-process wrapper stack.

Worker processes forked by the cavity process pool inherit the wrappers.
When a worker's outermost wrapped call returns, the worker writes its part
of the trace to ``part_dir`` and starts afresh; ``merge`` folds the parts
into the parent's trace.  Before that, a worker pickles the records its
chunk returns, as the pool is about to, and records their size and the
time to dump and load them under ``cavity.pool.result``.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self, trace_id: str, part_dir: str | None = None, clock=time.perf_counter):
        self.trace_id = trace_id
        self.part_dir = part_dir
        self.clock = clock
        self._pid = os.getpid()
        self._origin_pid = self._pid
        self._parts = 0
        self._root_parent = None  # in a worker: the parent's span open at the fork
        self._reset()

    def _reset(self):
        self.spans: list = []
        self.stats: dict = {}
        self._stack: list = []  # frames: [callee inclusive seconds, span id or None]
        self._next_span = 0

    # -- recording ---------------------------------------------------------

    def _enter(self, is_span: bool):
        if os.getpid() != self._pid:  # first call in a forked worker
            self._pid = os.getpid()
            self._root_parent = self._parent_span()
            self._reset()
        span_id = None
        if is_span:
            span_id = f"{self._pid}:{self._next_span}"
            self._next_span += 1
        frame = [0.0, span_id]
        self._stack.append(frame)
        return frame

    def in_worker(self) -> bool:
        return self._pid != self._origin_pid

    def add(self, name: str, seconds: float, units: float, self_s: float | None = None):
        """Count one call, or one computed measurement that wraps no call."""
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "units": 0.0}
        st["calls"] += 1
        st["incl_s"] += seconds
        st["self_s"] += seconds if self_s is None else self_s
        st["units"] += units

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return self._root_parent

    def _exit(self, name: str, frame, start: float, end: float, units: float):
        self._stack.pop()
        elapsed = end - start
        if self._stack:
            self._stack[-1][0] += elapsed
        self.add(name, elapsed, units, self_s=elapsed - frame[0])
        if frame[1] is not None:
            self.spans.append({
                "trace_id": self.trace_id, "span_id": frame[1], "name": name,
                "parent": self._parent_span(), "start": start, "end": end,
                "pid": self._pid,
            })
        if not self._stack and self.in_worker() and self.part_dir:
            self._write_part()

    def wrap(self, name: str, fn, *, span: bool = False, units=None):
        """Wrapper that records ``fn`` under ``name``.

        ``units(args, kwargs, result)`` returns the work a call did, such as
        trajectory-steps, and is summed into the counter.  It runs after the
        call's end time is taken, so its own time is not the call's.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(span)
            start = self.clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = self.clock()
                work = units(args, kwargs, result) if (units and result is not None) else 0.0
                self._exit(name, frame, start, end, work)

        return traced

    # -- installation ------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, **opts):
        """Wrap ``module.attr`` and rebind every oqst reference to it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, **opts)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "oqst" or mod_name.startswith("oqst.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
        return traced

    def patch_method(self, cls, attr: str, name: str, **opts):
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), **opts))

    # -- output ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"trace_id": self.trace_id, "spans": self.spans, "stats": self.stats}

    def _write_part(self):
        path = Path(self.part_dir) / f"part-{self._pid}-{self._parts}.json"
        self._parts += 1
        path.write_text(json.dumps(self.snapshot()))
        self._reset()


def merge(main: dict, parts: list) -> dict:
    """Fold worker trace parts into the parent's trace."""
    stats = {k: dict(v) for k, v in main["stats"].items()}
    spans = list(main["spans"])
    for part in parts:
        spans.extend(part["spans"])
        for name, st in part["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "units": 0.0})
            for key, value in st.items():
                acc[key] += value
    return {"trace_id": main["trace_id"], "spans": spans, "stats": stats}


def install_oqst(tracer: Tracer) -> None:
    """Wrap the layer boundaries and per-step functions of a loaded oqst."""
    import inspect
    from multiprocessing.reduction import ForkingPickler

    from oqst import channels, cli, lindblad, qmath, thermo, trajectory, verify
    from oqst.scenarios import cavity

    def record_steps(args, kwargs, result):
        return len(result.ledgers)

    def chunk_steps(args, kwargs, result):
        config, indices = args
        if tracer.in_worker():
            # Computed, not observed: the pool pickles these records again to send them.
            t0 = time.perf_counter()
            buf = ForkingPickler.dumps(result)
            pickle.loads(buf)
            tracer.add("cavity.pool.result", time.perf_counter() - t0, len(buf))
        return len(indices) * config.steps

    # Per-step kernels: every public module-level function of each layer.
    for mod in (qmath, channels, lindblad, thermo, trajectory):
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr, value in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            is_span = name in ("trajectory.sample_trajectory", "trajectory.enumerate_tree")
            units = record_steps if name == "trajectory.sample_trajectory" else None
            tracer.patch_function(mod, attr, name, span=is_span, units=units)
    tracer.patch_method(qmath.DensityOperator, "__post_init__", "qmath.DensityOperator.validate")
    tracer.patch_method(lindblad.ThermalGenerator, "apply", "lindblad.ThermalGenerator.apply")

    # Coarse boundaries: spans.
    tracer.patch_function(cli, "execute", "cli.execute", span=True)
    tracer.patch_function(cli, "emit_outputs", "cli.emit_outputs", span=True)
    tracer.patch_function(cavity, "run_cavity", "cavity.run_cavity", span=True)
    tracer.patch_function(cavity, "_build_report", "cavity._build_report", span=True)
    tracer.patch_function(cavity, "_diagonal_chunk", "cavity._diagonal_chunk", span=True,
                          units=chunk_steps)
    tracer.patch_function(cavity, "_dense_chunk", "cavity._dense_chunk", span=True,
                          units=chunk_steps)
    checks = []
    for check in verify.ALL_CHECKS:
        checks.append(tracer.patch_function(verify, check.__name__, f"verify.{check.__name__}",
                                            span=True))
    verify.ALL_CHECKS = tuple(checks)
