"""Span tracer for barrier1d, installed from outside the package.

Each entry point is wrapped by rebinding its name in every ``barrier1d``
module namespace that holds it (``solve_exact`` lives in ``oracle`` and is
imported by ``resonance``, ``riccati``, ``compose``, ``cli`` and the package
itself), or on its class for methods.  A name that no longer exists is
reported as absent instead of failing, so the tracer keeps working when a
refactor merges or deletes private kernels.

Spans (id, name, start, end, parent id, task id) stay in memory while
``keep_spans`` is set and are written out by the caller.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from time import perf_counter

import numpy as np

# (span name, module, qualified attribute); several targets may share a name.
TARGETS = (
    ("potential.as_slabs", "barrier1d.potential", "Potential.as_slabs"),
    ("kernels.transfer_product", "barrier1d._kernels", "_transfer_product"),
    ("kernels.riccati_path", "barrier1d._kernels", "_riccati_path"),
    ("kernels.shoot_mismatch", "barrier1d._kernels", "_shoot_mismatch"),
    ("kernels.cell_traces", "barrier1d._kernels", "_cell_traces"),
    ("oracle.solve_exact", "barrier1d.oracle", "solve_exact"),
    ("compose.compose_chain", "barrier1d.compose", "compose_chain"),
    ("compose.averaged_transmittance_center_fluct", "barrier1d.compose",
     "averaged_transmittance_center_fluct"),
    ("riccati.integrate", "barrier1d.riccati", "integrate_complex"),
    ("riccati.integrate", "barrier1d.riccati", "integrate_real"),
    ("riccati.integrate", "barrier1d.riccati", "integrate_alpha_form"),
    ("resonance.rect_pair_resonant_L", "barrier1d.resonance", "rect_pair_resonant_L"),
    ("resonance.find_resonant_L", "barrier1d.resonance", "find_resonant_L"),
    ("resonance.find_resonant_E", "barrier1d.resonance", "find_resonant_E"),
    ("resonance.resonance_density", "barrier1d.resonance", "resonance_density"),
    ("spectra.bound_levels", "barrier1d.spectra", "bound_levels"),
    ("spectra.bound_levels_shooting", "barrier1d.spectra", "bound_levels_shooting"),
    ("spectra.level_scan", "barrier1d.spectra", "level_scan"),
    ("spectra.band_structure", "barrier1d.spectra", "band_structure"),
    ("spectra.compression_scan", "barrier1d.spectra", "compression_scan"),
    ("spectra.matching_dets", "barrier1d.spectra", "_matching_dets"),
    ("spectra.shoot_values", "barrier1d.spectra", "_shoot_values"),
    ("cli.main", "barrier1d.cli", "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
_SEARCHES = ("resonance.find_resonant_E", "resonance.resonance_density")
_LEVEL_SETS = ("spectra.bound_levels", "spectra.bound_levels_shooting")
_EVALUATORS = ("spectra.matching_dets", "spectra.shoot_values", "kernels.cell_traces")


def _resolve(module, qualname):
    """(owner, attribute, object) or None when any part is missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


class Tracer:
    """Wraps the :data:`TARGETS` while installed; use as a context manager."""

    def __init__(self):
        self.keep_spans = False
        self.spans: list[tuple] = []
        self.task_id = -1
        self.absent: list[str] = []
        self._rebound: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self.reset()

    def reset(self):
        """Zero the per-name statistics and counters."""
        self.stats = {name: [0, 0.0] for name in SPAN_NAMES}   # calls, self time
        self.depth = dict.fromkeys(SPAN_NAMES, 0)
        self.counts = dict.fromkeys(
            ("slab_steps", "riccati_rows", "shoot_rows", "cell_slab_steps",
             "grid_evals", "polish_evals", "roots", "search_solves", "peaks"), 0)

    # -- installation

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "barrier1d" or n.startswith("barrier1d."))]
        for name, module, qualname in TARGETS:
            found = _resolve(module, qualname)
            if found is None:
                self.absent.append(f"{module}:{qualname}")
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._rebound.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound = []

    # -- spans

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            tracer.depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.depth[name] -= 1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                st = tracer.stats[name]
                st[0] += 1
                st[1] += dur - frame[1]
                if tracer.keep_spans:
                    tracer.spans.append((span_id, name, t0, t1, parent, tracer.task_id))
            tracer._count(name, args, result)
            return result
        return wrapper

    def _count(self, name, args, result):
        c = self.counts
        if name == "kernels.transfer_product":
            c["slab_steps"] += len(args[0])
        elif name == "kernels.riccati_path":
            c["riccati_rows"] += int(result[1])
        elif name == "kernels.shoot_mismatch":
            c["shoot_rows"] += int(np.shape(args[1])[0])
        elif name == "oracle.solve_exact":
            if any(self.depth[s] for s in _SEARCHES):
                c["search_solves"] += 1
        elif name == "resonance.find_resonant_E":
            c["peaks"] += len(result)
        elif name == "resonance.resonance_density":
            c["peaks"] += sum(row.count for row in result)
        elif name in _LEVEL_SETS:
            c["roots"] += len(result)
        elif name == "spectra.band_structure":
            c["roots"] += 2 * len(result)
        if name in _EVALUATORS:
            energies = args[2] if name == "kernels.cell_traces" else args[1]
            n = int(np.size(energies))
            c["grid_evals" if n > 1 else "polish_evals"] += 1
            if name == "kernels.cell_traces":
                c["cell_slab_steps"] += len(args[0]) * n

    # -- metrics

    def snapshot(self) -> dict:
        """Per-layer values for the work traced since the last reset."""
        s, c = self.stats, self.counts
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = s[name][0]
            out[f"{name}.self_s"] = s[name][1]
        tp_time = s["kernels.transfer_product"][1]
        rp_time = s["kernels.riccati_path"][1]
        out["kernels.transfer_product.slab_steps"] = c["slab_steps"]
        out["kernels.transfer_product.slab_steps_per_s"] = (
            c["slab_steps"] / tp_time if tp_time > 0 else 0.0)
        out["kernels.riccati_path.rows"] = c["riccati_rows"]
        out["kernels.riccati_path.rows_per_s"] = (
            c["riccati_rows"] / rp_time if rp_time > 0 else 0.0)
        out["kernels.shoot_mismatch.rows"] = c["shoot_rows"]
        out["kernels.cell_traces.slab_steps"] = c["cell_slab_steps"]
        out["resonance.solve_evals_per_peak"] = (
            c["search_solves"] / c["peaks"] if c["peaks"] else 0.0)
        out["spectra.grid_evals"] = c["grid_evals"]
        out["spectra.polish_evals"] = c["polish_evals"]
        out["spectra.polish_evals_per_root"] = (
            c["polish_evals"] / c["roots"] if c["roots"] else 0.0)
        return out


COUNT_KEYS = (".calls", ".slab_steps", ".rows", "_evals", "_per_peak", "_per_root")


def is_count(metric: str) -> bool:
    """Work counts and their ratios, which repeat exactly for one seed."""
    return metric.endswith(COUNT_KEYS)


def combine(snapshots: list[dict]) -> dict:
    """Counts from the first traced round, medians of everything else."""
    first = snapshots[0]
    return {k: (first[k] if is_count(k) else statistics.median(s[k] for s in snapshots))
            for k in first}
