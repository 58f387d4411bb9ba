"""Span wrappers around openquad's public functions, for the traced run.

A Tracer replaces each function named in TRACED by a wrapper that records
one span per call: name, start, end and the span that was open when it
was called.  The wrapper is bound wherever the original is bound, in
every loaded ``openquad`` module (``cli`` and ``dynamics`` import names
directly and ``openquad/__init__`` re-exports them), so calls made
through any of those names are seen.  ``uninstall`` puts the originals
back.  Nothing in the library itself is changed.

Self time of a span is its duration minus the time covered by its child
spans.  The functions in MEMORY also report the peak of memory allocated
during the call, measured with tracemalloc; tracemalloc runs only while
one of them is open, so it slows nothing else.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc

TRACED = {
    "cli": (
        "run",
        "ExperimentConfig.from_dict",
        "build_model",
        "write_table",
        "fit_power_law",
    ),
    "model": ("xy_redfield_model", "xy_lindblad_model"),
    "spectra": (
        "structure_matrix",
        "hamiltonian_eigensystem",
        "bath_matrix",
        "assemble_structure_matrix",
        "normal_modes",
        "spectral_gap",
    ),
    "ness": (
        "ness_two_point",
        "observable_report",
        "correlation_matrix",
        "correlation_spectrum",
        "energy_density_matrices",
        "heat_current_profile",
        "energy_density_profile",
        "correlation_decay",
        "block_entropy",
        "positivity_excess",
        "quantum_mutual_information",
    ),
    "dynamics": (
        "dynamic_correlator",
        "propagate_two_point",
        "time_ordered_propagator",
        "propagate_schedule",
    ),
}

# the O(n^3)-memory suspects: energy_density_matrices' list of n - 1 dense
# 2n x 2n matrices, the report that builds it three times, and the
# correlator's times x n^2 temporaries
MEMORY = ("ness.observable_report", "ness.energy_density_matrices",
          "dynamics.dynamic_correlator")


def metric_names():
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = []
    for span in (f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns):
        names += [f"{span}.calls", f"{span}.self_s"]
        if span in MEMORY:
            names.append(f"{span}.alloc_peak_mb")
    return names


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, child seconds, alloc bytes]
        self._open = []  # indices of the spans still running, innermost last
        self._memory = []  # [base bytes, peak bytes] per open MEMORY span
        self._patches = []  # (owner, attribute, original) in install order

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "openquad" or name.startswith("openquad.")]
        for mod_name, functions in TRACED.items():
            module = importlib.import_module(f"openquad.{mod_name}")
            for qualname in functions:
                name = f"{mod_name}.{qualname}"
                if "." in qualname:  # a classmethod, bound on its class only
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    wrapped = classmethod(self._wrap(name, original.__func__))
                    self._patch(cls, attr, original, wrapped)
                    continue
                original = getattr(module, qualname)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, name, fn):
        memory = name in MEMORY

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._enter(name, memory)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(memory)

        return span

    def _enter(self, name, memory):
        if memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            for frame in self._memory:
                frame[1] = max(frame[1], peak)
            tracemalloc.reset_peak()
            self._memory.append([current, current])
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, 0.0, None])

    def _exit(self, memory):
        end = time.perf_counter()
        span = self.spans[self._open.pop()]
        span[2] = end
        if span[3] is not None:
            self.spans[span[3]][4] += end - span[1]
        if memory:
            base, peak = self._memory.pop()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            span[5] = peak - base
            for frame in self._memory:
                frame[1] = max(frame[1], peak)
            if not self._memory:
                tracemalloc.stop()

    def summary(self):
        """Per-layer metrics of the spans recorded so far."""
        out = {name: 0 for name in metric_names()}
        for name, start, end, _, child_s, alloc in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_s
            if alloc is not None:
                key = f"{name}.alloc_peak_mb"
                out[key] = max(out[key], alloc / 2**20)
        return out
