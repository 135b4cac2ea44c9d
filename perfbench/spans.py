"""Spans around the public functions of each pspinlab layer.

The package is not edited: while a traced run is in progress, every module
binding of a wrapped function (the defining module and each module that
imported the name) is swapped for a timing wrapper, and restored afterwards.
Spans (name, start, end, parent) are kept in flat arrays in memory; layer
metrics are computed from them once the run has ended.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _minimize_facts(args, kwargs, result):
    return result.iterations, result.converged, result.kkt_residual


def _window_found(args, kwargs, result):
    return result.exists


def _entries_bytes(args, kwargs, result):
    return result.entries.nbytes


def _mixing(args, kwargs, result):
    diag = args[0].diagnostics()
    return (float(np.mean(diag["acceptance"])),
            float(np.min(diag["swap_acceptance"])))


# (span name, defining module, attribute, fact recorded per call or None).
# A dotted attribute names a method; the class attribute is wrapped.
TARGETS = (
    ("cli", "pspinlab.cli", "main", None),
    ("phase.beta_c", "pspinlab.phase", "beta_c", None),
    ("mixtures.band_mixture", "pspinlab.mixtures", "band_mixture", None),
    ("mixtures.evaluate", "pspinlab.mixtures", "evaluate", None),
    ("parisi.minimize_cs", "pspinlab.parisi", "minimize_cs", _minimize_facts),
    ("franz_parisi.fp_value", "pspinlab.franz_parisi", "fp_value", None),
    ("franz_parisi.find_window", "pspinlab.franz_parisi", "find_window",
     _window_found),
    ("lab.disorder.sample_disorder", "pspinlab.lab.disorder",
     "sample_disorder", _entries_bytes),
    ("lab.disorder.correlate_disorder", "pspinlab.lab.disorder",
     "correlate_disorder", _entries_bytes),
    ("lab.energy.hamiltonian", "pspinlab.lab.energy", "hamiltonian", None),
    ("lab.energy.gradient", "pspinlab.lab.energy", "gradient", None),
    ("lab.energy.spherical_gradient", "pspinlab.lab.energy",
     "spherical_gradient", None),
    ("lab.langevin.langevin_run", "pspinlab.lab.langevin", "langevin_run",
     None),
    ("lab.samplers.sweep", "pspinlab.lab.samplers", "ReplicaExchange.sweep",
     None),
    ("lab.samplers.check_mixing", "pspinlab.lab.samplers",
     "ReplicaExchange.check_mixing", _mixing),
    ("lab.observables.correlation_curve", "pspinlab.lab.observables",
     "correlation_curve", None),
    ("lab.observables.chaos_scan", "pspinlab.lab.observables", "chaos_scan",
     None),
    ("lab.observables.w2_empirical", "pspinlab.lab.observables",
     "w2_empirical", None),
)
_INDEX = {t[0]: i for i, t in enumerate(TARGETS)}

class Tracer:
    """Records the spans of one traced run at a time: reset, install, run,
    uninstall, then read ``layer_metrics``."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.facts: list[list] = [[] for _ in TARGETS]
        self._stack: list[int] = []

    def reset(self) -> None:
        """Drop recorded spans; the buffers are emptied in place because
        installed wrappers hold references to them."""
        for buf in (self.name, self.parent, self.start, self.end):
            del buf[:]
        for facts in self.facts:
            facts.clear()
        self._stack.clear()

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "pspinlab" or key.startswith("pspinlab.")]
        for idx, (_, module, attr, fact) in enumerate(TARGETS):
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            else:
                holders = modules
            original = getattr(owner, attr)
            wrapper = self._wrap(idx, original, fact)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def _wrap(self, idx: int, fn, fact):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, facts = self._stack, self.facts[idx]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(name)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if fact is not None:
                facts.append(fact(args, kwargs, result))
            return result

        return traced

    def write(self, path: Path) -> None:
        """Save the spans of the last traced run as a compressed npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array([t[0] for t in TARGETS]),
                            name=np.frombuffer(self.name, dtype=np.uint16),
                            parent=np.frombuffer(self.parent, dtype=np.int64),
                            start=np.frombuffer(self.start),
                            end=np.frombuffer(self.end))

    def layer_metrics(self, tensor_entries: int, p: int) -> dict[str, float]:
        """Per-layer metrics of the last traced run. Bytes are computed, not
        measured: ``tensor_entries`` float64 entries (n^p) per tensor pass,
        one pass per hamiltonian and p passes per gradient."""
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        k = len(TARGETS)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)

        def n(span):
            return int(calls[_INDEX[span]])

        def s(span):
            return float(total[_INDEX[span]])

        def own(span):
            return float(self_s[_INDEX[span]])

        def per(value, count, scale=1.0):
            return scale * value / count if count else 0.0

        solves = self.facts[_INDEX["parisi.minimize_cs"]]
        iters = [it for it, _, _ in solves]
        solve_ms = 1e3 * dur[name == _INDEX["parisi.minimize_cs"]]
        mixing = self.facts[_INDEX["lab.samplers.check_mixing"]]
        builds = ("lab.disorder.sample_disorder",
                  "lab.disorder.correlate_disorder")
        tensor_bytes = 8 * tensor_entries
        # one Langevin step is one spherical gradient taken inside a run,
        # so the count holds the steps actually taken, not those configured
        run = _INDEX["lab.langevin.langevin_run"]
        steps = int(np.count_nonzero(
            (name == _INDEX["lab.energy.spherical_gradient"]) & nested
            & (name[np.maximum(parent, 0)] == run)))
        return {
            "parisi.minimize_cs.calls": n("parisi.minimize_cs"),
            "parisi.minimize_cs.s": s("parisi.minimize_cs"),
            "parisi.minimize_cs.iterations": sum(iters),
            "parisi.minimize_cs.iterations_max": max(iters, default=0),
            "parisi.minimize_cs.us_per_iteration":
                per(s("parisi.minimize_cs"), sum(iters), 1e6),
            "parisi.minimize_cs.p50_ms":
                float(np.percentile(solve_ms, 50)) if solves else 0.0,
            "parisi.minimize_cs.p99_ms":
                float(np.percentile(solve_ms, 99)) if solves else 0.0,
            "parisi.minimize_cs.not_converged":
                sum(1 for _, ok, _ in solves if not ok),
            "parisi.minimize_cs.kkt_max":
                max((kkt for _, _, kkt in solves), default=0.0),
            "mixtures.band_mixture.calls": n("mixtures.band_mixture"),
            "mixtures.band_mixture.s": s("mixtures.band_mixture"),
            "mixtures.evaluate.calls": n("mixtures.evaluate"),
            "mixtures.evaluate.s": s("mixtures.evaluate"),
            "franz_parisi.find_window.calls": n("franz_parisi.find_window"),
            "franz_parisi.find_window.self_s": own("franz_parisi.find_window"),
            "franz_parisi.fp_value.self_s": own("franz_parisi.fp_value"),
            "franz_parisi.windows_found":
                sum(self.facts[_INDEX["franz_parisi.find_window"]]),
            "phase.beta_c.calls": n("phase.beta_c"),
            "phase.beta_c.s": s("phase.beta_c"),
            "lab.energy.gradient.calls": n("lab.energy.gradient"),
            "lab.energy.gradient.s": s("lab.energy.gradient"),
            "lab.energy.gradient.us_per_call":
                per(s("lab.energy.gradient"), n("lab.energy.gradient"), 1e6),
            "lab.energy.gradient.bytes_computed":
                n("lab.energy.gradient") * p * tensor_bytes,
            "lab.energy.hamiltonian.calls": n("lab.energy.hamiltonian"),
            "lab.energy.hamiltonian.s": s("lab.energy.hamiltonian"),
            "lab.energy.hamiltonian.us_per_call":
                per(s("lab.energy.hamiltonian"),
                    n("lab.energy.hamiltonian"), 1e6),
            "lab.energy.hamiltonian.bytes_computed":
                n("lab.energy.hamiltonian") * tensor_bytes,
            "lab.langevin.steps": steps,
            "lab.langevin.self_s": own("lab.langevin.langevin_run"),
            "lab.langevin.us_per_step":
                per(s("lab.langevin.langevin_run"), steps, 1e6),
            "lab.samplers.sweeps": n("lab.samplers.sweep"),
            "lab.samplers.sweep.us_per_call":
                per(s("lab.samplers.sweep"), n("lab.samplers.sweep"), 1e6),
            "lab.samplers.sweep.self_s": own("lab.samplers.sweep"),
            "lab.samplers.accept_ratio":
                float(np.mean([a for a, _ in mixing])) if mixing else 0.0,
            "lab.samplers.swap_ratio_min":
                min((w for _, w in mixing), default=0.0),
            "lab.disorder.build.calls": sum(n(b) for b in builds),
            "lab.disorder.build.s": sum(s(b) for b in builds),
            "lab.disorder.build.bytes":
                sum(sum(self.facts[_INDEX[b]]) for b in builds),
            "lab.observables.w2.calls": n("lab.observables.w2_empirical"),
            "lab.observables.w2.s": s("lab.observables.w2_empirical"),
            "cli.self_s": own("cli"),
        }
