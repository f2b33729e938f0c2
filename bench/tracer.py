"""Span tracer for the traced benchmark run.

The tracer wraps lowmach's public functions from outside the package: each
call becomes a span (name, start, end, parent) held in memory and written to
a JSON file when the traced process ends.  ``summarize`` turns a span file
into the per-layer metrics.

A function imported with ``from .lattice import dealiased_product`` is bound
under that name in several modules, so every ``lowmach`` module attribute
that holds the original function is rebound to the wrapper.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time

import numpy as np

# (module, function) pairs; the span is named "<module>.<function>".
FUNCTIONS = [
    ("lattice", "forward_transform"),
    ("lattice", "inverse_transform"),
    ("lattice", "dealiased_product"),
    ("solvers", "step_compressible"),
    ("solvers", "step_incompressible"),
    ("solvers", "step_limit"),
    ("solvers", "save_checkpoint"),
    ("operators", "helmholtz_project"),
    ("operators", "acoustic_transform"),
    ("operators", "wave_group"),
    ("operators", "advect"),
    ("resonance", "build_limit_tables"),
    ("resonance", "limit_q1"),
    ("resonance", "limit_q2"),
    ("dyadic", "norm"),
    ("dyadic", "chemin_lerner_norm"),
    ("functionals", "compute_functionals"),
    ("experiments", "convergence_study"),
    ("experiments", "emit_report"),
    ("cli", "main"),
]

LAYERS = ("lattice", "dyadic", "operators", "resonance", "solvers", "functionals", "experiments", "cli")


class Tracer:
    """In-memory span and counter store for one traced process."""

    def __init__(self):
        self.run_id = f"{os.getpid()}-{time.time_ns()}"
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, label=None, after=None):
        """Span around ``fn``.  ``label(args, kwargs)`` appends a suffix to the
        span name; ``after(args, kwargs, result)`` records counters."""
        spans, open_, clock = self.spans, self._open, time.perf_counter
        fixed = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if label is None else self._name_id(f"{name}.{label(args, kwargs)}")
            index = len(spans)
            spans.append([nid, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                open_.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        payload = {
            "run_id": self.run_id,
            "names": self.names,
            "spans": self.spans,
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _rebind(original, wrapper) -> int:
    """Replace ``original`` by ``wrapper`` at every lowmach module attribute."""
    bound = 0
    for modname, module in list(sys.modules.items()):
        if modname != "lowmach" and not modname.startswith("lowmach."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                bound += 1
    return bound


def _fft_counts(tracer: Tracer):
    def after(args, kwargs, result):
        x = np.asarray(args[0])
        axes = kwargs.get("axes")
        if axes is None:
            axes = range(x.ndim)
        n = math.prod(x.shape[a] for a in axes)
        tracer.add("fft_flops", 5.0 * n * math.log2(n) * (x.size // n))
        tracer.add("fft_bytes", x.nbytes + result.nbytes)

    return after


def _q2_candidate_pairs(lattice) -> int:
    """Ordered pairs (k, l) of nonzero box modes with k + l a nonzero box mode.

    Per axis with cutoff c, the pairs (a, b) with |a|, |b|, |a+b| <= c number
    (2c+1)^2 - c(c+1); the box is a product of axes.  Inclusion-exclusion
    then removes the pairs with k = 0, l = 0 or k + l = 0 (3|B| - 2 of them).
    """
    cutoffs = lattice.cutoffs
    box = math.prod(2 * c + 1 for c in cutoffs)
    triples = math.prod((2 * c + 1) ** 2 - c * (c + 1) for c in cutoffs)
    return triples - 3 * box + 2


def _table_counts(tracer: Tracer):
    def after(args, kwargs, table):
        arrays = [table.q1_m, table.q1_k, table.q1_l, table.q1_ss, table.q1_weight, table.q1_kvec]
        for store in (table.q2_m, table.q2_k, table.q2_l, table.q2_smod):
            arrays.extend(store.values())  # one copy per output branch
        pairs = int(table.q2_m[1].size)
        tracer.counts["q1_entries"] = int(table.q1_m.size)
        tracer.counts["q2_entries"] = pairs
        tracer.counts["table_bytes"] = int(sum(a.nbytes for a in arrays))
        tracer.counts["q2_yield"] = pairs / _q2_candidate_pairs(table.lattice)

    return after


def _checkpoint_bytes(tracer: Tracer):
    def after(args, kwargs, result):
        tracer.add("checkpoint_bytes", os.path.getsize(args[0]))

    return after


def install() -> Tracer:
    """Wrap the traced functions of an imported lowmach; return the tracer."""
    import lowmach
    import lowmach.cli  # noqa: F401  (the CLI module is not imported by the package)

    tracer = Tracer()
    hooks = {
        "build_limit_tables": dict(after=_table_counts(tracer)),
        "save_checkpoint": dict(after=_checkpoint_bytes(tracer)),
    }
    for modname, fname in FUNCTIONS:
        module = sys.modules[f"lowmach.{modname}"]
        original = getattr(module, fname)
        wrapper = tracer.wrap(f"{modname}.{fname}", original, **hooks.get(fname, {}))
        if _rebind(original, wrapper) == 0:
            raise RuntimeError(f"lowmach.{modname}.{fname} is bound nowhere")

    solvers = sys.modules["lowmach.solvers"]
    run_trajectory = solvers.run_trajectory
    def kind(args, kwargs):  # lowmach passes the trajectory kind positionally
        return args[2]

    _rebind(run_trajectory, tracer.wrap("solvers.run_trajectory", run_trajectory, label=kind))

    propagator = solvers.AcousticViscousPropagator
    propagator.apply = tracer.wrap("solvers.propagator_apply", propagator.apply)

    field_cls = lowmach.lattice.SpectralField
    init = field_cls.__init__

    def counted_init(self, *args, **kwargs):
        tracer.add("spectral_field_inits")
        init(self, *args, **kwargs)

    field_cls.__init__ = counted_init

    fft_after = _fft_counts(tracer)
    np.fft.fftn = tracer.wrap("lattice.fftn", np.fft.fftn, after=fft_after)
    np.fft.ifftn = tracer.wrap("lattice.ifftn", np.fft.ifftn, after=fft_after)
    return tracer


def summarize(path: str) -> tuple[dict, float]:
    """Per-layer metrics of one span file, and the summed top-level span time.

    A span's self time is its duration minus its children's durations (spans
    of one thread nest, so children never overlap).  Times of a function sum
    only its outermost spans, so recursion is not counted twice.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    names, spans, counts = data["names"], data["spans"], data["counts"]
    n = len(spans)
    child_time = [0.0] * n
    inside_step = [False] * n
    step_id = names.index("solvers.step_compressible") if "solvers.step_compressible" in names else -1
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    top_level = 0.0
    fft_in_steps = 0
    for i, (nid, start, end, parent) in enumerate(spans):
        duration = end - start
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        outermost = True
        if parent >= 0:
            child_time[parent] += duration
            inside_step[i] = inside_step[parent] or nid == step_id
            ancestor = parent
            while ancestor >= 0:
                if spans[ancestor][0] == nid:
                    outermost = False
                    break
                ancestor = spans[ancestor][3]
        else:
            inside_step[i] = nid == step_id
            top_level += duration
        if outermost:
            total[name] = total.get(name, 0.0) + duration
        if name in ("lattice.fftn", "lattice.ifftn") and inside_step[i]:
            fft_in_steps += 1
    for i, (nid, start, end, _) in enumerate(spans):
        self_by_layer[names[nid].split(".")[0]] += (end - start) - child_time[i]

    c = lambda name: calls.get(name, 0)
    t = lambda name: total.get(name, 0.0)
    steps = c("solvers.step_compressible")
    m = {
        "lattice.fft_calls": c("lattice.fftn") + c("lattice.ifftn"),
        "lattice.fft_s": t("lattice.fftn") + t("lattice.ifftn"),
        "lattice.fft_flops_computed": counts.get("fft_flops", 0.0),
        "lattice.fft_bytes_computed": counts.get("fft_bytes", 0),
        "lattice.transform_calls": c("lattice.forward_transform") + c("lattice.inverse_transform"),
        "lattice.transform_s": t("lattice.forward_transform") + t("lattice.inverse_transform"),
        "lattice.dealiased_product_calls": c("lattice.dealiased_product"),
        "lattice.dealiased_product_s": t("lattice.dealiased_product"),
        "lattice.spectral_field_inits": counts.get("spectral_field_inits", 0),
        "solvers.steps.compressible": steps,
        "solvers.steps.incompressible": c("solvers.step_incompressible"),
        "solvers.steps.limit": c("solvers.step_limit"),
        "solvers.step_compressible_s": t("solvers.step_compressible"),
        "solvers.step_incompressible_s": t("solvers.step_incompressible"),
        "solvers.step_limit_s": t("solvers.step_limit"),
        "solvers.propagator_apply_calls": c("solvers.propagator_apply"),
        "solvers.propagator_apply_s": t("solvers.propagator_apply"),
        "solvers.fft_per_compressible_step": fft_in_steps / steps if steps else 0.0,
        "solvers.checkpoint_s": t("solvers.save_checkpoint"),
        "solvers.checkpoint_bytes": counts.get("checkpoint_bytes", 0),
        "resonance.build_limit_tables_calls": c("resonance.build_limit_tables"),
        "resonance.build_limit_tables_s": t("resonance.build_limit_tables"),
        "resonance.q1_entries": counts.get("q1_entries", 0),
        "resonance.q2_entries": counts.get("q2_entries", 0),
        "resonance.table_bytes": counts.get("table_bytes", 0),
        "resonance.q2_yield_computed": counts.get("q2_yield", 0.0),
        "dyadic.norm_calls": c("dyadic.norm"),
        "dyadic.norm_s": t("dyadic.norm"),
        "dyadic.chemin_lerner_norm_calls": c("dyadic.chemin_lerner_norm"),
        "dyadic.chemin_lerner_norm_s": t("dyadic.chemin_lerner_norm"),
        "functionals.compute_functionals_calls": c("functionals.compute_functionals"),
        "functionals.compute_functionals_s": t("functionals.compute_functionals"),
        "experiments.convergence_study_s": t("experiments.convergence_study"),
        "experiments.emit_report_s": t("experiments.emit_report"),
        "cli.main_s": t("cli.main"),
        "trace.spans": n,
    }
    for kind in ("compressible", "incompressible", "limit"):
        m[f"solvers.run_trajectory_s.{kind}"] = t(f"solvers.run_trajectory.{kind}")
    for fname in ("helmholtz_project", "acoustic_transform", "wave_group", "advect"):
        m[f"operators.{fname}_calls"] = c(f"operators.{fname}")
        m[f"operators.{fname}_s"] = t(f"operators.{fname}")
    for fname in ("limit_q1", "limit_q2"):
        m[f"resonance.{fname}_calls"] = c(f"resonance.{fname}")
        m[f"resonance.{fname}_s"] = t(f"resonance.{fname}")
    for layer, value in self_by_layer.items():
        m[f"{layer}.self_s"] = value
    return m, top_level
