"""Span tracer for one benchmark iteration, installed from outside the package.

``Tracer.install`` wraps the public functions of each magnls module (plus the
two private hot spots every layer funnels through: one application of H and
one Crank-Nicolson step) and ``numpy.fft.fftn``/``ifftn``.  A function that
another module imported with ``from .x import y`` is rebound there too, so
every call site sees the wrapper.  ``Tracer.restore`` puts every original
back and reports whether each one is in place again.

Each wrapped call is a frame on a stack.  A frame's duration is credited to
its parent as child time, so a layer's self time excludes the frames it
caused.  Frames of coarse functions are also kept as spans (id, name, start,
end, parent, key) and written out after the run; frames of the hot leaves
(FFTs, H applications, norms) are only aggregated, which keeps memory flat
over hundreds of thousands of calls.  Work the tracer does for itself (the
residual probe behind ``krylov.stalled``) runs with tracing paused; its time,
and that of the benchmark's speed probes (``exclude``), is kept out of every
enclosing frame.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import statistics
import sys
import time
from array import array
from collections import Counter

import numpy as np

perf = time.perf_counter

# (layer, module, attribute, keep spans).  "Class.method" wraps a method.
TARGETS = (
    ("grid", "numpy.fft", "fftn", False),
    ("grid", "numpy.fft", "ifftn", False),
    ("grid", "magnls.grid", "dft", False),
    ("grid", "magnls.grid", "idft", False),
    ("grid", "magnls.grid", "gradient", False),
    ("grid", "magnls.grid", "laplacian", False),
    ("grid", "magnls.grid", "divergence", False),
    ("grid", "magnls.grid", "write_field", True),
    ("grid", "magnls.grid", "read_field", True),
    ("norms", "magnls.norms", "norm_lp", False),
    ("norms", "magnls.norms", "norm_w1p", False),
    ("norms", "magnls.norms", "norm_h1", False),
    ("norms", "magnls.norms", "norm_h2", False),
    ("norms", "magnls.norms", "norm_weighted_h1", False),
    ("norms", "magnls.norms", "norm_weighted_l2", False),
    ("norms", "magnls.norms", "norm_w2p_sum", False),
    ("norms", "magnls.norms", "grad_magnitude", False),
    ("krylov", "magnls.krylov", "solve", True),
    ("potentials", "magnls.potentials", "build_gaussian_well", True),
    ("potentials", "magnls.potentials", "build_localized_loop_field", True),
    ("potentials", "magnls.potentials", "make_potential_pair", True),
    ("hamiltonian", "magnls.hamiltonian", "_apply_h_values", False),
    ("hamiltonian", "magnls.hamiltonian", "apply_h", False),
    ("hamiltonian", "magnls.hamiltonian", "apply_h1", False),
    ("hamiltonian", "magnls.hamiltonian", "project_continuous", False),
    ("hamiltonian", "magnls.hamiltonian", "build_hamiltonian", True),
    ("hamiltonian", "magnls.hamiltonian", "shifted_solve", True),
    ("hamiltonian", "magnls.hamiltonian", "resolvent_solve", True),
    ("spectrum", "magnls.spectrum", "ground_state", True),
    ("spectrum", "magnls.spectrum", "low_spectrum_scan", True),
    ("bound_states", "magnls.bound_states", "BoundStateFamily.solve", True),
    ("bound_states", "magnls.bound_states", "solve_bound_state", True),
    ("bound_states", "magnls.bound_states", "fixed_point_step", True),
    ("bound_states", "magnls.bound_states", "decay_fit", True),
    ("evolution", "magnls.evolution", "evolve", True),
    ("evolution", "magnls.evolution", "linear_flow", True),
    ("evolution", "magnls.evolution", "step", True),
    ("evolution", "magnls.evolution", "_cn_step_values", True),
    ("evolution", "magnls.evolution", "energy_functional", False),
    ("modulation", "magnls.modulation", "decompose", True),
    ("modulation", "magnls.modulation", "track", True),
    ("modulation", "magnls.modulation", "symplectic_gram", True),
    ("modulation", "magnls.modulation", "scattering_gap", True),
    ("analysis", "magnls.analysis", "resolvent_bound_scan", True),
    ("analysis", "magnls.analysis", "default_lambda_grid", True),
    ("analysis", "magnls.analysis", "norm_equivalence_check", True),
    ("analysis", "magnls.analysis", "strichartz_ratio", True),
    ("analysis", "magnls.analysis", "XNormAccumulator.add", False),
    ("cli", "magnls.config", "parse_config", True),
    ("cli", "magnls.cli", "run", True),
    ("cli", "magnls.cli", "RunContext.csv", True),
    ("cli", "magnls.cli", "RunContext.field", True),
    ("cli", "magnls.cli", "RunContext.json", True),
    ("cli", "magnls.cli", "_write_manifest", True),
)

LAYERS = ("grid", "norms", "krylov", "potentials", "hamiltonian", "spectrum",
          "bound_states", "evolution", "modulation", "analysis", "cli")


class _Stat:
    __slots__ = ("layer", "count", "total", "self_time", "durations")

    def __init__(self, layer: str):
        self.layer = layer
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = array("d")


class Tracer:
    """Collects frames, spans and counts while installed."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.layer_entries: Counter = Counter()
        self.layer_busy: Counter = Counter()
        self.paused = False
        self._stack: list[list] = []   # [span id, name, layer, child time]
        self._next_id = 0
        self._excluded = 0.0           # tracer-internal time, never charged
        self._patches: list[tuple] = []

    # -- frames ---------------------------------------------------------------

    def _call(self, name, layer, keep, fn, args, kwargs, key=None):
        self._next_id += 1
        frame = [self._next_id, name, layer, 0.0]
        stack = self._stack
        stack.append(frame)
        excluded0 = self._excluded
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf()
            excluded1 = self._excluded   # before a probe can land in here
            stack.pop()
            dur = (t1 - t0) - (excluded1 - excluded0)
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[3] += dur
            st = self.stats[name]
            st.count += 1
            st.total += dur
            st.self_time += dur - frame[3]
            st.durations.append(dur)
            if parent is None or parent[2] != layer:
                self.layer_entries[layer] += 1
                self.layer_busy[layer] += dur
            if keep:
                self.spans.append((frame[0], name, t0, t1,
                                   parent[0] if parent else 0, key))

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` of outside work out of every open frame."""
        self._excluded += seconds

    def region(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a root span of the benchmark's own layer."""
        self.stats.setdefault(name, _Stat("bench"))
        return self._call(name, "bench", True, fn, args, kwargs)

    # -- installation ---------------------------------------------------------

    def _wrapper(self, name, layer, keep, fn):
        tracer = self
        hook = _HOOKS.get(name)
        if hook is not None:
            return hook(tracer, name, layer, keep, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            return tracer._call(name, layer, keep, fn, args, kwargs)
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        magnls_modules = [m for k, m in sorted(sys.modules.items())
                          if k == "magnls" or k.startswith("magnls.")]
        for layer, modname, attr, keep in TARGETS:
            module = importlib.import_module(modname)
            name = f"{modname.rsplit('.', 1)[-1]}.{attr}"
            self.stats[name] = _Stat(layer)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth,
                            self._wrapper(name, layer, keep, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(name, layer, keep, original)
            self._patch(module, attr, wrapper)
            for other in magnls_modules:   # names bound by ``from .x import y``
                if other is not module and other.__dict__.get(attr) is original:
                    self._patch(other, attr, wrapper)
        krylov = importlib.import_module("magnls.krylov")
        gmres = krylov.gmres

        def counted_gmres(*args, **kwargs):
            if not self.paused:
                self.counts["krylov.gmres_calls"] += 1
            return gmres(*args, **kwargs)
        self._patch(krylov, "gmres", counted_gmres)

    def restore(self) -> bool:
        """Put every original back; True when each one is in place again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(owner.__dict__[attr] is original
                 for owner, attr, original in self._patches)
        self._patches.clear()
        return ok

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start_s,end_s,parent,key\n")
            for sid, name, t0, t1, parent, key in sorted(self.spans):
                fh.write(f"{sid},{name},{t0:.9f},{t1:.9f},{parent},"
                         f"{'' if key is None else key}\n")


# ---------------------------------------------------------------------------
# wrappers that also count work from call arguments or results


def _bind(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return arguments


def _fft_hook(tracer, name, layer, keep, fn):
    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        if tracer.paused:
            return fn(a, *args, **kwargs)
        out = tracer._call(name, layer, keep, fn, (a,) + args, kwargs)
        tracer.counts["grid.fft.bytes_computed"] += a.nbytes + out.nbytes
        return out
    return wrapper


def _krylov_hook(tracer, name, layer, keep, fn):
    arguments = _bind(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        a = arguments(args, kwargs)
        matvec, b = a["matvec"], a["b"]

        def counted(v):
            tracer.counts["krylov.matvecs"] += 1
            return matvec(v)

        a["matvec"] = counted
        x = tracer._call(name, layer, keep, fn, (), a)
        if not a["strict"]:
            # Probe the true residual outside every frame and every count.
            t0 = perf()
            tracer.paused = True
            try:
                b_norm = float(np.linalg.norm(b))
                if b_norm > 0.0:
                    resid = float(np.linalg.norm(matvec(x) - b)) / b_norm
                    if resid > a["tol"]:
                        tracer.counts["krylov.stalled"] += 1
            finally:
                tracer.paused = False
                tracer.exclude(perf() - t0)
        return x
    return wrapper


def _counting_hook(count):
    """Span wrapper that adds ``count(arguments, result)`` to the counts."""
    def hook(tracer, name, layer, keep, fn):
        arguments = _bind(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            result = tracer._call(name, layer, keep, fn, args, kwargs)
            for key, value in count(arguments(args, kwargs), result).items():
                tracer.counts[key] += value
            return result
        return wrapper
    return hook


def _resolvent_hook(tracer, name, layer, keep, fn):
    """Keys each resolvent solve by its shift, so the spans of one lambda
    point of a scan can be grouped (the point itself is not a function)."""
    @functools.wraps(fn)
    def wrapper(spec, zeta, *args, **kwargs):
        if tracer.paused:
            return fn(spec, zeta, *args, **kwargs)
        z = complex(zeta)
        key = f"{z.real:.12g}:{abs(z.imag):.12g}"
        return tracer._call(name, layer, keep, fn, (spec, zeta) + args,
                            kwargs, key=key)
    return wrapper


def _cn_steps_of_linear_flow(a, _result):
    if a["t"] == 0.0:
        return {}
    return {"evolution.cn_steps": max(1, math.ceil(abs(a["t"]) / a["dt"]))}


_HOOKS = {
    "fft.fftn": _fft_hook,
    "fft.ifftn": _fft_hook,
    "krylov.solve": _krylov_hook,
    "hamiltonian.resolvent_solve": _resolvent_hook,
    "evolution.evolve": _counting_hook(lambda a, _r: {
        "evolution.cn_steps": int(round(a["config"].t_final / a["config"].dt))}),
    "evolution.linear_flow": _counting_hook(_cn_steps_of_linear_flow),
    "evolution.step": _counting_hook(lambda a, _r: {"evolution.cn_steps": 1}),
    "modulation.decompose": _counting_hook(lambda _a, r: {
        "modulation.newton_iters": r.newton_iters}),
    "analysis.resolvent_bound_scan": _counting_hook(lambda _a, r: {
        "analysis.resolvent_points": len(r.points),
        "analysis.power_iters": sum(p.power_iters for p in r.points)}),
}


# ---------------------------------------------------------------------------
# per-layer metrics


def _quantile(values, q: float) -> float:
    """Interpolated quantile at a whole percentile ``q``; 0 with no values."""
    if len(values) < 2:
        return float(sum(values))
    return statistics.quantiles(values, n=100,
                                method="inclusive")[round(100 * q) - 1]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration: name -> (value, unit)."""
    st = tracer.stats
    c = tracer.counts
    spans = {s[0]: s for s in tracer.spans}

    def ancestors(span):
        parent = span[4]
        while parent in spans:
            yield spans[parent]
            parent = spans[parent][4]

    def named(name):
        return [s for s in tracer.spans if s[1] == name]

    def under(name, ancestor_pred):
        return [s for s in named(name)
                if any(ancestor_pred(a) for a in ancestors(s))]

    def p50(name):
        return _quantile(st[name].durations, 0.5)

    self_time = Counter()
    for stat in st.values():
        self_time[stat.layer] += stat.self_time

    fftn, ifftn = st["fft.fftn"], st["fft.ifftn"]
    family_solves = st["bound_states.BoundStateFamily.solve"].count
    misses = len(under("bound_states.solve_bound_state",
                       lambda a: a[1] == "bound_states.BoundStateFamily.solve"))
    decomposes = st["modulation.decompose"].count
    cn_steps = c["evolution.cn_steps"]
    pullbacks = [s for s in named("evolution.linear_flow")
                 if spans.get(s[4], (None, None))[1] == "modulation.track"]
    pullback_durations = [s[3] - s[2] for s in pullbacks]
    # One resolvent point = the solves of one scan at one shift.
    points: dict[tuple, list] = {}
    for s in named("hamiltonian.resolvent_solve"):
        points.setdefault((s[4], s[5]), []).append(s)
    point_durations = [max(s[3] for s in group) - min(s[2] for s in group)
                       for group in points.values()]

    m = {
        "grid.fft.calls": (fftn.count + ifftn.count, "count"),
        "grid.fft_s": (fftn.total + ifftn.total, "s"),
        "grid.fft.bytes_computed": (c["grid.fft.bytes_computed"], "B"),
        "krylov.solve.calls": (st["krylov.solve"].count, "count"),
        "krylov.solve_s": (st["krylov.solve"].total, "s"),
        "krylov.solve_s.p50": (p50("krylov.solve"), "s"),
        "krylov.solve_s.p90": (_quantile(st["krylov.solve"].durations, 0.9), "s"),
        "krylov.matvecs": (c["krylov.matvecs"], "count"),
        "krylov.retries": (c["krylov.gmres_calls"] - st["krylov.solve"].count,
                           "count"),
        "krylov.stalled": (c["krylov.stalled"], "count"),
        "hamiltonian.h_applies": (st["hamiltonian._apply_h_values"].count,
                                  "count"),
        "hamiltonian.h_apply_s": (p50("hamiltonian._apply_h_values"), "s"),
        "hamiltonian.shifted_solve.calls": (
            st["hamiltonian.shifted_solve"].count, "count"),
        "hamiltonian.shifted_solve_s": (st["hamiltonian.shifted_solve"].total,
                                        "s"),
        "hamiltonian.resolvent_solve.calls": (
            st["hamiltonian.resolvent_solve"].count, "count"),
        "spectrum.ground_state_s": (st["spectrum.ground_state"].total, "s"),
        "spectrum.low_spectrum_scan_s": (st["spectrum.low_spectrum_scan"].total,
                                         "s"),
        "spectrum.shifted_solves": (len(under(
            "hamiltonian.shifted_solve",
            lambda a: a[1].startswith("spectrum."))), "count"),
        "bound_states.family_solve.calls": (family_solves, "count"),
        "bound_states.fixed_point_solves": (
            st["bound_states.solve_bound_state"].count, "count"),
        "bound_states.cache_hit_ratio": (
            (family_solves - misses) / family_solves if family_solves else 0.0,
            "ratio"),
        "bound_states.fixed_point_sweeps": (
            st["bound_states.fixed_point_step"].count, "count"),
        "bound_states.fixed_point_solve_s": (
            st["bound_states.solve_bound_state"].total, "s"),
        "evolution.cn_steps": (cn_steps, "count"),
        "evolution.evolve_s": (st["evolution.evolve"].total, "s"),
        "evolution.linear_flow.calls": (st["evolution.linear_flow"].count,
                                        "count"),
        "evolution.linear_flow_s": (st["evolution.linear_flow"].total, "s"),
        "evolution.cn_step_s": (
            tracer.layer_busy["evolution"] / cn_steps if cn_steps else 0.0, "s"),
        "modulation.decompose.calls": (decomposes, "count"),
        "modulation.decompose_s.p50": (p50("modulation.decompose"), "s"),
        "modulation.decompose_s.p90": (
            _quantile(st["modulation.decompose"].durations, 0.9), "s"),
        "modulation.family_solves_per_frame": (
            len(under("bound_states.BoundStateFamily.solve",
                      lambda a: a[1] == "modulation.decompose")) / decomposes
            if decomposes else 0.0, "count/frame"),
        "modulation.newton_iters": (c["modulation.newton_iters"], "count"),
        "modulation.pullback_s": (float(sum(pullback_durations)), "s"),
        "modulation.track_s": (st["modulation.track"].total, "s"),
        "analysis.resolvent_points": (c["analysis.resolvent_points"], "count"),
        "analysis.resolvent_point_s": (_quantile(point_durations, 0.5), "s"),
        "analysis.power_iters": (c["analysis.power_iters"], "count"),
        "analysis.strichartz_s": (st["analysis.strichartz_ratio"].total, "s"),
        "analysis.norm_equivalence_s": (
            st["analysis.norm_equivalence_check"].total, "s"),
        "norms.calls": (tracer.layer_entries["norms"], "count"),
        "norms_s": (tracer.layer_busy["norms"], "s"),
        "cli.config_s": (st["config.parse_config"].total, "s"),
        "cli.write_s": (sum(st[n].total for n in (
            "cli.RunContext.csv", "cli.RunContext.field", "cli.RunContext.json",
            "cli._write_manifest")), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_time[layer], "s")
    # Seed baselines of the eight layer costs: per-call p50 and count.
    costs = {
        "fft_pair": (p50("fft.fftn") + p50("fft.ifftn"), fftn.count),
        "h_apply": (p50("hamiltonian._apply_h_values"),
                    st["hamiltonian._apply_h_values"].count),
        "cn_step": (p50("evolution._cn_step_values"),
                    st["evolution._cn_step_values"].count),
        "krylov_solve": (p50("krylov.solve"), st["krylov.solve"].count),
        "fixed_point_solve": (p50("bound_states.solve_bound_state"),
                              st["bound_states.solve_bound_state"].count),
        "decompose_frame": (p50("modulation.decompose"), decomposes),
        "pullback": (_quantile(pullback_durations, 0.5), len(pullbacks)),
        "resolvent_point": (_quantile(point_durations, 0.5),
                            len(point_durations)),
    }
    for cost, (seconds, count) in costs.items():
        m[f"cost.{cost}_s"] = (seconds, "s")
        m[f"cost.{cost}.count"] = (count, "count")
    return m
