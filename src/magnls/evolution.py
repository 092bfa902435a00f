"""Time evolution: Strang splitting with a Crank-Nicolson linear half.

One step of size dt is the symmetric composition

    psi -> P(dt/2) C(dt) P(dt/2) psi,

with P(h) psi = psi exp(-i s h |psi|^2), the exact flow of the nonlinear
part, and C(dt) the Crank-Nicolson step of the linear part,
(1 + i dt/2 H) psi+ = (1 - i dt/2 H) psi, which ``hamiltonian.cn_power``
takes on the operator's backend.  ``step`` takes one such Strang step.
A phase leaves |psi| unchanged, so P(dt/2) P(dt/2) = P(dt): ``evolve``
opens with P(dt/2), joins the closing half-phase of each step to the
opening one of the next as one full phase, and closes the half-phase only
where it records a snapshot (reopening it if steps remain).  That is the
same composition with one phase evaluation per step instead of two
(Hairer-Lubich-Wanner, Geometric Numerical Integration, 2006, II.5;
McLachlan-Quispel, Acta Numerica 11, 2002).

``evolve`` marches K initial states as one stack, one row per state (the
layout of ``grid``), to which each step applies the phase pointwise and one
``cn_power`` call.  On the dense backend that call multiplies the
eigenbasis with the stack as a real N x 2K block, two states per pair of
products (``DenseBasis.apply``): one state alone, an N x 2 block, makes a
matrix-vector product in disguise, bound by reading the eigenbasis
(Dongarra et al., ACM TOMS 16, 1990, on why wider products pay).  The
Krylov backend takes the rows one by one, each step a Richardson solve
that starts from the extrapolation of that row's last six solutions: each
row keeps its own ``hamiltonian.cn_history``.  A state that moves
smoothly from step to step then costs fewer sweeps, one when the start's
residual, which that sweep measures, is within tol/q: on the 64 x 64 loop
at dt = 1e-3, 1.03 a step for a Gaussian bump and 1.04 for a perturbed
bound state, against 4 applications of the operator from y = 0.  A step
of one sweep takes d + 4 transforms, 6 on a 2D grid.  Each state's
``Trajectory`` is its only record:
started before the first step, it records each snapshot and tests the
drifts there.  A state whose drift breaches leaves the stack
at that snapshot with its ``ConservationBreach`` and its history; the
others go on.  One state is the stack of one, and ``step`` starts from
y = 0.

Both sub-flows are unitary (the implicit solve up to its tolerance), so mass
is conserved to solver precision per step and the scheme is exactly
time-reversible: a dt step followed by a -dt step is the identity.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigError, ConservationBreach, MagnlsError
from .grid import ComplexField, fftn, inner_l2, make_field
from .hamiltonian import (HamiltonianSpec, apply_h, check_grid, cn_history,
                          cn_power)
from .norms import norm_w1p

_MAX_DT = 0.1


def check_dt(dt: float, name: str = "dt") -> None:
    """A time step ``name`` must lie in (0, ``_MAX_DT``]."""
    if not 0.0 < dt <= _MAX_DT:
        raise MagnlsError(f"{name} must lie in (0, {_MAX_DT}], got {dt}")


@dataclass(frozen=True)
class EvolveConfig:
    dt: float
    t_final: float
    snapshot_stride: int = 10
    conserve_tol: float = 1e-6

    def __post_init__(self):
        check_dt(self.dt)
        if self.t_final < self.dt:
            raise MagnlsError(
                f"t_final must be at least dt = {self.dt}, got {self.t_final}")
        whole_steps(self.t_final, self.dt, "t_final")
        if self.snapshot_stride < 1:
            raise MagnlsError(
                f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        if self.conserve_tol <= 0:
            raise MagnlsError(
                f"conserve_tol must be positive, got {self.conserve_tol}")

    @property
    def frames(self) -> int:
        """Snapshots ``evolve`` records per state: t = 0, every
        ``snapshot_stride`` steps and the last step."""
        n_steps = whole_steps(self.t_final, self.dt)
        return 1 + -(-n_steps // self.snapshot_stride)

    @property
    def energy_tol(self) -> float:
        """Relative energy drift allowed: ten times the mass tolerance."""
        return 10.0 * self.conserve_tol

    @property
    def drift_limits(self) -> dict[str, float]:
        """Largest ``Trajectory.mass_drift`` and ``energy_drift`` allowed."""
        return {"mass_drift": self.conserve_tol,
                "energy_drift": self.energy_tol}


@dataclass
class Trajectory:
    """Snapshots and conserved-quantity series on a shared time base.

    ``evolve`` starts one per state (``start``) and ``record``s each
    snapshot into it.  The series are lists while the state runs, so each
    snapshot appends in O(1); ``finish`` turns them into arrays once, when
    the state's run ends.  The drifts read running maxima of |mass -
    mass[0]| and |energy - energy[0]|, so testing them is O(1) too."""

    dt: float
    energy_scale: float          # |<psi0, H psi0>| + ||psi0||_4^4 / 2
    wrap_around: float           # wrap_around_estimate(psi0)
    warnings: tuple[str, ...] = ()
    times: np.ndarray = dc_field(default_factory=list)
    snapshots: list[ComplexField] = dc_field(default_factory=list)
    mass: np.ndarray = dc_field(default_factory=list)
    energy: np.ndarray = dc_field(default_factory=list)
    h1: np.ndarray = dc_field(default_factory=list)
    _mass_excursion: float = dc_field(default=0.0, init=False, repr=False)
    _energy_excursion: float = dc_field(default=0.0, init=False, repr=False)

    @classmethod
    def start(cls, spec: HamiltonianSpec, psi0: ComplexField,
              config: EvolveConfig, sign: int) -> Trajectory:
        """The trajectory of psi0 holding its first snapshot, with a warning
        when the window outlasts the wrap-around estimate."""
        quad, quart = _energy_terms(spec, psi0)
        t_wrap = wrap_around_estimate(psi0)
        warnings = ((f"window {config.t_final:.3g} exceeds the wrap-around "
                     f"estimate {t_wrap:.3g}; late-time tails recirculate",)
                    if config.t_final > t_wrap else ())
        traj = cls(dt=config.dt, energy_scale=abs(quad) + 0.5 * quart,
                   wrap_around=t_wrap, warnings=warnings)
        traj.record(spec, 0.0, psi0.values, config, sign)
        return traj

    def record(self, spec: HamiltonianSpec, t: float, values: np.ndarray,
               config: EvolveConfig, sign: int) -> None:
        """Keep the snapshot at time t; raises ``ConservationBreach`` when a
        drift exceeds its ``config.drift_limits`` entry."""
        f = make_field(spec.grid, values)
        self.times.append(t)
        self.snapshots.append(f)
        mass = float(np.sum(np.abs(f.values) ** 2) * spec.grid.volume_element)
        energy = energy_functional(spec, f, sign)
        self.mass.append(mass)
        self.energy.append(energy)
        # np.maximum keeps a nan, as the maximum over the whole series would
        self._mass_excursion = np.maximum(self._mass_excursion,
                                          abs(mass - self.mass[0]))
        self._energy_excursion = np.maximum(self._energy_excursion,
                                            abs(energy - self.energy[0]))
        self.h1.append(norm_w1p(f, 2.0))
        for quantity, tol in config.drift_limits.items():
            drift = getattr(self, quantity)
            if drift > tol:
                raise ConservationBreach(
                    f"{quantity.replace('_', ' ')} {drift:.3e} "
                    f"exceeds {tol:g} at t = {t:.6g}",
                    quantity=quantity, drift=drift)

    def finish(self) -> None:
        """Turn the series into arrays, once the state's run has ended."""
        for name in ("times", "mass", "energy", "h1"):
            setattr(self, name, np.array(getattr(self, name)))

    @property
    def final_state(self) -> ComplexField:
        return self.snapshots[-1]

    @property
    def mass_drift(self) -> float:
        return float(self._mass_excursion) / max(self.mass[0], 1e-300)

    @property
    def energy_drift(self) -> float:
        """Relative to ``energy_scale``, which stays away from zero even
        when the energy itself crosses it."""
        return float(self._energy_excursion) / max(self.energy_scale, 1e-300)


def whole_steps(t: float, dt: float, name: str = "time") -> int:
    """The number n of steps of ``dt`` that make up the time ``t``; raises
    ``ConfigError``, calling t ``name``, unless dt is positive and n dt
    matches t to 1e-9 max(1, t)."""
    if not dt > 0.0:
        raise ConfigError(f"dt must be positive, got {dt}")
    n_steps = int(round(t / dt))
    if abs(n_steps * dt - t) > 1e-9 * max(1.0, t):
        raise ConfigError(
            f"{name} {t} is not a whole number of steps of {dt}")
    return n_steps


def _cn_step_values(spec: HamiltonianSpec, values: np.ndarray, dt: float,
                    history: list | None = None) -> np.ndarray:
    """One Crank-Nicolson step of the linear flow of one state or a stack,
    started from the rows' ``history`` when given
    (``hamiltonian.cn_power``)."""
    return cn_power(spec, values, dt, 1, history)


def _phase(values: np.ndarray, h: float) -> np.ndarray:
    """The nonlinear flow over time h: values exp(-i h |values|^2), with the
    sign s of the nonlinearity folded into h."""
    return values * np.exp(-1j * h * np.abs(values) ** 2)


def step(spec: HamiltonianSpec, psi: ComplexField, dt: float,
         sign: int) -> ComplexField:
    """One Strang step of the nonlinear flow; 0 < |dt| <= ``_MAX_DT``."""
    check_grid(spec, psi)
    check_dt(abs(dt), "|dt|")
    half = 0.5 * sign * dt
    values = _cn_step_values(spec, _phase(psi.values, half), dt)
    return make_field(spec.grid, _phase(values, half))


def _energy_terms(spec: HamiltonianSpec,
                  psi: ComplexField) -> tuple[float, float]:
    """<psi, H psi> and ||psi||_4^4."""
    quad = inner_l2(psi, apply_h(spec, psi)).real
    quart = float(np.sum(np.abs(psi.values) ** 4) * spec.grid.volume_element)
    return quad, quart


def energy_functional(spec: HamiltonianSpec, psi: ComplexField, sign: int) -> float:
    """<psi, H psi> + (s/2) ||psi||_4^4, the conserved energy of the flow."""
    quad, quart = _energy_terms(spec, psi)
    return quad + 0.5 * sign * quart


def wrap_around_estimate(psi: ComplexField) -> float:
    """Crude first-wrap time: distance to the seam over twice the group
    velocity of the 90th-percentile wavenumber of the field."""
    g = psi.grid
    power = np.abs(fftn(psi.values)) ** 2
    total = float(power.sum())
    if total == 0.0:
        return np.inf
    t_min = np.inf
    for i in range(g.dim):
        k_abs = np.abs(g.k_mesh[i]).ravel()
        w = power.ravel() / total
        order = np.argsort(k_abs)
        cdf = np.cumsum(w[order])
        k90 = float(k_abs[order][np.searchsorted(cdf, 0.9)])
        k90 = max(k90, 2.0 * np.pi / g.box_lengths[i])
        t_min = min(t_min, g.box_lengths[i] / (4.0 * k90))
    return float(t_min)


def evolve(spec: HamiltonianSpec,
           psi0: ComplexField | Sequence[ComplexField], config: EvolveConfig,
           sign: int = 1) -> Trajectory | list[Trajectory | ConservationBreach]:
    """March the nonlinear flow, monitoring mass and energy at snapshots.

    For one initial state ``psi0``, returns its ``Trajectory`` and raises
    ``ConservationBreach`` as soon as ``Trajectory.mass_drift`` or
    ``Trajectory.energy_drift`` would exceed its ``config.drift_limits``
    entry.  For a sequence of K initial states, marches them as one stack
    (module docstring) and returns, in their order, each state's
    ``Trajectory`` or the ``ConservationBreach`` at which it left the stack;
    the other states go on.  A state's result does not depend on the
    others.  The single state is the K = 1 case of the same loop.
    """
    single = isinstance(psi0, ComplexField)
    states = [psi0] if single else list(psi0)
    if not states:
        raise MagnlsError("evolve got an empty sequence of initial states")
    n_steps = whole_steps(config.t_final, config.dt)
    results: list[Trajectory | ConservationBreach] = [
        Trajectory.start(spec, f, config, sign) for f in states]
    values = np.stack([f.values for f in states])
    live = list(range(len(states)))   # the state of each row of the stack
    history = [cn_history() for _ in states]   # CN solves, row by row

    # the Strang steps with adjacent half-phases joined (module docstring)
    full = sign * config.dt
    half = 0.5 * full
    opening = half
    for n in range(1, n_steps + 1):
        values = _phase(values, opening)
        values = _cn_step_values(spec, values, config.dt, history)
        if n % config.snapshot_stride == 0 or n == n_steps:
            values = _phase(values, half)
            kept = []
            for row, idx in enumerate(live):
                try:
                    results[idx].record(spec, n * config.dt, values[row],
                                        config, sign)
                    kept.append(row)
                except ConservationBreach as exc:
                    results[idx] = exc
            if len(kept) < len(live):
                live = [live[row] for row in kept]
                if not live:
                    break
                values = values[kept]
                history = [history[row] for row in kept]
            opening = half
        else:
            opening = full

    for idx in live:
        results[idx].finish()
    if single:
        if isinstance(results[0], ConservationBreach):
            raise results[0]
        return results[0]
    return results


def linear_flow(spec: HamiltonianSpec, f: ComplexField, t: float, *,
                dt: float = 1e-3) -> ComplexField:
    """The discrete Crank-Nicolson propagator c(H)^n f of n steps of size
    t / n, which stands in for exp(-i t H) f; ``t`` may be negative.  dt
    must be positive and |t| a whole number n of steps of dt
    (``whole_steps``), else ``ConfigError``; n = 0 returns f.  The n steps
    are one ``hamiltonian.cn_power``: one product on the dense backend, one
    Arnoldi projection on the Krylov backend."""
    check_grid(spec, f)
    n = whole_steps(abs(t), dt)
    if n == 0:
        return make_field(spec.grid, f.values)
    return make_field(spec.grid, cn_power(spec, f.values, t / n, n))
