"""Time integration for the slightly compressible, incompressible, and
averaged (limit) systems, with exact per-mode propagators for the stiff part.

One Lawson-type exponential RK2 step serves the three systems; each brings
its own right-hand side and linear propagator.  Nonlinear terms are
evaluated pseudospectrally with dealiasing, while the linear part is applied
through its exact per-mode exponential: a heat factor for the incompressible
and averaged systems and, for the compressible system, the longitudinal
(acoustic-viscous) 2x2 block

    d/dt [a_k, mu_k] = [[0, -i|k|/eps], [-i|k|/eps, -nu |k|^2]] [a_k, mu_k]

is exponentiated in closed form, which removes the acoustic time-step
restriction; only the advective CFL limit remains.

The pressure law is P(rho) = rho^gamma / gamma with the one exponent
``SolverConfig.gamma``.  It enters through P'(1+a)/(1+a) = 1 + kappa*a +
a*K(a) with kappa = gamma - 2 and K in closed form; K vanishes identically at
gamma = 2, where the compressible right-hand side skips its K pass.

A run is one stepper object that holds only what depends on its own state
and Mach number: the half spectra of its real fields and, for the
compressible system, the propagator's per-mode exponentials for its eps.
The multipliers that do not depend on eps (i k, the viscous symbols, the heat
factor exp(-mu |k|^2 dt), the propagator's wavevector tables) are built once
per lattice by ``lattice._cached`` builders.  The arrays that a right-hand
side fills and reads within one call, the limit forms' scratch too, come from
one workspace per lattice and thread (``_Stepper._work``), shared by every
stepper on that lattice in that thread and kept alive by them alone.  So a
step allocates only its half-spectrum stages, and a Mach sweep or an ensemble
adds per run its fields and exponentials, not a stack of scratch arrays
(:class:`CompressibleStepper`, :class:`IncompressibleStepper`,
:class:`LimitStepper`).  The limit is a pair: :class:`LimitStepper`
steps the incompressible velocity v and the averaged state V, which v
drives, as one coupled system, so that v's part of each step is the
incompressible step itself; each branch of V is the spectrum of a real
function, so V too is stepped on half spectra.  Full fields are built only
where a caller asks for a ``state()``.  :func:`step_compressible`,
:func:`step_incompressible` and :func:`step_limit` are one step of each.

A system's state is its fields and nothing else: the pair (a, u), the
velocity v, or the pair (v, V).  No state carries a time: a step is told the
time it starts at by :func:`run_lockstep`, the one loop of every run.
"""

from __future__ import annotations

import json
import math
import operator
import struct
import threading
import warnings
import weakref
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .lattice import (
    LatticeSpec,
    SpectralField,
    _cached,
    _half_forward,
    _half_inverse,
    _half_to_full,
    _mirror,
    _scale_modes,
    zero_mean_split,
)
from .dyadic import NormSpec, norm
from .operators import AcousticCoeffs, VacuumError, _safe_inv_ksq, _safe_k_modulus
from .resonance import HalfTable, ResonanceTable, _extend, limit_q1, limit_q2

__all__ = [
    "CFLError",
    "ForcingMode",
    "Forcing",
    "SolverConfig",
    "CompressibleStepper",
    "IncompressibleStepper",
    "LimitStepper",
    "AcousticViscousPropagator",
    "step_compressible",
    "step_incompressible",
    "step_limit",
    "run_lockstep",
    "run_trajectory",
    "sample_clock",
    "generate_initial_data",
    "save_checkpoint",
    "load_checkpoint",
]


class CFLError(RuntimeError):
    """Raised when the advective CFL constraint is violated."""


# The compressible and incompressible right-hand sides raise CFLError unless
# dt <= CFL_SAFETY * dx_min / max|u|.
CFL_SAFETY = 0.5


def _check_cfl(cfg: "SolverConfig", u_sq_max: float) -> None:
    """Raise CFLError if dt exceeds the advective bound for max|u|^2 = ``u_sq_max``
    or if max|u| is not finite."""
    lattice = cfg.lattice
    umax = math.sqrt(u_sq_max)
    if not math.isfinite(umax):
        raise CFLError(f"max|u| = {umax} is not finite")
    dx_min = min(
        2.0 * math.pi * float(b) / n for b, n in zip(lattice.periods, lattice.resolution)
    )
    if umax > 0 and cfg.dt > CFL_SAFETY * dx_min / umax:
        raise CFLError(
            f"dt = {cfg.dt:.3e} exceeds advective CFL bound "
            f"{CFL_SAFETY * dx_min / umax:.3e} (max|u| = {umax:.3f})"
        )


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _config_number(value, name: str, kind=float):
    """``kind(value)`` for a finite JSON number, an integer where ``kind`` is
    int; ValueError naming the config field otherwise (strings, booleans,
    NaN, the infinities and integers beyond the float range too)."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"config field {name} must be {what}, got {value!r}")
    if kind is int:
        return value
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"config field {name} is too large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"config field {name} must be finite, got {value!r}")
    return number


# the forcing envelopes: each name's time factor as a function of (omega, t)
_ENVELOPES = {
    "const": lambda omega, t: 1.0,
    "cos": lambda omega, t: math.cos(omega * t),
    "exp": lambda omega, t: math.exp(-omega * t),
}


@dataclass(frozen=True)
class ForcingMode:
    mode: tuple[int, ...]  # any sequence of integers, stored as a tuple
    amplitude: tuple[complex, ...]  # one per velocity component, stored as a tuple
    envelope: str = "const"  # a key of _ENVELOPES
    omega: float = 0.0

    def __post_init__(self):
        try:
            mode = tuple(operator.index(c) for c in self.mode)
        except TypeError:
            raise ValueError(f"forcing mode {tuple(self.mode)} has a non-integer entry") from None
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "amplitude", tuple(complex(z) for z in self.amplitude))
        object.__setattr__(self, "omega", float(self.omega))
        if not np.isfinite(self.amplitude + (self.omega,)).all():
            raise ValueError(f"forcing mode {mode} has an amplitude or omega that is not finite")
        if not isinstance(self.envelope, str) or self.envelope not in _ENVELOPES:
            *first, last = _ENVELOPES
            raise ValueError(
                f"forcing mode {mode} has unknown envelope {self.envelope!r} "
                f"({', '.join(first)} or {last})"
            )

    def factor(self, t: float) -> float:
        return _ENVELOPES[self.envelope](self.omega, t)


@dataclass(frozen=True)
class Forcing:
    """Sum of fixed Fourier modes with scalar time envelopes.

    Modes must lie in the dealiased box.  They are mirrored automatically so
    the force is real-valued; the mean mode, the only one in the box that is
    its own mirror, is set once and needs real amplitudes.
    """

    lattice: LatticeSpec
    modes: tuple[ForcingMode, ...]  # any sequence, stored as a tuple

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        lattice = self.lattice
        for fm in self.modes:
            mode = fm.mode
            if len(mode) != lattice.d or any(abs(c) > cut for c, cut in zip(mode, lattice.cutoffs)):
                raise ValueError(
                    f"forcing mode {mode} lies outside the dealiased box "
                    f"|n_h| <= {lattice.cutoffs}"
                )
            if len(fm.amplitude) != lattice.d:
                raise ValueError(
                    f"forcing mode {mode} has {len(fm.amplitude)} amplitude "
                    f"components, the lattice needs d = {lattice.d}"
                )
            if not any(mode) and any(amp.imag for amp in fm.amplitude):
                raise ValueError("the mean forcing mode needs real amplitudes")

    def half_spectrum(self, t: float) -> np.ndarray:
        """The force at time t on the retained half spectrum (columns 0..cut)."""
        lattice = self.lattice
        cut = lattice.cutoffs[-1]
        coeffs = np.zeros(
            (lattice.d,) + lattice.resolution[:-1] + (cut + 1,), dtype=np.complex128
        )
        for fm in self.modes:
            amp = fm.factor(t) * np.asarray(fm.amplitude, dtype=np.complex128)
            entries = [(fm.mode, amp)]
            if any(fm.mode):
                entries.append((tuple(-c for c in fm.mode), np.conj(amp)))
            for mode, value in entries:
                if mode[-1] >= 0:
                    idx = tuple(c % n for c, n in zip(mode, lattice.resolution))
                    coeffs[(slice(len(value)),) + idx] += value
        return coeffs

    def to_json(self) -> list:
        return [
            {
                "mode": list(fm.mode),
                "amplitude": [[z.real, z.imag] for z in fm.amplitude],
                "envelope": fm.envelope,
                "omega": fm.omega,
            }
            for fm in self.modes
        ]

    @classmethod
    def from_json(cls, lattice: LatticeSpec, data: list) -> "Forcing":
        """The forcing of a config's ``forcing`` list; ValueError names a
        malformed entry or the field of a number that is not an integer
        (mode entries) or not a finite number (amplitude parts, omega)."""
        if not isinstance(data, list):
            raise ValueError(f"config field forcing must be a list, got {data!r}")
        modes = []
        for i, entry in enumerate(data):
            name = f"forcing[{i}]"
            try:
                mode, parts = tuple(entry["mode"]), [(re, im) for re, im in entry["amplitude"]]
                envelope, omega = entry.get("envelope", "const"), entry.get("omega", 0.0)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"config field {name} is malformed: {exc!r}") from None
            unknown = sorted(entry.keys() - {"mode", "amplitude", "envelope", "omega"})
            if unknown:
                keys = ", ".join(f"{name}.{key}" for key in unknown)
                raise ValueError(f"unknown config keys: {keys}")
            amplitude = tuple(
                complex(*(_config_number(x, f"{name}.amplitude") for x in part)) for part in parts
            )
            modes.append(
                ForcingMode(
                    mode=tuple(_config_number(c, f"{name}.mode", int) for c in mode),
                    amplitude=amplitude,
                    envelope=envelope,
                    omega=_config_number(omega, f"{name}.omega"),
                )
            )
        return cls(lattice, modes)


@dataclass(frozen=True)
class SolverConfig:
    """Run description shared by the three steppers; ``gamma`` is the
    exponent of the pressure law P(rho) = rho^gamma / gamma."""

    lattice: LatticeSpec
    mu: float = 0.1
    lam: float = 0.0
    eps: float = 0.1
    gamma: float = 2.0
    dt: float = 1e-2
    t_final: float = 1.0
    forcing: Forcing | None = None
    sample_stride: int = 1

    def __post_init__(self):
        for name in ("mu", "lam", "eps", "gamma", "dt", "t_final"):
            object.__setattr__(self, name, _config_number(getattr(self, name), name))
        _config_number(self.sample_stride, "sample_stride", int)
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")
        if not (self.mu >= 0 and self.nu >= 0):
            raise ValueError("viscosities must satisfy mu >= 0 and nu = 2*mu+lam >= 0")
        if not (0 < self.eps <= 1):
            raise ValueError("Mach number must lie in (0, 1]")
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        ratio = self.t_final / self.dt
        if not math.isfinite(ratio) or round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError(
                f"dt = {self.dt!r} does not divide t_final = {self.t_final!r} "
                "into a whole number of steps"
            )
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be at least 1")
        if self.forcing is not None:
            _check_fields(self.lattice, forcing=(self.forcing, None))
            for fm in self.forcing.modes:
                try:  # each envelope is monotone or bounded on [0, t_final]
                    fm.factor(self.t_final)
                except OverflowError:
                    raise ValueError(
                        f"forcing mode {fm.mode}: the {fm.envelope} envelope with omega = "
                        f"{fm.omega!r} overflows before t_final = {self.t_final!r}"
                    ) from None

    @property
    def nu(self) -> float:
        return 2.0 * self.mu + self.lam

    @property
    def kappa(self) -> float:
        """The linear coefficient of P'(1+a)/(1+a) = 1 + kappa*a + a*K(a)."""
        return self.gamma - 2.0

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


# ---------------------------------------------------------------------------
# Exact propagators
# ---------------------------------------------------------------------------


# Multipliers on the retained half spectrum that do not depend on eps, built
# once per lattice.  Real multipliers are stored as complex: numpy would
# otherwise cast them, through a temporary buffer, in every product with the
# data.


@_cached
def _half_ik(lattice: LatticeSpec) -> np.ndarray:
    """i k on the retained half spectrum, shape (d, *leading axes, cut + 1)."""
    return 1j * lattice.half_wavevectors()


@_cached
def _heat_factor(lattice: LatticeSpec, mu: float, dt: float) -> np.ndarray:
    """exp(-mu |k|^2 dt): the incompressible heat factor and the
    compressible transverse factor."""
    ksq = lattice.k_squared()[..., : lattice.cutoffs[-1] + 1]
    return np.exp(-mu * ksq * dt).astype(np.complex128)


@_cached
def _viscous_symbols(lattice: LatticeSpec, mu: float, lam: float) -> tuple:
    """The symbols -mu |k|^2 of mu lap and (mu + lam) i k of (mu + lam) grad div."""
    laplacian = -mu * lattice.k_squared()[..., : lattice.cutoffs[-1] + 1]
    return laplacian.astype(np.complex128), (mu + lam) * _half_ik(lattice)


@_cached
def _leray_symbol(lattice: LatticeSpec) -> np.ndarray:
    """i k / |k|^2 (0 at the mean mode), the Leray projection's multiplier."""
    return _half_ik(lattice) * _safe_inv_ksq(lattice)[..., : lattice.cutoffs[-1] + 1]


@_cached
def _half_directions(lattice: LatticeSpec) -> tuple:
    """The wavevectors k, |k| (1 at the mean mode) and k/|k|."""
    kmod = _safe_k_modulus(lattice)[..., : lattice.cutoffs[-1] + 1]
    kvecs = lattice.half_wavevectors()
    return tuple(x.astype(np.complex128) for x in (kvecs, kmod, kvecs / kmod))


class AcousticViscousPropagator:
    """Per-mode exact exponential of the linear compressible operator, on the
    retained half spectrum.  It holds the exponentials of its eps
    (``e11``, ``e12``, ``e22``) and reads the lattice's cached transverse
    factor and wavevector tables."""

    def __init__(self, lattice: LatticeSpec, dt: float, eps: float, nu: float, mu: float):
        cut = lattice.cutoffs[-1]
        ksq = lattice.k_squared()[..., : cut + 1]
        c = -nu * ksq  # longitudinal damping
        delta_sq = (c / 2.0) ** 2 - ksq / eps**2  # Delta^2 = (c/2)^2 + b^2
        delta = np.sqrt(delta_sq.astype(np.complex128))
        x = delta * dt
        cosh = np.cosh(x)
        small = np.abs(x) < 1e-6
        with np.errstate(divide="ignore", invalid="ignore"):
            sinhc = np.where(small, 1.0, np.sinh(np.where(small, 1.0, x)) / np.where(small, 1.0, x))
        # series fallback: sinh(x)/x = 1 + x^2/6 + x^4/120
        xs = np.where(small, x, 0.0)
        sinhc = np.where(small, 1.0 + xs**2 / 6.0 + xs**4 / 120.0, sinhc)
        cosh = np.where(small, 1.0 + xs**2 / 2.0 + xs**4 / 24.0, cosh)
        s = sinhc * dt  # sinh(Delta dt)/Delta
        front = np.exp(c * dt / 2.0)
        b = -1j * lattice.k_modulus()[..., : cut + 1] / eps
        self.e11 = front * (cosh - (c / 2.0) * s)
        self.e12 = front * b * s
        self.e22 = front * (cosh + (c / 2.0) * s)
        zero = (0,) * lattice.d
        self.e11[zero] = 1.0
        self.e12[zero] = 0.0
        self.e22[zero] = 1.0
        self.transverse = _heat_factor(lattice, mu, dt)
        self.kvecs, self.kmod, self.khat = _half_directions(lattice)

    def apply(self, a: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance the half spectra of a (one component) and u (d components).

        On the mean mode ``khat`` vanishes and ``transverse`` is 1, so the
        mean velocity is left as it is.
        """
        mu_long = sum(k * uc for k, uc in zip(self.kvecs, u)) / self.kmod
        a_hat = a[0]
        new_a = self.e11 * a_hat + self.e12 * mu_long
        new_mu = self.e12 * a_hat + self.e22 * mu_long
        # transverse (u - mu_long khat) + new_mu khat, one component at a
        # time: a broadcast operand makes numpy allocate iterator buffers
        new_u = np.empty_like(u)
        for k, uc, out in zip(self.khat, u, new_u):
            np.subtract(uc, np.multiply(mu_long, k, out=out), out=out)
            out *= self.transverse
            out += new_mu * k
        return new_a[None], new_u


# ---------------------------------------------------------------------------
# Steppers: one Lawson RK2 step, three right-hand sides
# ---------------------------------------------------------------------------


def _lawson_rk2(x: tuple, t: float, dt: float, linear, rhs) -> tuple:
    """One Lawson (integrating-factor) RK2 step of dx/dt = L x + N(x, t).

    ``x`` is a tuple of fields or arrays, ``linear`` maps such a tuple through
    the exact one-step exponential P = exp(dt L), and ``rhs(x, t)`` returns
    N(x, t) as a tuple of the same shape.  With n0 = N(x, t) and
    n1 = N(P(x + dt n0), t + dt) the step is P(x) + (dt/2) (P(n0) + n1),
    evaluated as the equal (P is linear) P(x + (dt/2) n0) + (dt/2) n1 with two
    applications of P.
    """
    n0 = rhs(x, t)
    half = linear(tuple(xi + (dt / 2.0) * ni for xi, ni in zip(x, n0)))
    predictor = linear(tuple(xi + dt * ni for xi, ni in zip(x, n0)))
    del n0  # free it before the second evaluation, the step's memory peak
    n1 = rhs(predictor, t + dt)
    return tuple(hi + (dt / 2.0) * ni for hi, ni in zip(half, n1))


def _rotation(ik: np.ndarray, u: np.ndarray, pairs: list, out: np.ndarray) -> None:
    """Half spectra of d_i u_j - d_j u_i for each pair i < j, into ``out``."""
    for n, (i, j) in enumerate(pairs):
        np.subtract(ik[i] * u[j], ik[j] * u[i], out=out[n])


def _add_lamb(lamb: np.ndarray, u: np.ndarray, rot: np.ndarray, pairs: list, scratch) -> None:
    """Add the Lamb term -sum_i u_i (d_i u_j - d_j u_i), which is
    grad(|u|^2/2) - (u.grad)u, to ``lamb`` from the grid values of u and of
    the :func:`_rotation` components; ``scratch`` is one grid-sized array."""
    for (i, j), r in zip(pairs, rot):
        lamb[i] += np.multiply(u[j], r, out=scratch)
        lamb[j] -= np.multiply(u[i], r, out=scratch)


class _Workspace:
    """The arrays that a right-hand side fills and reads within one call,
    shared by the steppers of one lattice in one thread (``_Stepper._work``).

    Each array has a leading component axis and holds as many components as
    the largest request so far: ``spectral`` and ``forward`` half spectra
    (complex), ``grid`` and ``products`` grid values (real), ``spectrum`` the
    real-data FFT output (complex), and ``forms`` the limit forms' gathers and
    products (complex entries, no further axis).  A right-hand side slices
    the components it needs at each call and keeps no view, since a larger
    request replaces an array.
    """

    def __init__(self, lattice: LatticeSpec):
        n, cut = lattice.resolution, lattice.cutoffs[-1]
        half = n[:-1] + (cut + 1,)
        # per array: its shape after the component axis and its dtype
        self.layout = {
            "spectral": (half, np.complex128),
            "grid": (n, np.float64),
            "products": (n, np.float64),
            "spectrum": (n[:-1] + (n[-1] // 2 + 1,), np.complex128),
            "forward": (half, np.complex128),
            "forms": ((), np.complex128),
        }

    def reserve(self, counts: dict) -> "_Workspace":
        """Grow each array named in ``counts`` to at least that many components."""
        for name, count in counts.items():
            if len(getattr(self, name, ())) < count:
                shape, dtype = self.layout[name]
                setattr(self, name, np.empty((count,) + shape, dtype))
        return self


class _Workspaces(threading.local):
    """Per thread, its workspaces by lattice, held weakly: a workspace lives
    as long as a stepper holds it."""

    def __init__(self):
        self.by_lattice = weakref.WeakValueDictionary()


_workspaces = _Workspaces()


class _Stepper:
    """One run of dx/dt = L x + N(x, t): a subclass holds the state ``x`` (a
    tuple of arrays) and ``counts``, the components it needs of each
    workspace array, and gives ``linear``, the exact one-step exponential of
    L, ``rhs``, the right-hand side N, and ``state()``, the system's fields
    built from ``x``.  The stepper keeps no clock."""

    def step(self, t: float) -> None:
        """One Lawson RK2 step started at time ``t``."""
        self.x = _lawson_rk2(self.x, t, self.cfg.dt, self.linear, self.rhs)

    def _work(self) -> _Workspace:
        """The calling thread's workspace of the lattice, grown to this
        stepper's ``counts``; the stepper holds it until the next call."""
        lattice = self.cfg.lattice
        work = _workspaces.by_lattice.get(lattice)
        if work is None:
            work = _workspaces.by_lattice[lattice] = _Workspace(lattice)
        self.work = work.reserve(self.counts)
        return self.work


def _check_fields(lattice: LatticeSpec, **fields) -> None:
    """Reject a field that a stepper on ``lattice`` would misread; each
    keyword maps the field's name to (field, expected component count), a
    count of None checking the lattice alone.  A stepper keeps a field's half
    spectrum only, so each component must stand for a real function: finite
    coefficients must be Hermitian (non-finite ones are left to the steps'
    checks)."""
    for name, (value, components) in fields.items():
        if value.lattice != lattice:
            raise ValueError(f"{name} lives on {value.lattice}, not on the config's {lattice}")
        if components is None:
            continue
        if value.components != components:
            raise ValueError(f"{name} has {value.components} components, expected {components}")
        if np.isfinite(value.coeffs).all() and not value.is_reality_symmetric():
            raise ValueError(f"{name} is not real: its coefficients are not Hermitian")


def _one_step(stepper: _Stepper, t: float):
    """The state after one step of ``stepper`` started at time ``t``."""
    stepper.step(t)
    return stepper.state()


def _pressure_remainder(a: np.ndarray, gamma: float) -> np.ndarray:
    """K(a) of the law P(rho) = rho^gamma / gamma through
    P'(1+a)/(1+a) = 1 + (gamma - 2)*a + a*K(a); smooth with K(0) = 0."""
    a = np.asarray(a, dtype=np.float64)
    e = gamma - 2.0
    small = np.abs(a) < 1e-4
    asafe = np.where(small, 1.0, a)
    out = ((1.0 + asafe) ** e - 1.0 - e * asafe) / asafe
    # quadratic Taylor start, relative error O(a^2) below the switch
    coef2 = 0.5 * e * (e - 1.0)
    coef3 = e * (e - 1.0) * (e - 2.0) / 6.0
    return np.where(small, coef2 * a + coef3 * a * a, out)


class CompressibleStepper(_Stepper):
    """The compressible system for one run, stepped on half spectra.

    Holds the exact propagator, the warn-once flag of the vacuum check
    (``vacuum_warned``) and the retained half spectra (columns 0..cut) of the
    real fields a and u as ``x = (a, u)``.  Its right-hand side works in the
    lattice's workspace: ``spectral`` holds the half spectra of the inverse
    stack (a, u, d_i u_j - d_j u_i for i < j, viscous term), which the
    inverse transform overwrites; ``grid`` its grid values; ``products`` the
    forward stack (a u, |u|^2/2, Lamb term, and a^2/2 unless gamma = 2), then
    the grid values of eps a; ``spectrum`` the forward stack's real-data
    FFT; ``forward`` its half spectra.
    """

    def __init__(self, cfg: SolverConfig, a: SpectralField, u: SpectralField):
        _check_fields(cfg.lattice, a=(a, 1), u=(u, cfg.lattice.d))
        lattice = cfg.lattice
        d, cut = lattice.d, lattice.cutoffs[-1]
        self.cfg = cfg
        self.propagator = AcousticViscousPropagator(lattice, cfg.dt, cfg.eps, cfg.nu, cfg.mu)
        self.vacuum_warned = False
        self.x = (a.coeffs[..., : cut + 1], u.coeffs[..., : cut + 1])
        self.pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        self.ik = _half_ik(lattice)
        self.laplacian, self.grad_div = _viscous_symbols(lattice, cfg.mu, cfg.lam)
        # a^2/2 is read only by the pressure terms kappa a^2/2 and K, which
        # vanish at gamma = 2
        self.n_products = 2 * d + 1 + (cfg.gamma != 2.0)
        stack, products = 1 + 2 * d + len(self.pairs), self.n_products
        self.counts = dict(
            spectral=stack, grid=stack, products=products + 1, spectrum=products, forward=products
        )
        self._work()

    def _grid_terms(self, a: np.ndarray, u: np.ndarray, work: _Workspace) -> np.ndarray:
        """Grid values for the right-hand side, from one inverse pass.

        Transforms the half spectra of (a, u, d_i u_j - d_j u_i for i < j,
        viscous term) at once, runs the vacuum and CFL checks, and fills the
        forward stack (a u, |u|^2/2, Lamb term minus I(eps a) times the
        viscous term mu lap u + (mu + lam) grad div u, and a^2/2 unless
        gamma = 2) and, after it, the grid values of eps a, which it returns.
        The Lamb term -sum_i u_i (d_i u_j - d_j u_i) is grad(|u|^2/2) -
        (u.grad)u.
        """
        cfg = self.cfg
        lattice = cfg.lattice
        d = lattice.d
        pairs, ik = self.pairs, self.ik
        # components: a | u | d_i u_j - d_j u_i for each pair i < j | viscous term
        spectral = work.spectral[: self.counts["spectral"]]
        spectral[0] = a[0]
        spectral[1 : 1 + d] = u
        _rotation(ik, u, pairs, spectral[1 + d : 1 + d + len(pairs)])
        visc = spectral[1 + d + len(pairs) :]
        div_u = sum(ik[c] * u[c] for c in range(d))
        for c in range(d):  # per component: see AcousticViscousPropagator.apply
            np.multiply(u[c], self.laplacian, out=visc[c])
            visc[c] += self.grad_div[c] * div_u
        grid = _half_inverse(spectral, lattice, out=work.grid[: len(spectral)])
        a_grid, u_grid = grid[0], grid[1 : 1 + d]
        rot_grid = grid[1 + d : 1 + d + len(pairs)]
        visc_grid = grid[1 + d + len(pairs) :]
        # (a u, |u|^2/2, Lamb - I(eps a) visc[, a^2/2]), eps a; the Lamb term's
        # first slot holds the squares of the velocity components until the
        # Lamb term is written
        products, eps_a = work.products, work.products[self.n_products]
        u_sq = np.square(u_grid[0], out=products[d])
        for c in range(1, d):
            u_sq += np.square(u_grid[c], out=products[d + 1])

        amax = float(np.max(np.abs(a_grid, out=eps_a)))
        if not math.isfinite(amax):
            raise VacuumError(f"||a||_inf = {amax} is not finite")
        if cfg.eps * amax >= 1.0:
            raise VacuumError(
                f"eps*||a||_inf = {cfg.eps * amax:.3f} >= 1: density reached vacuum"
            )
        if cfg.eps * amax > 0.5 and not self.vacuum_warned:
            self.vacuum_warned = True
            warnings.warn(
                f"eps*||a||_inf = {cfg.eps * amax:.3f} > 1/2: uniform bound lost",
                RuntimeWarning,
            )
        _check_cfl(cfg, float(np.max(u_sq)))

        np.multiply(a_grid, cfg.eps, out=eps_a)
        u_sq *= 0.5
        for c in range(d):
            np.multiply(a_grid, u_grid[c], out=products[c])
        if cfg.gamma != 2.0:
            np.multiply(a_grid, 0.5, out=products[2 * d + 1])
            products[2 * d + 1] *= a_grid
        # a's grid values are read no more: their slot is the scratch from here on
        scratch = a_grid
        # I(eps a) = eps a / (1 + eps a)
        quotient = np.divide(eps_a, np.add(eps_a, 1.0, out=scratch), out=scratch)
        lamb = products[d + 1 : 2 * d + 1]
        for c in range(d):
            np.negative(np.multiply(quotient, visc_grid[c], out=lamb[c]), out=lamb[c])
        _add_lamb(lamb, u_grid, rot_grid, pairs, scratch)
        return eps_a

    def rhs(self, x: tuple, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Right-hand side beyond the exactly-propagated linear part, on the
        retained half spectra ``x = (a, u)``.

        One inverse transform (:meth:`_grid_terms`) and one forward transform
        of the products, in rotational form: (u.grad)u = grad(|u|^2/2) - Lamb
        and a grad a = grad(a^2/2), both exact for the dealiased products.
        Unless gamma = 2, the K term multiplies the grid values of the
        dealiased a grad a, which costs one more inverse and forward pass.
        The transforms work in the lattice's workspace; the returned arrays
        are new.
        """
        a, u = x
        cfg = self.cfg
        lattice = cfg.lattice
        d = lattice.d
        ik = self.ik
        work = self._work()
        eps_a = self._grid_terms(a, u, work)
        m = self.n_products
        dealiased = _half_forward(
            work.products[:m], lattice, out=work.forward[:m], spectrum=work.spectrum[:m]
        )
        au, u_sq, lamb = dealiased[:d], dealiased[d], dealiased[d + 1 : 2 * d + 1]

        # continuity: -div(a u)
        n_a = (-1.0 * sum(ik[c] * au[c] for c in range(d)))[None]

        # momentum: -(u.grad)u - kappa a grad a - K(eps a) a grad a - I(eps a) Au + f,
        # = (Lamb - I(eps a) Au) - grad(|u|^2/2 + kappa a^2/2) - K(eps a) grad(a^2/2) + f;
        # kappa and K vanish at gamma = 2
        n_u = np.empty_like(u)
        pressure = u_sq if cfg.gamma == 2.0 else u_sq + cfg.kappa * dealiased[2 * d + 1]
        for c in range(d):
            np.subtract(lamb[c], np.multiply(ik[c], pressure, out=n_u[c]), out=n_u[c])
        if cfg.gamma != 2.0:
            # the K pass reuses the first d components of each array
            a_grad_a = np.multiply(ik, dealiased[2 * d + 1], out=work.spectral[:d])
            a_grad_a_grid = _half_inverse(a_grad_a, lattice, out=work.grid[:d])
            k_term = np.multiply(
                _pressure_remainder(eps_a, cfg.gamma), a_grad_a_grid, out=work.products[:d]
            )
            n_u -= _half_forward(k_term, lattice, out=work.forward[:d], spectrum=work.spectrum[:d])
        if cfg.forcing is not None:
            n_u = n_u + cfg.forcing.half_spectrum(t)
        return n_a, n_u

    def linear(self, x: tuple) -> tuple[np.ndarray, np.ndarray]:
        return self.propagator.apply(*x)

    def state(self) -> tuple[SpectralField, SpectralField]:
        """The current (a, u) as full, Hermitian fields."""
        lat = self.cfg.lattice
        return tuple(SpectralField._in_box(lat, _half_to_full(y, lat)) for y in self.x)


def step_compressible(a: SpectralField, u: SpectralField, t: float, cfg: SolverConfig) -> tuple:
    """One Lawson RK2 step of the rescaled compressible system on the half
    spectra of a and u, through a :class:`CompressibleStepper` built for it
    alone; returns the full Hermitian fields (a, u) at ``t + dt``."""
    return _one_step(CompressibleStepper(cfg, a, u), t)


class IncompressibleStepper(_Stepper):
    """The incompressible system for one run, stepped on the half spectrum.

    Holds the half spectrum of the real velocity v and the lattice's cached
    heat factor ``heat`` = exp(-mu |k|^2 dt) and Leray multipliers.  Its
    right-hand side works in the lattice's workspace: the inverse stack on
    the half spectrum (transformed in place) and on the grid, the Lamb
    term's grid values and one grid-sized scratch (``products``), their
    real-data FFT and their half spectra.
    """

    def __init__(self, cfg: SolverConfig, v: SpectralField):
        _check_fields(cfg.lattice, v=(v, cfg.lattice.d))
        lattice = cfg.lattice
        d, cut = lattice.d, lattice.cutoffs[-1]
        self.cfg, self.x = cfg, (v.coeffs[..., : cut + 1],)
        self.heat = _heat_factor(lattice, cfg.mu, cfg.dt)
        self.ik = _half_ik(lattice)
        self.ik_over_ksq = _leray_symbol(lattice)
        self.pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        stack = d + len(self.pairs)
        self.counts = dict(spectral=stack, grid=stack, products=d + 1, spectrum=d, forward=d)
        self._work()

    def linear(self, x: tuple) -> tuple[np.ndarray]:
        return (_scale_modes(x[0], self.heat),)

    def rhs(self, x: tuple, t: float) -> tuple[np.ndarray]:
        """P(f - (v.grad)v) on the half spectrum ``x = (v,)``, as a new array:
        P(Lamb + f), since (v.grad)v = grad(|v|^2/2) - Lamb and P kills
        gradients.  One inverse transform of (v, d_i v_j - d_j v_i for i < j),
        the CFL check on v's grid values, and one forward transform of the
        Lamb term."""
        (v,) = x
        cfg, lattice, d = self.cfg, self.cfg.lattice, self.cfg.lattice.d
        work = self._work()
        spectral = work.spectral[: self.counts["spectral"]]
        spectral[:d] = v
        _rotation(self.ik, v, self.pairs, spectral[d:])
        grid = _half_inverse(spectral, lattice, out=work.grid[: len(spectral)])
        lamb, scratch = work.products[:d], work.products[d]
        # |v|^2 in the scratch, with the Lamb term's first slot as the
        # scratch of the squares, before the Lamb term is written
        v_sq = np.square(grid[0], out=scratch)
        for c in range(1, d):
            v_sq += np.square(grid[c], out=lamb[0])
        _check_cfl(cfg, float(np.max(v_sq)))
        lamb.fill(0.0)
        _add_lamb(lamb, grid[:d], grid[d:], self.pairs, scratch)
        w = _half_forward(lamb, lattice, out=work.forward[:d], spectrum=work.spectrum[:d])
        if cfg.forcing is not None:
            w += cfg.forcing.half_spectrum(t)
        # Leray projection w - k (k.w)/|k|^2 = w + ik (ik.w)/|k|^2, which
        # leaves the mean mode as it is
        ik_dot_w = sum(ik * wc for ik, wc in zip(self.ik, w))
        out = np.empty_like(v)
        for ik, wc, oc in zip(self.ik_over_ksq, w, out):
            np.add(wc, np.multiply(ik, ik_dot_w, out=oc), out=oc)
        return (out,)

    def state(self) -> SpectralField:
        """The current full, Hermitian velocity field."""
        lattice = self.cfg.lattice
        return SpectralField._in_box(lattice, _half_to_full(self.x[0], lattice))


def _check_finite_V(V: np.ndarray) -> None:
    """Raise ValueError if the averaged state V has a non-finite coefficient.
    v's non-finite values stop a step at the CFL check, but no grid maximum
    of V is read, and V does not feed back into v."""
    if not np.isfinite(V).all():
        raise ValueError("V has non-finite coefficients")


class LimitStepper(IncompressibleStepper):
    """The limit pair for one run: the incompressible velocity v and the
    averaged state V that v drives, stepped together as ``x = (v, V)``.

    v is the incompressible run's half spectrum, stepped by the inherited
    code, so that its part of every step is the incompressible step.  Each
    branch of V is the spectrum of a real function, so V is stored as the
    half spectra of its two branches, with the heat factor ``heat_V`` =
    exp(-nu |k|^2 dt/2) on the half spectrum.  V's right-hand side
    -Q1(v, V) - Q2(V, V) reads the table's half-box entries (``table``, a
    :class:`~lowmach.resonance.HalfTable`) and v of the same stage, and
    raises ValueError on a non-finite V; the two forms fill the workspace's
    ``forms`` array in turn.  A ``table`` given whole is restricted to its
    half-box entries, and only those are kept.
    """

    def __init__(
        self,
        cfg: SolverConfig,
        v: SpectralField,
        V: AcousticCoeffs,
        table: ResonanceTable | HalfTable,
    ):
        super().__init__(cfg, v)
        _check_fields(cfg.lattice, V=(V, 2), table=(table, None))
        _check_finite_V(V.coeffs)
        lattice = cfg.lattice
        self.x = self.x + (V.coeffs[..., : lattice.cutoffs[-1] + 1],)
        self.heat_V = _heat_factor(lattice, 0.5 * cfg.nu, cfg.dt)
        table = self.table = table.half()
        self.counts = dict(self.counts, forms=2 * max(table.q1_m.size, table.q2_m.size))
        self._work()

    def linear(self, x: tuple) -> tuple[np.ndarray, np.ndarray]:
        return super().linear(x[:1]) + (_scale_modes(x[1], self.heat_V),)

    def rhs(self, x: tuple, t: float) -> tuple[np.ndarray, np.ndarray]:
        _check_finite_V(x[1])
        v, V = (_extend(y) for y in x)
        forms = self._work().forms
        q1 = limit_q1(v, V, self.table, forms)
        q2 = limit_q2(V, self.table, self.cfg.kappa, forms)
        return super().rhs(x[:1], t) + (-1.0 * q1 - q2,)

    def state(self) -> tuple[SpectralField, AcousticCoeffs]:
        """The current (v, V) as full fields; V's branches are Hermitian."""
        lattice = self.cfg.lattice
        V = AcousticCoeffs._in_box(lattice, _half_to_full(self.x[1], lattice))
        return super().state(), V


def step_incompressible(v: SpectralField, t: float, cfg: SolverConfig) -> SpectralField:
    """One Lawson RK2 step of the incompressible system (heat integrating
    factor), through an :class:`IncompressibleStepper` built for it alone;
    returns v at ``t + dt``."""
    return _one_step(IncompressibleStepper(cfg, v), t)


def step_limit(
    v: SpectralField, V: AcousticCoeffs, t: float, cfg: SolverConfig, table: ResonanceTable
) -> tuple[SpectralField, AcousticCoeffs]:
    """One Lawson RK2 step of the coupled incompressible and averaged
    systems, through a :class:`LimitStepper` built for it alone; returns
    (v, V) at ``t + dt``."""
    return _one_step(LimitStepper(cfg, v, V, table), t)


# ---------------------------------------------------------------------------
# The stepping loop
# ---------------------------------------------------------------------------


def sample_clock(cfg: SolverConfig):
    """The sample times after time 0: every ``sample_stride`` steps and the
    last, each at step * dt exactly."""
    for stop in (*range(cfg.sample_stride, cfg.n_steps, cfg.sample_stride), cfg.n_steps):
        yield stop * cfg.dt


def run_lockstep(steppers: dict, clock_cfg: SolverConfig, on_sample=None) -> dict:
    """Advance every stepper of ``steppers`` (name -> stepper) to each sample
    time t of :func:`sample_clock` on ``clock_cfg`` in turn, and call
    ``on_sample(t, steppers)`` there; return each stepper's stepping wall
    time, keyed by its name.

    A stepper takes the whole number of its own ``cfg.dt`` steps that reaches
    t, and its step n starts at exactly n * dt.  A stepper whose dt does not
    divide a sample time raises ValueError naming it, before any step.  The
    loop builds no full field: a state is built only where the hook asks a
    stepper for its ``state()``.
    """
    times = list(sample_clock(clock_cfg))
    stops = {}  # per stepper, its step count at time 0 and at each sample
    for key, stepper in steppers.items():
        dt = stepper.cfg.dt
        stops[key] = [0] + [round(t / dt) for t in times]
        for t, n in zip(times, stops[key][1:]):
            if abs(t / dt - n) > 1e-9 * (t / dt):
                raise ValueError(
                    f"stepper {key!r}: dt = {dt!r} does not divide the sample time {t!r}"
                )
    clock = dict.fromkeys(steppers, 0.0)
    for i, t in enumerate(times):
        for key, stepper in steppers.items():
            t0 = perf_counter()
            for n in range(stops[key][i], stops[key][i + 1]):
                stepper.step(n * stepper.cfg.dt)
            clock[key] += perf_counter() - t0
        if on_sample is not None:
            on_sample(t, steppers)
    return clock


# The one-step functions step_* above and run_trajectory, with ``kind`` third
# and positional, stay under these names: bench/tracer.py binds them by name
# and labels the run_trajectory spans with args[2].  _one_step is only the
# step functions' helper.
def run_trajectory(
    initial, cfg: SolverConfig, kind: str, table: ResonanceTable | None = None, on_sample=None
):
    """The state at t_final of the run from ``initial`` at time 0:
    :func:`run_lockstep` over the one stepper named ``kind``.

    ``kind`` selects the system and the form of its state: "compressible"
    (the pair (a, u)), "incompressible" (the velocity v), or "limit" (the
    pair (v, V) of the incompressible velocity and the averaged state,
    stepped together; it also needs the resonance table).  ``on_sample(t,
    steppers)``, if given, is called at each sample time t after 0 with
    ``steppers = {kind: stepper}``; the stepper's ``state()`` is the state
    at t.
    """
    if kind == "compressible":
        stepper = CompressibleStepper(cfg, *initial)
    elif kind == "incompressible":
        stepper = IncompressibleStepper(cfg, initial)
    elif kind == "limit":
        if table is None:
            raise ValueError("limit runs need a resonance table")
        stepper = LimitStepper(cfg, *initial, table)
    else:
        raise ValueError(f"unknown trajectory kind {kind!r}")
    del initial  # the stepper holds what it reads of it, until its first step
    run_lockstep({kind: stepper}, cfg, on_sample)
    return stepper.state()


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------


def generate_initial_data(
    lattice: LatticeSpec,
    amplitude_a: float,
    amplitude_u: float,
    smoothness: float = 3.0,
    seed: int = 0,
):
    """Random band-limited data with prescribed critical-space norms.

    Spectrum |g_k| ~ (1 + |k|)^(-smoothness) with random phases, mirrored to
    be real-valued; the scalar part is zero-mean.  Both parts are rescaled so
    that the d/2-regularity norm of a0 and the (d/2 - 1)-norm of u0 match the
    requested amplitudes exactly.
    """
    rng = np.random.default_rng(seed)
    shape = (1 + lattice.d,) + lattice.resolution
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    envelope = (1.0 + lattice.k_modulus()) ** (-smoothness)
    raw *= envelope
    sym = 0.5 * (raw + np.conj(_mirror(raw, range(1, lattice.d + 1))))
    _, a = zero_mean_split(SpectralField(lattice, sym[:1]))
    u = SpectralField(lattice, sym[1:])
    d = lattice.d
    na = norm(a, NormSpec(s=d / 2.0, r=1))
    nu_ = norm(u, NormSpec(s=d / 2.0 - 1.0, r=1))
    if na == 0 or nu_ == 0:
        raise ValueError("degenerate random draw; change the seed")
    return (amplitude_a / na) * a, (amplitude_u / nu_) * u


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"LOWMACHK1\n"


def save_checkpoint(path: str, lattice: LatticeSpec, time: float, fields: dict, meta=None):
    """Binary checkpoint: magic, JSON header, then raw little-endian complex128.

    Header schema: {"schema": 1, "time": t, "lattice": descriptor,
    "fields": [{"name": ..., "shape": [...]}], "meta": {...}}; payload is the
    concatenation of each field's coefficients as '<c16' in C order.
    """
    entries = []
    blobs = []
    for name, value in fields.items():
        if isinstance(value, SpectralField):
            arr = value.coeffs
        else:
            arr = np.asarray(value, dtype=np.complex128)
        arr = np.ascontiguousarray(arr.astype("<c16"))
        entries.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = json.dumps(
        {
            "schema": 1,
            "time": time,
            "lattice": lattice.descriptor(),
            "fields": entries,
            "meta": meta or {},
        },
        sort_keys=True,
    ).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str):
    """Inverse of :func:`save_checkpoint`; returns (lattice, time, arrays, meta).

    A file cut short, longer than its header describes, or whose header is
    not a UTF-8 JSON object with a valid ``lattice`` descriptor, ``time`` and
    ``fields`` (each with a string ``name`` and a ``shape`` of non-negative
    integers) raises ValueError.
    """
    damaged = f"damaged checkpoint {path!r}"
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError("not a checkpoint file")
        raw = fh.read(4)
        hlen = struct.unpack("<I", raw)[0] if len(raw) == 4 else 0
        head = fh.read(hlen)
        if len(raw) < 4 or len(head) < hlen:
            raise ValueError(f"{damaged}: the header is cut short")
        payload = fh.read()
    try:
        header = json.loads(head.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError
        header = None
    if not isinstance(header, dict):
        raise ValueError(f"{damaged}: the header is not a UTF-8 JSON object")
    missing = [key for key in ("lattice", "time", "fields") if key not in header]
    if missing:
        raise ValueError(f"{damaged}: the header lacks {', '.join(missing)}")
    entries = header["fields"]
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and "name" in e and "shape" in e for e in entries
    ):
        raise ValueError(f"{damaged}: a field entry lacks its name or shape")
    for entry in entries:
        name, shape = entry["name"], entry["shape"]
        if not isinstance(name, str):
            raise ValueError(f"{damaged}: a field name is {name!r}, not a string")
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise ValueError(
                f"{damaged}: field {name!r} has shape {shape!r}, "
                "not a list of non-negative integers"
            )
    try:
        lattice = LatticeSpec.from_descriptor(header["lattice"])
    except ValueError as exc:
        raise ValueError(f"{damaged}: {exc}") from None
    counts = [int(np.prod(entry["shape"])) for entry in entries]
    if len(payload) != 16 * sum(counts):
        raise ValueError(
            f"{damaged}: the header describes {16 * sum(counts)} "
            f"payload bytes, the file holds {len(payload)}"
        )
    arrays = {}
    offset = 0
    for entry, count in zip(entries, counts):
        arrays[entry["name"]] = np.frombuffer(
            payload, dtype="<c16", count=count, offset=offset
        ).reshape(entry["shape"])
        offset += 16 * count
    return lattice, header["time"], arrays, header.get("meta", {})
