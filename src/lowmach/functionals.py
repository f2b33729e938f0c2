"""Trajectory energy functionals and convergence diagnostics.

Each functional is assembled from banded time-inside (tilde) and plain
time-integrated norms of the recorded trajectories exactly as defined by the
high/medium/low frequency framework: sup-in-time norms are maxima over the
recorded samples, time integrals use the trapezoid rule on the sample grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import (
    BlockEnergies,
    NormSpec,
    _energy_matrix,
    _mode_power,
    block_range,
    chemin_lerner_norm,
    time_norm,
)
from .lattice import LatticeSpec, _cached
from .operators import _safe_inv_ksq, _signed_modulus

__all__ = [
    "DiagnosticsRow",
    "FunctionalSettings",
    "compute_functionals",
    "sample_energies",
    "bridge_constant",
    "HS_EQUIV_BOUND",
]

_INF = float("inf")

# Besov(2,2)/Sobolev equivalence bound measured from the shipped bump profile
# for regularity indices in [-1, 1] (worst observed ratio 2.1406).
HS_EQUIV_BOUND = 2.15


@dataclass(frozen=True)
class FunctionalSettings:
    """Thresholds entering the banded functionals."""

    eps: float
    zeta: float
    eta0: float
    theta: float

    @property
    def high_cut(self) -> float:
        return self.eta0 / self.eps

    def medium_band_nonempty(self) -> bool:
        return self.zeta < self.high_cut


@dataclass
class DiagnosticsRow:
    eps: float
    t_final: float
    values: dict = field(default_factory=dict)
    wall_time: float = 0.0


def _b(s, band="full", eta=None, zeta=None, underlined=False):
    return NormSpec(
        kind="B", s=s, p=2, r=1, band=band, eta=eta, zeta=zeta, underlined=underlined
    )


def _energy(times, fields, s, underlined=False, **band) -> float:
    """Sup in time of the s-1 norm plus the time integral of the s+1 norm
    (whose mean mode ``underlined`` drops)."""
    return chemin_lerner_norm(times, fields, _INF, _b(s - 1, **band)) + time_norm(
        times, fields, 1.0, _b(s + 1, underlined=underlined, **band)
    )


def _acoustic(times, fields, s, **band) -> float:
    """Time-inside L^inf of the s-1 norm plus time-inside L^2 of the s norm."""
    return chemin_lerner_norm(times, fields, _INF, _b(s - 1, **band)) + chemin_lerner_norm(
        times, fields, 2.0, _b(s, **band)
    )


@_cached
def _box_multipliers(lattice: LatticeSpec) -> tuple:
    """Per-mode multipliers on the half box (``LatticeSpec.half_box``): the
    wavevectors (one row per axis), 1/|k|^2, the acoustic factor 1/sqrt(2),
    the wave-group frequency sg(k)|k|, all 0 at the mean mode, and sg(k)|k|
    with 1 there, a safe divisor."""
    index = lattice.half_box()[0]
    k = np.stack([kh.ravel()[index] for kh in lattice.wavevectors()])
    frequency = _signed_modulus(lattice).ravel()[index]
    acoustic = (frequency != 0) / math.sqrt(2.0)
    divisor = np.where(frequency == 0, 1.0, frequency)
    return k, _safe_inv_ksq(lattice).ravel()[index], acoustic, frequency, divisor


def sample_energies(state: tuple, partner: tuple, t: float, eps: float, theta: float) -> dict:
    """Block-energy rows of the six diagnostic series at one sample.

    ``state`` is the compressible pair (a, u) at time ``t`` and Mach number
    ``eps``, and ``partner`` the limit pair (v, V) at the same time.  The
    series are a, Qu, Pu, the bundle (a, Qu), Veps - V and Pu - v, with
    the Helmholtz parts Pu, Qu of u and the filtered state
    Veps = L(-t/eps)(a, Qu); every row carries the Sobolev sum of order
    d/2 - theta that Z_theta reads.

    The series are formed on the half box alone, where the Helmholtz split,
    the acoustic transform and the wave group are per-mode multipliers that
    round as ``helmholtz_project``, ``acoustic_transform`` and ``wave_group``
    do.  One product with the weight matrix reduces them; it counts each mode
    with n_d > 0 for its n_d-mirror too, which is exact for Hermitian series:
    the fields of real functions and each branch of V.
    """
    lattice = state[0].lattice
    index = lattice.half_box()[0]
    a, u, v, V = (
        np.take(f.coeffs.reshape(f.components, -1), index, axis=1) for f in (*state, *partner)
    )
    k, inv_ksq, acoustic, frequency, divisor = _box_multipliers(lattice)
    pu = u - k * (np.sum(k * u, axis=0) * inv_ksq)
    qu = u - pu
    signed_mu = np.sum(k * qu, axis=0) / divisor
    phase = np.exp(1j * (-t / eps) * frequency)
    plus, minus = (a[0] - signed_mu) * acoustic, (a[0] + signed_mu) * acoustic
    veps = np.stack((plus * phase, minus * np.conj(phase)))
    h_orders = (lattice.d / 2 - theta,)
    power = np.stack([_mode_power(x) for x in (a, qu, pu, veps - V, pu - v)])
    energies = power @ _energy_matrix(lattice, h_orders).T
    rows = {
        key: BlockEnergies(lattice, h_orders, row)
        for key, row in zip(("a", "Qu", "Pu", "Vdiff", "udiff"), energies)
    }
    rows["aQu"] = rows["a"] + rows["Qu"]
    return rows


def compute_functionals(times, rows: list, settings: FunctionalSettings) -> DiagnosticsRow:
    """Evaluate the full diagnostics row from the :func:`sample_energies` rows
    of a compressible run, one per sample time."""
    times = np.asarray(times)
    if len(rows) != times.size:
        raise ValueError(f"{len(rows)} sample rows for {times.size} sample times")
    a, qu, aqu, pu, vdiff, udiff = (
        [row[key] for row in rows] for key in ("a", "Qu", "aQu", "Pu", "Vdiff", "udiff")
    )
    s, eps, zeta, hi = a[0].lattice.d / 2, settings.eps, settings.zeta, settings.high_cut
    high_a = eps * chemin_lerner_norm(times, a, _INF, _b(s, "h", eta=hi))
    high_a += (1.0 / eps) * time_norm(times, a, 1.0, _b(s, "h", eta=hi))
    # high/medium bracket of the compressible state
    hm = eps * chemin_lerner_norm(times, a, _INF, _b(s)) + high_a
    hm += _energy(times, qu, s, band="h", eta=hi)
    if settings.medium_band_nonempty():
        hm += _energy(times, aqu, s, band="m", zeta=zeta, eta=hi)
    hm += _energy(times, pu, s, band="h", eta=zeta)
    # low-frequency brackets of the (state, velocity) pairs
    low = dict(band="l", zeta=zeta)
    low_diff = _acoustic(times, vdiff, s, **low) + _energy(times, udiff, s, True, **low)
    low_state = _acoustic(times, aqu, s, **low) + _energy(times, pu, s, True, **low)
    theta = settings.theta
    values = {
        "X": high_a + _energy(times, a, s, band="l", zeta=hi) + _energy(times, qu, s),
        "P": _energy(times, pu, s, True),
        "D": hm + low_diff,
        "Y": hm + low_state,
        "Z_theta": chemin_lerner_norm(times, vdiff, _INF, NormSpec(kind="H", s=s - 1 - theta))
        + time_norm(times, vdiff, 2.0, NormSpec(kind="H", s=s - theta)),
        "W_theta": _energy(times, udiff, s - theta, True),
        "eps_a_linf_besov": eps * chemin_lerner_norm(times, a, _INF, _b(s)),
        "Vdiff_composite": _acoustic(times, vdiff, s),
        "Pudiff_composite": _energy(times, udiff, s, True),
        "hm_bracket": hm,
        "low_bracket_diff": low_diff,
    }
    values["W_theta_scaled"] = values["W_theta"] / eps ** (theta / (1.0 + theta))
    for key, val in values.items():
        if not (np.isfinite(val) and val >= 0):
            raise ValueError(f"functional {key} is not finite and nonnegative: {val}")
    return DiagnosticsRow(eps=eps, t_final=float(times[-1]), values=values)


def bridge_constant(lattice: LatticeSpec, theta: float) -> float:
    """Constant in the low-band/low-regularity bridge, from lattice frequencies.

    Combines the Cauchy-Schwarz block constant (1 + sum over active blocks of
    2^(-2*j*theta))^(1/2) with the Besov(2,2)/Sobolev equivalence bound of the
    shipped bump profile.
    """
    js = list(block_range(lattice))
    block_sum = sum(2.0 ** (-2 * j * theta) for j in js)
    return math.sqrt(1.0 + block_sum) * HS_EQUIV_BOUND
