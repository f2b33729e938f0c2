"""Helmholtz projection, acoustic eigenbasis, wave group and advection.

The wave operator ``L(a, u) = (div u, grad a)`` is diagonalized over nonzero
modes by the orthonormal basis

    Phi_k^alpha = c_d * (1, -alpha*sg(k)*k/|k|)^T * exp(i k.x),
    c_d = (2*vol)^(-1/2),  alpha in {+1, -1},

with eigenvalue ``-i*alpha*sg(k)*|k|``; ``sg`` is +1 iff the first nonzero
component of k is positive (``LatticeSpec.sign_grid``).  :class:`AcousticCoeffs`
stores a state of the orthogonal complement of Ker L in this basis as a
two-component spectral field, component 0 for alpha = +1 and component 1 for
alpha = -1: the layout of ``limit.lmc`` checkpoints, which ``lowmach norms``
reads back as a plain two-component field.  The wave group ``exp(-tau*L)`` is
then a per-mode phase rotation.

The solvers step the limit system with the resonant forms
``resonance.limit_q1`` and ``resonance.limit_q2``.  The filtered quadratic
forms they are checked against (pseudospectral, direct mode sums and
closed-form time averages) live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import (
    LatticeSpec,
    SpectralField,
    _cached,
    _masked,
    forward_transform,
    inverse_transform,
)

__all__ = [
    "VacuumError",
    "helmholtz_project",
    "AcousticCoeffs",
    "acoustic_transform",
    "wave_group",
    "advect",
]


class VacuumError(RuntimeError):
    """Raised when eps*||a||_inf leaves the regime where 1 + eps*a stays away from zero."""


@_cached
def _signed_modulus(lattice: LatticeSpec) -> np.ndarray:
    """sg(k)*|k| on the full FFT grid (0 at the mean mode)."""
    return lattice.sign_grid() * lattice.k_modulus()


@_cached
def _safe_k_modulus(lattice: LatticeSpec) -> np.ndarray:
    """|k| with 1 at the mean mode, a safe divisor."""
    kmod = lattice.k_modulus().copy()
    kmod[(0,) * lattice.d] = 1.0
    return kmod


@_cached
def _safe_inv_ksq(lattice: LatticeSpec) -> np.ndarray:
    ksq = lattice.k_squared().copy()
    zero = (0,) * lattice.d
    ksq[zero] = 1.0
    inv = 1.0 / ksq
    inv[zero] = 0.0
    return inv


# The steppers' multipliers on the retained half spectrum, stored as complex
# (numpy would cast a real one through a buffer in every product); those
# whose products feed a transform carry its scales (``lattice._scales``).


@_cached
def _half_ik(lattice: LatticeSpec, scale: float) -> np.ndarray:
    """scale * i k on the retained half spectrum, shape (d, *leading axes, cut + 1)."""
    return (1j * scale) * lattice.half_wavevectors()


@_cached
def _heat_factor(lattice: LatticeSpec, mu: float, dt: float) -> np.ndarray:
    """exp(-mu |k|^2 dt): the incompressible heat factor and the
    compressible transverse factor."""
    ksq = lattice.k_squared()[..., : lattice.cutoffs[-1] + 1]
    return np.exp(-mu * ksq * dt).astype(np.complex128)


@_cached
def _viscous_symbols(lattice: LatticeSpec, mu: float, lam: float, scale: float) -> tuple:
    """scale times the symbol -mu |k|^2 of mu lap, and the symbol
    (mu + lam) i k of (mu + lam) div, whose gradient takes scale * i k."""
    laplacian = (-mu * scale) * lattice.k_squared()[..., : lattice.cutoffs[-1] + 1]
    return laplacian.astype(np.complex128), (1j * (mu + lam)) * lattice.half_wavevectors()


@_cached
def _leray_symbol(lattice: LatticeSpec, scale: float) -> np.ndarray:
    """i k / (scale |k|^2) (0 at the mean mode), the Leray projection's
    multiplier of the divergence taken with scale * i k."""
    inv_ksq = _safe_inv_ksq(lattice)[..., : lattice.cutoffs[-1] + 1]
    return (1j / scale) * lattice.half_wavevectors() * inv_ksq


@_cached
def _half_khat(lattice: LatticeSpec) -> np.ndarray:
    """k/|k| (0 at the mean mode) on the retained half spectrum."""
    kmod = _safe_k_modulus(lattice)[..., : lattice.cutoffs[-1] + 1]
    return (lattice.half_wavevectors() / kmod).astype(np.complex128)


def helmholtz_project(u: SpectralField, which: str) -> SpectralField:
    """Divergence-free ("P") or gradient ("Q") part; the mean mode goes to P."""
    lattice = u.lattice
    if u.components != lattice.d:
        raise ValueError("Helmholtz projection acts on vector fields")
    kvecs = lattice.wavevectors()
    dot = sum(k * u.coeffs[c] for c, k in enumerate(kvecs))
    inv_ksq = _safe_inv_ksq(lattice)
    q_coeffs = np.stack([dot * inv_ksq * k for k in kvecs], axis=0)
    if which == "Q":
        return SpectralField(lattice, q_coeffs)
    if which == "P":
        return SpectralField(lattice, u.coeffs - q_coeffs)
    raise ValueError("which must be 'P' or 'Q'")


@_cached
def _acoustic_mask(lattice: LatticeSpec) -> np.ndarray:
    """The dealias mask with the mean mode cleared."""
    mask = lattice.dealias_mask().copy()
    mask[(0,) * lattice.d] = False
    return mask


def _conjugate_pair(phase: np.ndarray) -> np.ndarray:
    """A per-mode factor of branch alpha = +1 stacked with its conjugate, the
    factor of branch alpha = -1."""
    return np.stack((phase, np.conj(phase)))


class AcousticCoeffs(SpectralField):
    """Coefficients of a (Ker L)-orthogonal state in the acoustic eigenbasis.

    A two-component spectral field: component 0 is the branch alpha = +1 and
    component 1 the branch alpha = -1, the layout that checkpoints store.  The
    mean mode and modes outside the dealias cutoff are zero.  The squared
    coefficient magnitudes sum to the squared L2 norm of the reconstructed
    (scalar, gradient-vector) pair.
    """

    __slots__ = ()

    def __init__(self, lattice: LatticeSpec, plus: np.ndarray, minus: np.ndarray):
        self.lattice = lattice
        coeffs = np.asarray((plus, minus), dtype=np.complex128)
        self.coeffs = _masked(coeffs, _acoustic_mask(lattice))

    @classmethod
    def zeros(cls, lattice: LatticeSpec) -> "AcousticCoeffs":
        shape = (2,) + lattice.resolution
        return cls._in_box(lattice, np.zeros(shape, np.complex128))

    def branch(self, alpha: int) -> np.ndarray:
        return self.coeffs[0 if alpha == 1 else 1]

    @property
    def plus(self) -> np.ndarray:
        return self.coeffs[0]

    @property
    def minus(self) -> np.ndarray:
        return self.coeffs[1]


def acoustic_transform(a: SpectralField, qu: SpectralField, check: bool = True) -> AcousticCoeffs:
    """Expand a (zero-mean scalar, gradient vector) pair in the eigenbasis.

    With the longitudinal amplitude ``mu_k = (k/|k|) . qu_k`` the coefficients
    are ``V_k^alpha = (a_k - alpha*sg(k)*mu_k)/sqrt(2)``.  ``check`` rejects a
    mean of a or a solenoidal part of qu above 1e-10 times max(1, max |c_k|).
    """
    lattice = a.lattice
    if check:
        tol = 1e-10 * max(1.0, float(np.max(np.abs(a.coeffs))), float(np.max(np.abs(qu.coeffs))))
        if abs(a.mean_coefficient()[0]) > tol:
            raise ValueError("scalar part must be zero-mean")
        p_part = helmholtz_project(qu, "P")
        if np.max(np.abs(p_part.coeffs)) > tol:
            raise ValueError("vector part must be a gradient field")
    kvecs = lattice.wavevectors()
    mu = sum(k * qu.coeffs[c] for c, k in enumerate(kvecs)) / _safe_k_modulus(lattice)
    sgk = lattice.sign_grid()
    ahat = a.coeffs[0]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    plus = (ahat - sgk * mu) * inv_sqrt2
    minus = (ahat + sgk * mu) * inv_sqrt2
    return AcousticCoeffs(lattice, plus, minus)


def wave_group(V: AcousticCoeffs, tau: float) -> AcousticCoeffs:
    """Acoustic propagator exp(-tau*L): phase e^{i*alpha*sg(k)*|k|*tau} per mode."""
    phase = np.exp(1j * tau * _signed_modulus(V.lattice))
    return V._like(V.coeffs * _conjugate_pair(phase))


# ---------------------------------------------------------------------------
# Advection
# ---------------------------------------------------------------------------


def advect(p: SpectralField, q: SpectralField) -> SpectralField:
    """(p . grad) q for vector fields p, q, dealiased.

    One inverse transform of (p, d_1 q, ..., d_d q) and one forward transform
    of sum_c p_c d_c q.
    """
    lattice = p.lattice
    d, nq = lattice.d, q.components
    stacked = np.concatenate(
        [p.coeffs[:d]] + [1j * k * q.coeffs for k in lattice.wavevectors()]
    )
    grid = inverse_transform(SpectralField._in_box(lattice, stacked))
    prod = sum(grid[c] * grid[d + c * nq : d + (c + 1) * nq] for c in range(d))
    return forward_transform(lattice, prod)

