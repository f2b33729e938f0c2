"""Helmholtz projection, acoustic eigenbasis, wave group, pressure law and advection.

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
from dataclasses import dataclass

import numpy as np

from .lattice import (
    GridField,
    LatticeSpec,
    SpectralField,
    _cached,
    forward_transform,
    inverse_transform,
)

__all__ = [
    "VacuumError",
    "helmholtz_project",
    "AcousticCoeffs",
    "acoustic_transform",
    "acoustic_inverse",
    "wave_group",
    "PressureLaw",
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
        return SpectralField(lattice, q_coeffs, reality=u.reality)
    if which == "P":
        return SpectralField(lattice, u.coeffs - q_coeffs, reality=u.reality)
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
        self.coeffs = np.asarray((plus, minus), dtype=np.complex128) * _acoustic_mask(lattice)
        self.reality = False

    @classmethod
    def zeros(cls, lattice: LatticeSpec) -> "AcousticCoeffs":
        shape = (2,) + lattice.resolution
        return cls._in_box(lattice, np.zeros(shape, np.complex128), False)

    @classmethod
    def from_modes(cls, lattice: LatticeSpec, entries: dict) -> "AcousticCoeffs":
        """Build from ``{(mode tuple, alpha): value}`` entries."""
        out = cls.zeros(lattice)
        for (mode, alpha), value in entries.items():
            if alpha not in (1, -1):
                raise ValueError("alpha must be +1 or -1")
            idx = tuple(int(m) % n for m, n in zip(mode, lattice.resolution))
            out.branch(alpha)[idx] = value
        return out

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


def acoustic_inverse(V: AcousticCoeffs) -> tuple[SpectralField, SpectralField]:
    """Reconstruct the (zero-mean scalar, gradient vector) pair."""
    lattice = V.lattice
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    ahat = (V.plus + V.minus) * inv_sqrt2
    sgk = lattice.sign_grid()
    mu = -sgk * (V.plus - V.minus) * inv_sqrt2
    kmod = _safe_k_modulus(lattice)
    kvecs = lattice.wavevectors()
    qu = np.stack([mu * k / kmod for k in kvecs], axis=0)
    reality = V.is_reality_symmetric()
    return (
        SpectralField(lattice, ahat[None], reality=reality),
        SpectralField(lattice, qu, reality=reality),
    )


def wave_group(V: AcousticCoeffs, tau: float) -> AcousticCoeffs:
    """Acoustic propagator exp(-tau*L): phase e^{i*alpha*sg(k)*|k|*tau} per mode."""
    phase = np.exp(1j * tau * _signed_modulus(V.lattice))
    return V._like(V.coeffs * _conjugate_pair(phase), False)


# ---------------------------------------------------------------------------
# Pressure law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PressureLaw:
    """Normalized pressure law through P'(1+a)/(1+a) = 1 + kappa*a + a*K(a).

    Either a power law with exponent ``gamma`` (closed-form remainder K) or a
    truncated Taylor description of K.
    """

    kappa: float
    gamma: float | None = None
    taylor: tuple[float, ...] = ()

    @classmethod
    def gamma_law(cls, gamma: float = 2.0) -> "PressureLaw":
        """P(rho) = rho^gamma / gamma, so P'(1) = 1 and kappa = gamma - 2."""
        if not gamma > 0:
            raise ValueError(f"gamma must be positive, got {gamma!r}")
        return cls(kappa=float(gamma) - 2.0, gamma=float(gamma))

    @classmethod
    def from_taylor(cls, kappa: float, coeffs) -> "PressureLaw":
        """K(a) = sum_n coeffs[n-1] * a^n, truncated Taylor representation."""
        coeffs = tuple(float(c) for c in coeffs)
        if len(coeffs) > 8:
            raise ValueError("at most 8 Taylor coefficients are supported")
        return cls(kappa=float(kappa), taylor=coeffs)

    @property
    def remainder_is_zero(self) -> bool:
        """K vanishes identically: gamma = 2, or every Taylor coefficient is 0."""
        if self.gamma is not None:
            return self.gamma == 2.0
        return not any(self.taylor)

    def remainder(self, a: np.ndarray) -> np.ndarray:
        """K(a), smooth with K(0) = 0."""
        a = np.asarray(a, dtype=np.float64)
        if self.gamma is not None:
            e = self.gamma - 2.0
            small = np.abs(a) < 1e-4
            asafe = np.where(small, 1.0, a)
            out = ((1.0 + asafe) ** e - 1.0 - e * asafe) / asafe
            # quadratic Taylor start, relative error O(a^2) below the switch
            coef2 = 0.5 * e * (e - 1.0)
            coef3 = e * (e - 1.0) * (e - 2.0) / 6.0
            out = np.where(small, coef2 * a + coef3 * a * a, out)
            return out
        out = np.zeros_like(a)
        for c in reversed(self.taylor):
            out = a * (out + c)
        return out

    def quotient(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """I(a) = a / (1 + a), written to ``out`` when given."""
        a = np.asarray(a, dtype=np.float64)
        return np.divide(a, np.add(a, 1.0, out=out), out=out)


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
    reality = p.reality and q.reality
    stacked = np.concatenate(
        [p.coeffs[:d]] + [1j * k * q.coeffs for k in lattice.wavevectors()]
    )
    grid = inverse_transform(SpectralField._in_box(lattice, stacked, reality)).values
    prod = sum(grid[c] * grid[d + c * nq : d + (c + 1) * nq] for c in range(d))
    return forward_transform(GridField(lattice, prod)).copy_with_reality(reality)

