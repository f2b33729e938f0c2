"""Helmholtz projection, acoustic eigenbasis, wave group, and filtered forms.

The wave operator ``L(a, u) = (div u, grad a)`` is diagonalized over nonzero
modes by the orthonormal basis

    Phi_k^alpha = c_d * (1, -alpha*sg(k)*k/|k|)^T * exp(i k.x),
    c_d = (2*vol)^(-1/2),  alpha in {+1, -1},

with eigenvalue ``-i*alpha*sg(k)*|k|``; ``sg`` is +1 iff the first nonzero
component of k is positive.  :class:`AcousticCoeffs` stores a state of the
orthogonal complement of Ker L in this basis as a two-component spectral
field, component 0 for alpha = +1 and component 1 for alpha = -1: the layout
of ``limit.lmc`` checkpoints, which ``lowmach norms`` reads back as a plain
two-component field.  The wave group ``exp(-tau*L)`` is then a per-mode phase
rotation.

The filtered quadratic forms are provided twice: a pseudospectral evaluation
(grid products, FFT cost) and a direct mode-sum path (quadratic cost) kept as
its oracle, plus closed-form time averages.  The tests use them to check the
limit system; the solvers step it with the resonant forms
``resonance.limit_q1`` and ``resonance.limit_q2``.
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
    dealiased_product,
    forward_transform,
    inverse_transform,
    spectral_derivative,
)

__all__ = [
    "VacuumError",
    "sg",
    "helmholtz_project",
    "AcousticCoeffs",
    "acoustic_transform",
    "acoustic_inverse",
    "wave_group",
    "PressureLaw",
    "advect",
    "q1_eps",
    "q2_eps",
    "a2_eps",
    "q1_eps_modesum",
    "q2_eps_modesum",
    "q1_eps_time_average",
    "q2_eps_time_average",
    "a2_eps_time_average",
]


class VacuumError(RuntimeError):
    """Raised when eps*||a||_inf leaves the regime where 1 + eps*a stays away from zero."""


def sg(k) -> int:
    """Generalized sign: +1 iff the first nonzero component of k is positive."""
    for comp in np.atleast_1d(np.asarray(k)).ravel():
        if comp > 0:
            return 1
        if comp < 0:
            return -1
    raise ValueError("sg is undefined at k = 0")


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

    def expansion_defect(self, amax: float = 0.5, samples: int = 512) -> float:
        """Max deviation of 1 + kappa*a + a*K(a) from P'(1+a)/(1+a) on [-amax, amax]."""
        if self.gamma is None:
            return 0.0
        a = np.linspace(-amax, amax, samples)
        exact = (1.0 + a) ** (self.gamma - 2.0)
        model = 1.0 + self.kappa * a + a * self.remainder(a)
        return float(np.max(np.abs(exact - model)))


# ---------------------------------------------------------------------------
# Filtered quadratic forms: pseudospectral path
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


def q1_eps(
    u: SpectralField, B: AcousticCoeffs, t: float, eps: float
) -> AcousticCoeffs:
    """Filtered advection form: L(-t/e)(div(u L1 B); Q(u.grad L2 B + L2 B.grad u)).

    ``u`` must be divergence-free (its mean mode may be nonzero).
    """
    scalar, vector = acoustic_inverse(wave_group(B, t / eps))
    s_part = spectral_derivative(dealiased_product(u, scalar), "div")
    v_part = helmholtz_project(advect(u, vector) + advect(vector, u), "Q")
    out = acoustic_transform(s_part, v_part, check=False)
    return wave_group(out, -t / eps)


def q2_eps(
    A: AcousticCoeffs, B: AcousticCoeffs, t: float, eps: float, kappa: float = 0.0
) -> AcousticCoeffs:
    """Filtered symmetric acoustic form, including the kappa pressure term."""
    aA, wA = acoustic_inverse(wave_group(A, t / eps))
    aB, wB = acoustic_inverse(wave_group(B, t / eps))
    mixed = dealiased_product(aA, wB) + dealiased_product(aB, wA)
    s_part = 0.5 * spectral_derivative(mixed, "div")
    dot = SpectralField.zeros(A.lattice, 1, reality=True)
    for c in range(A.lattice.d):
        dot = dot + dealiased_product(wA.component(c), wB.component(c))
    v_part = 0.5 * spectral_derivative(
        dot + kappa * dealiased_product(aA, aB), "grad"
    )
    out = acoustic_transform(s_part, v_part, check=False)
    return wave_group(out, -t / eps)


def a2_eps(B: AcousticCoeffs, t: float, eps: float) -> AcousticCoeffs:
    """Filtered viscous symbol: per mode
    -(1/2) sum_alpha alpha*gamma*|k|^2 B_k^alpha e^{i(t/eps)(alpha-gamma)sg(k)|k|}."""
    lattice = B.lattice
    ksq = lattice.k_squared()
    rate = _signed_modulus(lattice)
    osc = _conjugate_pair(np.exp(-2j * (t / eps) * rate))
    return B._like(-0.5 * ksq * (B.coeffs - B.coeffs[::-1] * osc), False)


# ---------------------------------------------------------------------------
# Mode-sum oracles and closed-form time averages
# ---------------------------------------------------------------------------


@_cached
def _box_modes(lattice: LatticeSpec, include_zero: bool):
    """(mode index tuple, raw FFT index tuple) of each dealiased mode, the
    mean mode only with ``include_zero``."""
    grids = lattice.index_grids()
    out = []
    for raw in np.argwhere(lattice.dealias_mask()):
        raw = tuple(int(i) for i in raw)
        n = tuple(int(g[raw]) for g in grids)
        if include_zero or any(n):
            out.append((n, raw))
    return out


def _mod_vec(n, b):
    return math.sqrt(sum((c / float(bb)) ** 2 for c, bb in zip(n, b)))


def _phase_factor(omega: float, t: float, eps: float) -> complex:
    return complex(np.exp(1j * (t / eps) * omega))


def _average_factor(omega: float, T: float, eps: float) -> complex:
    """(1/T) * integral_0^T e^{i omega t / eps} dt, exactly."""
    if omega == 0.0:
        return 1.0 + 0.0j
    x = omega * T / eps
    return (np.exp(1j * x) - 1.0) / (1j * x)


def _band_keeps(lattice, band, kmod, lmod) -> bool:
    """Interaction-band predicate for the low/high frequency split."""
    if band is None:
        return True
    side, M = band
    low = kmod <= M + 1e-12 and lmod <= M + 1e-12
    return low if side == "low" else not low


def _q1_modesum_generic(u, B, t, eps, factor, band=None) -> AcousticCoeffs:
    lattice = u.lattice
    b = lattice.periods
    vol = lattice.volume
    out = AcousticCoeffs.zeros(lattice)
    modes = _box_modes(lattice, False)
    uhat = {}
    for n, raw in _box_modes(lattice, True):
        uhat[n] = np.array([u.coeffs[c][raw] for c in range(lattice.d)])
    for m, raw_m in modes:
        mmod = _mod_vec(m, b)
        sgm = sg(m)
        for gamma, target in ((1, out.plus), (-1, out.minus)):
            total = 0.0 + 0.0j
            for k, raw_k in modes:
                l = tuple(mi - ki for mi, ki in zip(m, k))
                ul = uhat.get(l)
                if ul is None:
                    continue
                kmod = _mod_vec(k, b)
                if not _band_keeps(lattice, band, kmod, _mod_vec(l, b)):
                    continue
                sgk = sg(k)
                k_dot_u = sum(ki / float(bi) * uc for ki, bi, uc in zip(k, b, ul))
                lm_dot_k = sum(
                    (li + mi) / float(bi) * ki / float(bi)
                    for li, mi, ki, bi in zip(l, m, k, b)
                )
                for alpha, coeff in ((1, B.plus[raw_k]), (-1, B.minus[raw_k])):
                    if coeff == 0:
                        continue
                    bracket = 1.0 + alpha * gamma * sgk * sgm * lm_dot_k / (kmod * mmod)
                    omega = alpha * sgk * kmod - gamma * sgm * mmod
                    total += coeff * k_dot_u * bracket * factor(omega, t, eps)
            target[raw_m] = 1j / (2.0 * math.sqrt(vol)) * total
    return out


def q1_eps_modesum(u, B, t: float, eps: float, band=None) -> AcousticCoeffs:
    """Direct double-sum evaluation of the filtered advection form."""
    return _q1_modesum_generic(u, B, t, eps, _phase_factor, band=band)


def q1_eps_time_average(u, B, T: float, eps: float) -> AcousticCoeffs:
    """(1/T) * integral over [0, T] of the filtered advection form, exactly."""
    return _q1_modesum_generic(u, B, T, eps, _average_factor)


def _q2_modesum_generic(A, B, t, eps, kappa, factor, band=None) -> AcousticCoeffs:
    lattice = A.lattice
    b = lattice.periods
    c_d = 1.0 / math.sqrt(2.0 * lattice.volume)
    out = AcousticCoeffs.zeros(lattice)
    modes = _box_modes(lattice, False)
    index = {n: raw for n, raw in modes}
    for m, raw_m in modes:
        mmod = _mod_vec(m, b)
        sgm = sg(m)
        for gamma, target in ((1, out.plus), (-1, out.minus)):
            total = 0.0 + 0.0j
            for k, raw_k in modes:
                l = tuple(mi - ki for mi, ki in zip(m, k))
                raw_l = index.get(l)
                if raw_l is None or all(c == 0 for c in l):
                    continue
                kmod = _mod_vec(k, b)
                lmod = _mod_vec(l, b)
                if not _band_keeps(lattice, band, kmod, lmod):
                    continue
                sgk, sgl = sg(k), sg(l)
                l_dot_m = sum(
                    li / float(bi) * mi / float(bi) for li, mi, bi in zip(l, m, b)
                )
                k_dot_l = sum(
                    ki / float(bi) * li / float(bi) for ki, li, bi in zip(k, l, b)
                )
                for alpha in (1, -1):
                    a_k = A.branch(alpha)[raw_k]
                    b_k = B.branch(alpha)[raw_k]
                    for beta in (1, -1):
                        b_l = B.branch(beta)[raw_l]
                        a_l = A.branch(beta)[raw_l]
                        sym = 0.5 * (a_k * b_l + b_k * a_l)
                        if sym == 0:
                            continue
                        bracket = (
                            beta * sgl * sgm * l_dot_m / (lmod * mmod)
                            + gamma * kappa / 2.0
                            + alpha * beta * gamma / 2.0 * sgk * sgl * k_dot_l / (kmod * lmod)
                        )
                        omega = alpha * sgk * kmod + beta * sgl * lmod - gamma * sgm * mmod
                        total += sym * bracket * factor(omega, t, eps)
            target[raw_m] = -1j * c_d / 2.0 * sgm * mmod * total
    return out


def q2_eps_modesum(
    A, B, t: float, eps: float, kappa: float = 0.0, band=None
) -> AcousticCoeffs:
    """Direct double-sum evaluation of the filtered symmetric form."""
    return _q2_modesum_generic(A, B, t, eps, kappa, _phase_factor, band=band)


def q2_eps_time_average(A, B, T: float, eps: float, kappa: float = 0.0) -> AcousticCoeffs:
    """(1/T) * integral over [0, T] of the filtered symmetric form, exactly."""
    return _q2_modesum_generic(A, B, T, eps, kappa, _average_factor)


def a2_eps_time_average(B: AcousticCoeffs, T: float, eps: float) -> AcousticCoeffs:
    """(1/T) * integral over [0, T] of the filtered viscous symbol, exactly."""
    lattice = B.lattice
    ksq = lattice.k_squared()
    rate = _signed_modulus(lattice)
    x = -2.0 * (T / eps) * rate
    with np.errstate(divide="ignore", invalid="ignore"):
        avg = np.where(x != 0.0, (np.exp(1j * x) - 1.0) / (1j * np.where(x == 0, 1, x)), 1.0)
    return B._like(-0.5 * ksq * (B.coeffs - B.coeffs[::-1] * _conjugate_pair(avg)), False)
