"""The referee: slow reference forms that the tests compare the library with,
and the random fields the tests draw.

Nothing in ``src/lowmach`` calls these.  They are the direct truncated
convolution, the Bony paraproduct and the sharp modulus truncation, the
pseudospectral filtered quadratic forms with their direct mode-sum
evaluations and closed-form time averages, the pressure law's expansion
defect, the low-band bridge constant, and the 80-digit scaled-integer
square-root test.  Each is written for clarity over speed, and several
cost time quadratic in the number of retained modes, so they are only for
small lattices.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from lowmach.dyadic import BumpProfile, block_range, dyadic_block, low_cut
from lowmach.lattice import (
    GridField,
    LatticeSpec,
    SpectralField,
    dealiased_product,
    forward_transform,
    spectral_derivative,
    zero_mean_split,
)
from lowmach.operators import (
    AcousticCoeffs,
    PressureLaw,
    _conjugate_pair,
    _signed_modulus,
    acoustic_inverse,
    acoustic_transform,
    advect,
    helmholtz_project,
    wave_group,
)

# ---------------------------------------------------------------------------
# Random test data
# ---------------------------------------------------------------------------


def random_field(lattice, rng, components=1, zero_mean=False):
    """A reality-symmetric field from standard normal grid samples, its mean
    mode cleared with ``zero_mean``."""
    values = rng.standard_normal((components,) + lattice.resolution)
    field = forward_transform(GridField(lattice, values))
    if zero_mean:
        coeffs = field.coeffs.copy()
        coeffs[(slice(None),) + (0,) * lattice.d] = 0.0
        field = SpectralField(lattice, coeffs, reality=True)
    return field


def random_acoustic(lattice, rng, scale=1.0):
    """Acoustic coefficients of a random (zero-mean scalar, gradient) pair."""
    a = random_field(lattice, rng, zero_mean=True)
    qu = helmholtz_project(random_field(lattice, rng, components=lattice.d), "Q")
    return acoustic_transform(scale * a, scale * qu)


# ---------------------------------------------------------------------------
# Square roots
# ---------------------------------------------------------------------------


def sqrt_sum_oracle(terms, digits=80):
    """Scaled-integer square roots: exact to `digits` decimal digits."""
    scale = 10**digits
    total = 0
    for s, n in terms:
        total += s * math.isqrt(n * scale * scale)
    # each isqrt floors by at most 1
    return abs(total) <= len(terms)


# ---------------------------------------------------------------------------
# Lattice: grid points and the direct convolution
# ---------------------------------------------------------------------------


def grid_points(lattice: LatticeSpec) -> tuple[np.ndarray, ...]:
    axes = [
        np.arange(n) * (2.0 * math.pi * float(b) / n)
        for n, b in zip(lattice.resolution, lattice.periods)
    ]
    return np.meshgrid(*axes, indexing="ij")


def convolution_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Direct truncated Fourier convolution.

    Exact-arithmetic reference for :func:`dealiased_product`; coefficients of
    the result at modes unreachable by retained-mode sums are exactly zero.
    Cost is quadratic in the number of retained modes, so this is only for
    small lattices and frequency-support tests.
    """
    if f.lattice != g.lattice:
        raise ValueError("fields live on different lattices")
    if f.components != 1 or g.components != 1:
        raise ValueError("convolution oracle handles scalar fields")
    lattice = f.lattice
    mask = lattice.dealias_mask()
    res = lattice.resolution
    norm = 1.0 / math.sqrt(lattice.volume)
    out = np.zeros(res, dtype=np.complex128)
    f_idx = np.argwhere(mask)
    for idx in f_idx:
        fval = f.coeffs[(0,) + tuple(idx)]
        if fval == 0:
            continue
        shifted = np.roll(
            g.coeffs[0], shift=tuple(int(i) for i in idx), axis=tuple(range(lattice.d))
        )
        out += fval * shifted
    out *= norm
    return SpectralField(lattice, out[None], reality=f.reality and g.reality)


# ---------------------------------------------------------------------------
# Dyadic: partition of unity, paraproducts and truncations
# ---------------------------------------------------------------------------


def partition_sum(profile: BumpProfile, r, jmin: int, jmax: int) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64)
    total = np.zeros_like(r)
    for j in range(jmin, jmax + 1):
        total = total + profile(np.ldexp(r, -j))
    return total


def bony_paraproduct(f: SpectralField, g: SpectralField, product: Callable = dealiased_product):
    """Four-part product splitting: (T_f g, T_g f, R(f, g), mean*mean).

    The parts sum to the dealiased product of f and g on retained modes.  A
    different ``product`` callable (e.g. the exact convolution oracle) can be
    supplied for exact-arithmetic frequency-support checks.
    """
    lattice = f.lattice
    js = list(block_range(lattice))
    blocks_f = {j: dyadic_block(f, j) for j in js}
    blocks_g = {j: dyadic_block(g, j) for j in js}

    t_fg = SpectralField.zeros(lattice, f.components, reality=f.reality and g.reality)
    t_gf = SpectralField.zeros(lattice, f.components, reality=f.reality and g.reality)
    rem = SpectralField.zeros(lattice, f.components, reality=f.reality and g.reality)
    for j in js:
        t_fg = t_fg + product(low_cut(f, j - 2), blocks_g[j])
        t_gf = t_gf + product(low_cut(g, j - 2), blocks_f[j])
        for jp in js:
            if abs(j - jp) <= 2:
                rem = rem + product(blocks_f[j], blocks_g[jp])
    mean_f, _ = zero_mean_split(f)
    mean_g, _ = zero_mean_split(g)
    mean_mean = product(mean_f, mean_g)
    return t_fg, t_gf, rem, mean_mean


def mode_truncate(obj, cutoff: float, keep: str = "low"):
    """Sharp modulus truncation: keep |k| <= cutoff ("low") or > ("high").

    The mean mode counts as |k| = 0 and is retained by the low part.
    """
    low = obj.lattice.k_modulus() <= cutoff + 1e-12
    weights = low.astype(np.float64) if keep == "low" else (~low).astype(np.float64)
    return obj.scale_modes(weights)


# ---------------------------------------------------------------------------
# Functionals: the low-band bridge constant
# ---------------------------------------------------------------------------

# Besov(2,2)/Sobolev equivalence bound measured from the shipped bump profile
# for regularity indices in [-1, 1] (worst observed ratio 2.1406).
HS_EQUIV_BOUND = 2.15


def bridge_constant(lattice: LatticeSpec, theta: float) -> float:
    """Constant in the low-band/low-regularity bridge, from lattice frequencies.

    Combines the Cauchy-Schwarz block constant (1 + sum over active blocks of
    2^(-2*j*theta))^(1/2) with the Besov(2,2)/Sobolev equivalence bound of the
    shipped bump profile.
    """
    js = list(block_range(lattice))
    block_sum = sum(2.0 ** (-2 * j * theta) for j in js)
    return math.sqrt(1.0 + block_sum) * HS_EQUIV_BOUND


# ---------------------------------------------------------------------------
# Operators: generalized sign and pressure law
# ---------------------------------------------------------------------------


def sg(k) -> int:
    """Generalized sign: +1 iff the first nonzero component of k is positive."""
    for comp in np.atleast_1d(np.asarray(k)).ravel():
        if comp > 0:
            return 1
        if comp < 0:
            return -1
    raise ValueError("sg is undefined at k = 0")


def expansion_defect(law: PressureLaw, amax: float = 0.5, samples: int = 512) -> float:
    """Max deviation of 1 + kappa*a + a*K(a) from P'(1+a)/(1+a) on [-amax, amax]."""
    if law.gamma is None:
        return 0.0
    a = np.linspace(-amax, amax, samples)
    exact = (1.0 + a) ** (law.gamma - 2.0)
    model = 1.0 + law.kappa * a + a * law.remainder(a)
    return float(np.max(np.abs(exact - model)))


# ---------------------------------------------------------------------------
# Filtered quadratic forms: pseudospectral path
# ---------------------------------------------------------------------------


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
