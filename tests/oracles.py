"""The referee: slow reference forms that the tests compare the library with,
and the random fields the tests draw.

Nothing in ``src/lowmach`` calls these.  They are the direct truncated
convolution, the Bony paraproduct and the sharp modulus truncation, the
pseudospectral filtered quadratic forms with their direct mode-sum
evaluations and closed-form time averages, the pressure law's expansion
defect, the low-band bridge constant, the 80-digit scaled-integer
square-root test, and the two-time-scale correctors with the low-band
remainder that they remove.  Each term of the remainder oscillates as
exp(i omega t/eps), and its corrector is the same term divided by i omega;
both sum over one list of non-resonant triads, m in the box and
|k|, |l| <= M, whatever cutoff the triads were enumerated at, with the
indices and weights that the correctors alone read added to the library's
enumeration (:func:`with_corrector_keys`).

The library's fields are half spectra.  The referees that index modes on
the full FFT grid expand their inputs there at their entry (:func:`full`,
through :func:`_half_to_full`, the full-grid path the library no longer
has) and reduce their results to half spectra at their exit
(:func:`from_full`), after checking that they are Hermitian.

Beside them stands the field API that only the tests use: the symbol
calculus (:func:`spectral_derivative`), the reconstruction from acoustic
coefficients (:func:`acoustic_inverse`), fields built from mode entries, a
forcing as a field, and the limit forms on fields (:func:`limit_q1`,
:func:`limit_q2`), which the library evaluates on stacked half spectra, Q2
as a quadratic form only.  The steppers' Lawson step has its
reference here too, on tuples of fields with a new tuple per stage
(:func:`lawson_rk2`).  One fake stands beside them: the compressible
stepper without its right-hand side, which steps the exact linear
propagator alone.  And one hook: :class:`SampledRun` keeps every
sample of a run, which the library never does.  Each is written for clarity
over speed, and several cost time quadratic in the number of retained modes,
so they are only for small lattices.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from lowmach.dyadic import BumpProfile, block_range, dyadic_block, low_cut
from lowmach.lattice import (
    LatticeSpec,
    SpectralField,
    _mirror,
    dealiased_product,
    forward_transform,
    zero_mean_split,
)
from lowmach.operators import (
    AcousticCoeffs,
    _conjugate_pair,
    _safe_k_modulus,
    _signed_modulus,
    acoustic_transform,
    advect,
    helmholtz_project,
    wave_group,
)
from lowmach import resonance
from lowmach.resonance import NonResonantTriads, _grid_index, _mode_data, enumerate_resonance_sets
from lowmach.solvers import CompressibleStepper, Forcing, _pressure_remainder, run_trajectory

# ---------------------------------------------------------------------------
# Full coefficient grids
# ---------------------------------------------------------------------------


def _half_to_full(half: np.ndarray, lattice: LatticeSpec) -> np.ndarray:
    """The full, masked, Hermitian coefficient grid of half spectra, shape
    (components, *resolution): the columns -cut..-1 hold the conjugates of
    the mirrored columns 1..cut."""
    cut, n = lattice.cutoffs[-1], lattice.resolution[-1]
    out = np.zeros(half.shape[:-1] + (n,), dtype=np.complex128)
    out[..., : cut + 1] = half
    out[..., n - cut :] = np.conj(_mirror(half[..., cut:0:-1], range(1, lattice.d)))
    return out


def full(field: SpectralField) -> np.ndarray:
    """The full coefficient grid of a field, shape (components, *resolution)."""
    return _half_to_full(field.coeffs, field.lattice)


def hermitian_defect(lattice: LatticeSpec, coeffs: np.ndarray) -> float:
    """max |c_k - conj(c_{-k})| over full coefficient grids (components first)."""
    mirror = np.conj(_mirror(coeffs, range(1, lattice.d + 1)))
    return float(np.max(np.abs(coeffs - mirror), initial=0.0))


def from_full(lattice: LatticeSpec, coeffs: np.ndarray, cls=SpectralField):
    """The field (a :class:`SpectralField`, or ``cls`` =
    :class:`AcousticCoeffs`) of full coefficient grids, shape (components,
    *resolution), or the lattice's shape for one component: their half
    spectrum.  ValueError unless they are Hermitian to 1e-12 times their
    largest |c_k|, the coefficients of a real field."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.ndim == lattice.d:
        coeffs = coeffs[None]
    scale = float(np.max(np.abs(coeffs), initial=0.0))
    if not hermitian_defect(lattice, coeffs) <= 1e-12 * scale:
        raise ValueError("the coefficients are not Hermitian: not those of a real field")
    half = lattice.half(coeffs)
    return AcousticCoeffs(lattice, *half) if cls is AcousticCoeffs else SpectralField(lattice, half)


def full_power(field: SpectralField) -> np.ndarray:
    """|c_k|^2 per mode of the full coefficient grid, summed over components."""
    return np.sum(np.abs(full(field)) ** 2, axis=0)


def full_forward(lattice: LatticeSpec, values: np.ndarray) -> np.ndarray:
    """The full, masked coefficient grids of grid samples (components first)
    through the complex FFT."""
    axes = tuple(range(1, lattice.d + 1))
    scale = math.sqrt(lattice.volume) / np.prod(lattice.resolution)
    return np.fft.fftn(values, axes=axes) * scale * lattice.dealias_mask()


def full_inverse(lattice: LatticeSpec, coeffs: np.ndarray) -> np.ndarray:
    """The complex grid values of full coefficient grids (components first)
    through the complex inverse FFT; real up to round-off for Hermitian
    grids."""
    axes = tuple(range(1, lattice.d + 1))
    scale = np.prod(lattice.resolution) / math.sqrt(lattice.volume)
    return np.fft.ifftn(coeffs, axes=axes) * scale


def save_full_grid_checkpoint(path: str, lattice: LatticeSpec, time: float, fields: dict, meta):
    """The checkpoint writer of the full-grid field layout: each field's
    full coefficient grid (:func:`full`) as one '<c16' block, after the
    magic and the JSON header of ``solvers.save_checkpoint``."""
    blobs = [np.ascontiguousarray(full(value).astype("<c16")) for value in fields.values()]
    entries = [{"name": name, "shape": list(b.shape)} for name, b in zip(fields, blobs)]
    header = {"schema": 1, "time": time, "lattice": lattice.descriptor(), "fields": entries}
    header = json.dumps(dict(header, meta=meta), sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(b"LOWMACHK1\n" + struct.pack("<I", len(header)) + header)
        for blob in blobs:
            fh.write(blob.tobytes())


def _full_signed_modulus(lattice: LatticeSpec) -> np.ndarray:
    """sg(k)*|k| on the full FFT grid (0 at the mean mode)."""
    return lattice.sign_grid() * lattice.k_modulus()


def _with_mirrors(entries: dict) -> dict:
    """``{mode: value}`` entries with each missing mirror -k added as the
    conjugate of the value at k, so that they describe a real field."""
    out = dict(entries)
    for mode, value in entries.items():
        mirror = tuple(-int(m) for m in mode)
        if mirror not in out:
            out[mirror] = np.conj(value)
    return out


# ---------------------------------------------------------------------------
# Random test data
# ---------------------------------------------------------------------------


def random_field(lattice, rng, components=1, zero_mean=False):
    """A Hermitian field from standard normal grid samples, its mean
    mode cleared with ``zero_mean``."""
    values = rng.standard_normal((components,) + lattice.resolution)
    field = forward_transform(lattice, values)
    if zero_mean:
        coeffs = field.coeffs.copy()
        coeffs[(slice(None),) + (0,) * lattice.d] = 0.0
        field = SpectralField(lattice, coeffs)
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
# Lattice: grid points, fields from mode entries, the symbol calculus and
# the direct convolution
# ---------------------------------------------------------------------------


def grid_points(lattice: LatticeSpec) -> tuple[np.ndarray, ...]:
    axes = [
        np.arange(n) * (2.0 * math.pi * float(b) / n)
        for n, b in zip(lattice.resolution, lattice.periods)
    ]
    return np.meshgrid(*axes, indexing="ij")


def field_from_modes(
    lattice: LatticeSpec,
    entries: dict,
    components: int = 1,
):
    """Build a real field from ``{mode index tuple: coefficient}`` entries;
    the mirror -k of an entry k takes the conjugate coefficient unless it is
    given too, and then it must be that conjugate (see :func:`from_full`).

    For vector fields the coefficient value must be a length-d sequence.
    """
    field = np.zeros((components,) + lattice.resolution, dtype=np.complex128)
    for mode, value in _with_mirrors(entries).items():
        idx = tuple(int(m) % n for m, n in zip(mode, lattice.resolution))
        if components == 1 and np.isscalar(value):
            field[(0,) + idx] = value
        else:
            vals = np.atleast_1d(np.asarray(value, dtype=np.complex128))
            if vals.shape != (components,):
                raise ValueError("mode value has wrong number of components")
            for c in range(components):
                field[(c,) + idx] = vals[c]
    return from_full(lattice, field)


def spectral_derivative(field: SpectralField, kind: str) -> SpectralField:
    """Symbol calculus: grad (scalar->vector), div (vector->scalar), laplacian."""
    lattice = field.lattice
    kvecs = lattice.half_wavevectors()
    if kind == "grad":
        if field.components != 1:
            raise ValueError("grad acts on scalar fields")
        out = np.stack([1j * k * field.coeffs[0] for k in kvecs], axis=0)
    elif kind == "div":
        if field.components != lattice.d:
            raise ValueError("div acts on vector fields")
        out = sum(1j * k * field.coeffs[c] for c, k in enumerate(kvecs))[None]
    elif kind == "laplacian":
        out = -lattice.half(lattice.k_squared()) * field.coeffs
    else:
        raise ValueError(f"unknown derivative kind {kind!r}")
    return SpectralField._in_box(lattice, out)


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
    f_full, g_full = full(f)[0], full(g)[0]
    f_idx = np.argwhere(mask)
    for idx in f_idx:
        fval = f_full[tuple(idx)]
        if fval == 0:
            continue
        shifted = np.roll(g_full, shift=tuple(int(i) for i in idx), axis=tuple(range(lattice.d)))
        out += fval * shifted
    out *= norm
    return from_full(lattice, out * mask)


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

    t_fg = SpectralField.zeros(lattice, f.components)
    t_gf = SpectralField.zeros(lattice, f.components)
    rem = SpectralField.zeros(lattice, f.components)
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
    low = obj.lattice.half(obj.lattice.k_modulus()) <= cutoff + 1e-12
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
# Operators: acoustic coefficients, generalized sign and pressure law
# ---------------------------------------------------------------------------


def acoustic_from_modes(lattice: LatticeSpec, entries: dict) -> AcousticCoeffs:
    """Build from ``{(mode tuple, alpha): value}`` entries; each branch is the
    spectrum of a real function, so the mirrors are implied as in
    :func:`field_from_modes`."""
    if any(alpha not in (1, -1) for _, alpha in entries):
        raise ValueError("alpha must be +1 or -1")
    out = np.zeros((2,) + lattice.resolution, dtype=np.complex128)
    for alpha in (1, -1):
        branch = {mode: value for (mode, a), value in entries.items() if a == alpha}
        for mode, value in _with_mirrors(branch).items():
            idx = tuple(int(m) % n for m, n in zip(mode, lattice.resolution))
            out[(0 if alpha == 1 else 1,) + idx] = value
    return from_full(lattice, out, AcousticCoeffs)


def acoustic_inverse(V: AcousticCoeffs) -> tuple[SpectralField, SpectralField]:
    """Reconstruct the (zero-mean scalar, gradient vector) pair."""
    lattice = V.lattice
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    ahat = (V.plus + V.minus) * inv_sqrt2
    sgk = lattice.half(lattice.sign_grid())
    mu = -sgk * (V.plus - V.minus) * inv_sqrt2
    kmod = _safe_k_modulus(lattice)
    kvecs = lattice.half_wavevectors()
    qu = np.stack([mu * k / kmod for k in kvecs], axis=0)
    return SpectralField(lattice, ahat[None]), SpectralField(lattice, qu)


def sg(k) -> int:
    """Generalized sign: +1 iff the first nonzero component of k is positive."""
    for comp in np.atleast_1d(np.asarray(k)).ravel():
        if comp > 0:
            return 1
        if comp < 0:
            return -1
    raise ValueError("sg is undefined at k = 0")


def expansion_defect(gamma: float, amax: float = 0.5, samples: int = 512) -> float:
    """Max deviation of 1 + kappa*a + a*K(a) from P'(1+a)/(1+a) = (1+a)^(gamma-2)
    on [-amax, amax], with kappa = gamma - 2 and the solver's K."""
    a = np.linspace(-amax, amax, samples)
    exact = (1.0 + a) ** (gamma - 2.0)
    model = 1.0 + (gamma - 2.0) * a + a * _pressure_remainder(a, gamma)
    return float(np.max(np.abs(exact - model)))


# ---------------------------------------------------------------------------
# Solvers: the full forcing grid, a fake stepper and the sampling hook
# ---------------------------------------------------------------------------


def forcing_field(forcing: Forcing, t: float) -> SpectralField:
    """The force at time t as a field: its ``half_spectrum``."""
    return SpectralField._in_box(forcing.lattice, forcing.half_spectrum(t))


class LinearCompressibleStepper(CompressibleStepper):
    """A fake: the compressible stepper whose right-hand side is zero, so that
    its Lawson step applies the exact acoustic-viscous propagator alone."""

    def rhs(self, x, t, out):
        out.fill(0.0)
        return out


def lawson_rk2(x: tuple, t: float, dt: float, linear, rhs) -> tuple:
    """One Lawson (integrating-factor) RK2 step of dx/dt = L x + N(x, t) on
    tuples of fields, each stage a new tuple: the reference of the
    steppers' in-place step.  ``linear`` maps a tuple through the exact
    one-step exponential P = exp(dt L), and ``rhs(x, t)`` returns N(x, t) as
    a tuple of the same shape; the step is P(x + (dt/2) n0) + (dt/2) n1 with
    n0 = N(x, t) and n1 = N(P(x + dt n0), t + dt)."""
    n0 = rhs(x, t)
    half = linear(tuple(xi + (dt / 2.0) * ni for xi, ni in zip(x, n0)))
    predictor = linear(tuple(xi + dt * ni for xi, ni in zip(x, n0)))
    n1 = rhs(predictor, t + dt)
    return tuple(hi + (dt / 2.0) * ni for hi, ni in zip(half, n1))


def linear_compressible_step(a, u, t, cfg):
    """One step of a :class:`LinearCompressibleStepper` built for (a, u)
    alone, as ``step_compressible`` builds its stepper; returns (a, u)."""
    stepper = LinearCompressibleStepper(cfg, a, u)
    stepper.step(t)
    return stepper.state()


class SampledRun:
    """``run_trajectory`` with an ``on_sample`` hook that keeps every sample:
    ``times`` and ``states`` start with the initial state at time 0, each
    sample appends its time and its stepper's ``state()``, and ``final`` is
    the state that ``run_trajectory`` returns."""

    def __init__(self, initial, cfg, kind):
        self.times, self.states = [0.0], [initial]
        self.final = run_trajectory(initial, cfg, kind, self.keep)

    def keep(self, t, steppers):
        (stepper,) = steppers.values()
        self.times.append(t)
        self.states.append(stepper.state())


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
    dot = SpectralField.zeros(A.lattice, 1)
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
    ksq = lattice.half(lattice.k_squared())
    rate = _signed_modulus(lattice)
    osc = _conjugate_pair(np.exp(-2j * (t / eps) * rate))
    return B._like(-0.5 * ksq * (B.coeffs - B.coeffs[::-1] * osc))


# ---------------------------------------------------------------------------
# Limit forms on full fields
# ---------------------------------------------------------------------------


def _forms_work(table) -> np.ndarray:
    """Fresh scratch of the limit forms over ``table``'s entries."""
    return np.empty(2 * max(table.q1_m.size, table.q2_m.size), np.complex128)


def extended(half: np.ndarray) -> np.ndarray:
    """``resonance._extend`` of half spectra into a fresh array."""
    return resonance._extend(half, np.empty((len(half), 2 * half[0].size), np.complex128))


def _form_out(lattice: LatticeSpec) -> np.ndarray:
    """A fresh output of the limit forms: two half spectra."""
    return np.empty((2,) + lattice.half_shape, np.complex128)


def limit_q1(u: SpectralField, B: AcousticCoeffs) -> AcousticCoeffs:
    """``resonance.limit_q1`` on fields: the form on the extended half
    spectra of u and B over the lattice's limit table."""
    lattice = B.lattice
    table = resonance._limit_table(lattice)
    u, B = (extended(f.coeffs) for f in (u, B))
    half = resonance.limit_q1(u, B, table, _forms_work(table), _form_out(lattice))
    return AcousticCoeffs._in_box(lattice, half)


def limit_q2(A: AcousticCoeffs, B: AcousticCoeffs, kappa: float = 0.0) -> AcousticCoeffs:
    """The symmetric bilinear form Q2(A, B) on full fields, by polarization
    of the quadratic form ``resonance.limit_q2``: (Q(A + B) - Q(A - B))/4,
    each evaluated as :func:`limit_q1`.  At A = B this is Q(2A)/4, the bytes
    of Q(A), since scaling by powers of two is exact."""
    lattice = A.lattice
    table = resonance._limit_table(lattice)
    work = _forms_work(table)
    plus, minus = (
        resonance.limit_q2(extended(f.coeffs), table, kappa, work, _form_out(lattice))
        for f in (A + B, A - B)
    )
    return AcousticCoeffs._in_box(lattice, 0.25 * (plus - minus))


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
    out = np.zeros((2,) + lattice.resolution, dtype=np.complex128)
    u, (plus, minus) = full(u), full(B)
    modes = _box_modes(lattice, False)
    uhat = {}
    for n, raw in _box_modes(lattice, True):
        uhat[n] = np.array([u[c][raw] for c in range(lattice.d)])
    for m, raw_m in modes:
        mmod = _mod_vec(m, b)
        sgm = sg(m)
        for gamma, target in ((1, out[0]), (-1, out[1])):
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
                for alpha, coeff in ((1, plus[raw_k]), (-1, minus[raw_k])):
                    if coeff == 0:
                        continue
                    bracket = 1.0 + alpha * gamma * sgk * sgm * lm_dot_k / (kmod * mmod)
                    omega = alpha * sgk * kmod - gamma * sgm * mmod
                    total += coeff * k_dot_u * bracket * factor(omega, t, eps)
            target[raw_m] = 1j / (2.0 * math.sqrt(vol)) * total
    return from_full(lattice, out, AcousticCoeffs)


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
    out = np.zeros((2,) + lattice.resolution, dtype=np.complex128)
    A, B = full(A), full(B)  # the branch alpha = 1 first
    modes = _box_modes(lattice, False)
    index = {n: raw for n, raw in modes}
    for m, raw_m in modes:
        mmod = _mod_vec(m, b)
        sgm = sg(m)
        for gamma, target in ((1, out[0]), (-1, out[1])):
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
                    a_k = A[(1 - alpha) // 2][raw_k]
                    b_k = B[(1 - alpha) // 2][raw_k]
                    for beta in (1, -1):
                        b_l = B[(1 - beta) // 2][raw_l]
                        a_l = A[(1 - beta) // 2][raw_l]
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
    return from_full(lattice, out, AcousticCoeffs)


def q2_eps_modesum(
    A, B, t: float, eps: float, kappa: float = 0.0, band=None
) -> AcousticCoeffs:
    """Direct double-sum evaluation of the filtered symmetric form."""
    return _q2_modesum_generic(A, B, t, eps, kappa, _phase_factor, band=band)


def q2_eps_time_average(A, B, T: float, eps: float, kappa: float = 0.0) -> AcousticCoeffs:
    """(1/T) * integral over [0, T] of the filtered symmetric form, exactly."""
    return _q2_modesum_generic(A, B, T, eps, kappa, _average_factor)


def _resonant_factor(omega: float, t: float, eps: float) -> complex:
    """1 on the resonant triads, whose phase rate omega vanishes (up to the
    rounding of the moduli), and 0 elsewhere: the eps -> 0 limit of the
    time average."""
    return 1.0 + 0.0j if abs(omega) <= 1e-9 else 0.0j


def q1_limit_modesum(u, B) -> AcousticCoeffs:
    """Direct double-sum evaluation of the limit advection form: the
    filtered form's resonant triads only."""
    return _q1_modesum_generic(u, B, 0.0, 1.0, _resonant_factor)


def q2_limit_modesum(A, B, kappa: float = 0.0) -> AcousticCoeffs:
    """Direct double-sum evaluation of the limit symmetric form."""
    return _q2_modesum_generic(A, B, 0.0, 1.0, kappa, _resonant_factor)


def a2_eps_time_average(B: AcousticCoeffs, T: float, eps: float) -> AcousticCoeffs:
    """(1/T) * integral over [0, T] of the filtered viscous symbol, exactly."""
    lattice = B.lattice
    ksq = lattice.half(lattice.k_squared())
    rate = _signed_modulus(lattice)
    x = -2.0 * (T / eps) * rate
    with np.errstate(divide="ignore", invalid="ignore"):
        avg = np.where(x != 0.0, (np.exp(1j * x) - 1.0) / (1j * np.where(x == 0, 1, x)), 1.0)
    return B._like(-0.5 * ksq * (B.coeffs - B.coeffs[::-1] * _conjugate_pair(avg)))


# ---------------------------------------------------------------------------
# Correctors and remainder fields
# ---------------------------------------------------------------------------


@dataclass
class CorrectorSet:
    r1: AcousticCoeffs
    r2: AcousticCoeffs
    r3: AcousticCoeffs
    s: AcousticCoeffs

    def total(self) -> AcousticCoeffs:
        return self.r1 + self.r2 + self.r3 + self.s


def _branch_gather(V: AcousticCoeffs, idx: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Branch alpha of V at the flat full-grid indices ``idx``."""
    return full(V).reshape(2, -1)[np.where(alpha == 1, 0, 1), idx]


# Each term helper returns the term's values at time t, phase included, and
# the rate omega at which each value oscillates as exp(i omega t/eps).  The
# grid terms R1 and S return (2, *resolution) arrays on the full grid in the
# branch layout of their output; the triad terms R2 and R3 return one value
# per table entry.


def _r1_term(fml: AcousticCoeffs, low: np.ndarray, t: float, eps: float):
    """R1: (f - Lambda)^alpha on the low band, at rate -alpha*sg(k)|k|."""
    rate = _full_signed_modulus(fml.lattice)
    omega = np.stack([-rate, rate])
    return full(fml) * np.exp(1j * (t / eps) * omega) * low, omega


def _s_term(V: AcousticCoeffs, low: np.ndarray, t: float, eps: float, nu: float):
    """S: nu/2 |k|^2 V^alpha on the low band, landing on branch -alpha at rate
    2*alpha*sg(k)|k|."""
    lattice = V.lattice
    rate = 2.0 * _full_signed_modulus(lattice)
    omega = np.stack([-rate, rate])
    phase = np.exp(1j * (t / eps) * omega)
    return 0.5 * nu * lattice.k_squared() * full(V)[::-1] * phase * low, omega


def _r2_term(q1: dict, V: AcousticCoeffs, v: SpectralField, t: float, eps: float):
    """R2 on the q1 triads: V_k^alpha advected by v_l, at rate div."""
    lattice = V.lattice
    k, l = q1["k"], q1["l"]
    k_dot_v = sum(
        kc.reshape(-1)[k] * vc.reshape(-1)[l] for kc, vc in zip(lattice.wavevectors(), full(v))
    )
    vk = _branch_gather(V, k, q1["alpha"])
    values = -1j / (2.0 * math.sqrt(lattice.volume)) * vk * k_dot_v * q1["bracket"]
    return values * np.exp(1j * (t / eps) * q1["div"]), q1["div"]


def _r3_term(q2: dict, A: AcousticCoeffs, B: AcousticCoeffs, t: float, eps: float, kappa: float):
    """R3 on the q2 triads: the product A_k^alpha B_l^beta, at rate div."""
    c_d = 1.0 / math.sqrt(2.0 * A.lattice.volume)
    prod = _branch_gather(A, q2["k"], q2["alpha"]) * _branch_gather(B, q2["l"], q2["beta"])
    bracket = q2["base"] + q2["gamma"] * kappa / 2.0
    values = 1j * c_d / 2.0 * prod * q2["smod"] * bracket
    return values * np.exp(1j * (t / eps) * q2["div"]), q2["div"]


def _term_set(lattice: LatticeSpec, q1: dict, q2: dict, terms, corrector: bool) -> CorrectorSet:
    """The terms (R1, R2, R3, S), each given as (values, omega), as fields.  A
    corrector's values are the term's divided by i*omega, 0 where omega = 0.
    Triad values are summed into their output mode m on branch gamma."""
    size = int(np.prod(lattice.resolution))
    fields = []
    for (values, omega), triads in zip(terms, (None, q1, q2, None)):
        if corrector:
            quotient = np.zeros_like(values)
            np.divide(values, omega, out=quotient, where=omega != 0)
            values = -1j * quotient
        if triads is not None:
            acc = np.zeros(2 * size, dtype=np.complex128)
            np.add.at(acc, np.where(triads["gamma"] == 1, triads["m"], triads["m"] + size), values)
            values = acc.reshape((2,) + lattice.resolution)
        fields.append(from_full(lattice, values, AcousticCoeffs))
    return CorrectorSet(*fields)


def _triads(entries: dict, kmod: np.ndarray, M: float) -> dict:
    """The table entries with m in the box and |k|, |l| <= M.  A q1 entry
    whose l lies outside the box (index -1) reads v_l = 0 and is dropped."""
    k, l = entries["k"], entries["l"]
    keep = (entries["m"] >= 0) & (l >= 0) & (kmod[k] <= M + 1e-12) & (kmod[l] <= M + 1e-12)
    return {key: arr[keep] for key, arr in entries.items()}


def _lambda_coeffs(w: SpectralField, v: SpectralField) -> AcousticCoeffs:
    """Acoustic coefficients of (0, Q(w.grad v))."""
    nonlin = helmholtz_project(advect(w, v), "Q")
    return acoustic_transform(SpectralField.zeros(v.lattice), nonlin, check=False)


def with_corrector_keys(triads: NonResonantTriads) -> NonResonantTriads:
    """The triads with the keys that only the correctors read, computed from
    their index vectors as the library's enumeration once computed them:
    the flat FFT-grid indices ``m``, ``k`` and ``l`` (-1 for a mode outside
    the dealiased box), the q1 weight ``bracket`` and the q2 weights
    ``base`` and ``smod``."""
    lattice = triads.lattice
    cut = np.array(lattice.cutoffs)

    def modes(n):
        """sg, wavevectors, moduli, box-masked and plain grid indices of n."""
        _, sgn, vec, mod = _mode_data(lattice, n)
        idx = _grid_index(lattice, n)
        return sgn, vec, mod, np.where(np.all(np.abs(n) <= cut, axis=1), idx, -1), idx

    q1 = dict(triads.q1)
    sk, k_vec, k_mod, _, k_idx = modes(q1["kn"])
    _, l_vec, _, l_out, _ = modes(q1["ln"])
    sm, m_vec, m_mod, m_out, _ = modes(q1["mn"])
    a, g = q1["alpha"], q1["gamma"]
    lm_dot_k = np.sum((l_vec + m_vec) * k_vec, axis=1)
    q1.update(
        m=m_out, k=k_idx, l=l_out, bracket=1.0 + a * g * sk * sm * lm_dot_k / (k_mod * m_mod)
    )

    q2 = dict(triads.q2)
    sk, k_vec, k_mod, _, k_idx = modes(q2["kn"])
    sl, l_vec, l_mod, _, l_idx = modes(q2["ln"])
    sm, m_vec, m_mod, m_out, _ = modes(q2["mn"])
    a, b, g = q2["alpha"], q2["beta"], q2["gamma"]
    l_dot_m = np.sum(l_vec * m_vec, axis=1)
    k_dot_l = np.sum(k_vec * l_vec, axis=1)
    q2.update(
        m=m_out,
        k=k_idx,
        l=l_idx,
        base=b * sl * sm * l_dot_m / (l_mod * m_mod)
        + a * b * g / 2.0 * sk * sl * k_dot_l / (k_mod * l_mod),
        smod=sm * m_mod,
    )
    return NonResonantTriads(lattice, triads.M, q1, q2)


def _remainder_terms(V, v, f_ac, M, t, eps, kappa, nu, table, lam_ac):
    """The low-band weights and the q1 and q2 triads with m in the box and
    |k|, |l| <= M (enumerated when ``table`` is None), and the terms
    (R1, R2, R3, S) of the remainder at time t.  Given triads must be
    enumerated on the fields' lattice at a cutoff of at least M; otherwise
    ValueError."""
    lattice = V.lattice
    if table is None:
        table = enumerate_resonance_sets(lattice, M)
    elif table.lattice != lattice:
        raise ValueError(
            f"the triads are enumerated on the lattice {table.lattice.descriptor()}, "
            f"not on the fields' lattice {lattice.descriptor()}"
        )
    elif table.M < M:
        raise ValueError(
            f"the triads are enumerated at cutoff M = {table.M:g}, "
            f"below the corrector cutoff M = {M:g}"
        )
    table = with_corrector_keys(table)
    kmod = lattice.k_modulus()
    low = (kmod <= M + 1e-12).astype(np.float64)
    q1, q2 = (_triads(e, kmod.reshape(-1), M) for e in (table.q1, table.q2))
    if lam_ac is None:
        lam_ac = _lambda_coeffs(v, v)
    fml = (f_ac if f_ac is not None else AcousticCoeffs.zeros(lattice)) - lam_ac
    terms = (
        _r1_term(fml, low, t, eps),
        _r2_term(q1, V, v, t, eps),
        _r3_term(q2, V, V, t, eps, kappa),
        _s_term(V, low, t, eps, nu),
    )
    return (low, q1, q2), terms


def assemble_correctors(
    V: AcousticCoeffs,
    v: SpectralField,
    f_ac: AcousticCoeffs | None,
    M: float,
    t: float,
    eps: float,
    *,
    kappa: float = 0.0,
    nu: float = 1.0,
    table: NonResonantTriads | None = None,
    lam_ac: AcousticCoeffs | None = None,
    time_derivatives: tuple | None = None,
):
    """Two-time-scale correctors (R1~, R2~, R3~, S~) truncated at cutoff M.

    Each corrector is the matching term of :func:`remainder_fields`, over the
    same triads, divided by i*omega, where omega is the term's rate of
    oscillation.  ``f_ac`` holds the acoustic decomposition of (0, Qf); the
    advected-flow coefficients are derived from ``v`` unless ``lam_ac``
    overrides them.  When ``time_derivatives = (dV, dv, df_ac, dlam_ac)`` is
    given, the correctors of the amplitudes' time derivatives (by the product
    rule on the bilinear terms) are returned as well, so that

        eps * d/dt corrector_total = low-band remainder + eps * derivative_total.
    """
    lattice = V.lattice
    (low, q1, q2), terms = _remainder_terms(V, v, f_ac, M, t, eps, kappa, nu, table, lam_ac)
    base = _term_set(lattice, q1, q2, terms, corrector=True)
    if time_derivatives is None:
        return base, None
    dV, dv, df_ac, dlam_ac = time_derivatives
    if dlam_ac is None:
        dlam_ac = _lambda_coeffs(dv, v) + _lambda_coeffs(v, dv)
    dfml = (df_ac if df_ac is not None else AcousticCoeffs.zeros(lattice)) - dlam_ac
    (r2a, rate2), (r2b, _) = _r2_term(q1, dV, v, t, eps), _r2_term(q1, V, dv, t, eps)
    (r3a, rate3), (r3b, _) = _r3_term(q2, dV, V, t, eps, kappa), _r3_term(q2, V, dV, t, eps, kappa)
    deriv_terms = (
        _r1_term(dfml, low, t, eps),
        (r2a + r2b, rate2),
        (r3a + r3b, rate3),
        _s_term(dV, low, t, eps, nu),
    )
    return base, _term_set(lattice, q1, q2, deriv_terms, corrector=True)


def remainder_fields(
    V: AcousticCoeffs,
    v: SpectralField,
    f_ac: AcousticCoeffs | None,
    M: float,
    t: float,
    eps: float,
    *,
    kappa: float = 0.0,
    nu: float = 1.0,
    table: NonResonantTriads | None = None,
    lam_ac: AcousticCoeffs | None = None,
) -> AcousticCoeffs:
    """Low-band oscillatory remainder R_M = (R1 + R2 + R3 + S)_M at time t."""
    (_, q1, q2), terms = _remainder_terms(V, v, f_ac, M, t, eps, kappa, nu, table, lam_ac)
    return _term_set(V.lattice, q1, q2, terms, corrector=False).total()

