"""Propagator, stepper, initial-data, and checkpoint tests."""

import json
import math
import os
import re
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import warnings
from dataclasses import replace
from fractions import Fraction

from lowmach.lattice import (
    LatticeSpec,
    SpectralField,
    _half_to_full,
    _mirror,
    dealiased_product,
    forward_transform,
    inverse_transform,
)
from lowmach.dyadic import NormSpec, norm
from lowmach.operators import (
    AcousticCoeffs,
    VacuumError,
    acoustic_transform,
    advect,
    helmholtz_project,
    wave_group,
)
from lowmach.cli import main
from lowmach.experiments import limit_initial_data
from lowmach import resonance, solvers
from lowmach.solvers import (
    CFL_SAFETY,
    AcousticViscousPropagator,
    CFLError,
    Forcing,
    ForcingMode,
    SolverConfig,
    generate_initial_data,
    load_checkpoint,
    run_trajectory,
    save_checkpoint,
    step_compressible,
    step_incompressible,
    step_limit,
)
from oracles import (
    acoustic_from_modes,
    field_from_modes,
    forcing_field,
    grid_points,
    lawson_rk2,
    limit_q2,
    linear_compressible_step,
    SampledRun,
    spectral_derivative,
)


@pytest.fixture
def lat32():
    return LatticeSpec.square(2, 32)


def taylor_green(lattice):
    x, y = grid_points(lattice)
    values = np.stack([np.cos(x) * np.sin(y), -np.sin(x) * np.cos(y)], axis=0)
    return forward_transform(lattice, values)


def half(field):
    """The retained half spectrum (columns 0..cut) of a field."""
    return field.coeffs[..., : field.lattice.cutoffs[-1] + 1]


def from_half(lattice, array):
    """The real field whose retained half spectrum is ``array``."""
    return SpectralField._in_box(lattice, _half_to_full(array, lattice))


def propagate(prop, a, u):
    """``prop.apply`` on the stacked half spectra of the fields a and u."""
    x = np.concatenate((half(a), half(u)))
    new = prop.apply(x, np.empty_like(x), np.empty((3,) + x.shape[1:], np.complex128))
    return from_half(a.lattice, new[:1]), from_half(a.lattice, new[1:])


class TestPropagator:
    def test_inviscid_rotation_conserves_energy(self, lat16):
        prop = AcousticViscousPropagator(lat16, dt=0.01, eps=0.1, nu=0.0, mu=0.0)
        a0, u0 = generate_initial_data(lat16, 1.0, 1.0, seed=1)
        qu = helmholtz_project(u0, "Q")
        a, u = a0, qu
        e0 = a.l2_norm() ** 2 + u.l2_norm() ** 2
        for _ in range(100):
            a, u = propagate(prop, a, u)
        e1 = a.l2_norm() ** 2 + u.l2_norm() ** 2
        assert abs(e1 - e0) <= 1e-12 * e0

    def test_large_eps_decoupling(self, lat16):
        # eps -> infinity freezes a and damps the longitudinal velocity
        nu = 0.3
        dt = 0.05
        prop = AcousticViscousPropagator(lat16, dt=dt, eps=1e9, nu=nu, mu=0.0)
        a0 = field_from_modes(lat16, {(1, 0): 1.0, (-1, 0): 1.0})
        u0 = SpectralField.zeros(lat16, 2)
        a1, u1 = propagate(prop, a0, u0)
        assert a1.mode((1, 0))[0] == pytest.approx(1.0, rel=1e-6)
        q = helmholtz_project(
            field_from_modes(lat16, {(1, 0): (1.0, 0.0), (-1, 0): (1.0, 0.0)}, components=2),
            "Q",
        )
        _, u2 = propagate(prop, SpectralField.zeros(lat16), q)
        decay = np.exp(-nu * 1.0 * dt)
        assert abs(u2.mode((1, 0))[0]) == pytest.approx(
            abs(q.mode((1, 0))[0]) * decay, rel=1e-6
        )

    def test_semigroup_composition(self, lat16):
        rng = np.random.default_rng(2)
        a0, u0 = generate_initial_data(lat16, 0.7, 0.9, seed=3)
        p1 = AcousticViscousPropagator(lat16, dt=0.02, eps=0.1, nu=0.25, mu=0.1)
        p2 = AcousticViscousPropagator(lat16, dt=0.04, eps=0.1, nu=0.25, mu=0.1)
        a, u = propagate(p1, *propagate(p1, a0, u0))
        a2, u2 = propagate(p2, a0, u0)
        scale = max(a2.l2_norm(), u2.l2_norm())
        assert (a - a2).l2_norm() + (u - u2).l2_norm() <= 1e-12 * scale

    def test_series_fallback_matches_exact(self, lat16):
        # tiny dt puts every mode in the series branch; compare to two half steps
        p_small = AcousticViscousPropagator(lat16, dt=1e-9, eps=0.5, nu=0.1, mu=0.05)
        a0, u0 = generate_initial_data(lat16, 1.0, 1.0, seed=4)
        a1, u1 = propagate(p_small, a0, u0)
        # derivative check: (y1 - y0)/dt should equal the generator action
        da = (a1 - a0) * 1e9
        div_u = spectral_derivative(u0, "div")
        expected = -(1.0 / 0.5) * div_u
        assert (da - expected).l2_norm() <= 1e-5 * max(1.0, expected.l2_norm())


class TestCompressible:
    def make_cfg(self, lattice, **kw):
        defaults = dict(
            lattice=lattice,
            mu=0.05,
            lam=0.05,
            eps=0.5,
            gamma=2.0,
            dt=2e-3,
            t_final=0.1,
            sample_stride=5,
        )
        defaults.update(kw)
        return SolverConfig(**defaults)

    def test_zero_data_stays_zero(self, lat16):
        cfg = self.make_cfg(lat16)
        a, u = step_compressible(
            SpectralField.zeros(lat16), SpectralField.zeros(lat16, 2), 0.0, cfg
        )
        assert a.l2_norm() == 0.0
        assert u.l2_norm() == 0.0

    def test_vacuum_proximity_warns_once(self, lat16):
        # eps*||a||_inf in (1/2, 1): the run continues with a single warning
        cfg = self.make_cfg(lat16, eps=1.0, dt=1e-4, t_final=2e-4)
        x = grid_points(lat16)[0]
        a0 = forward_transform(lat16, 0.7 * np.cos(x))
        u0 = SpectralField.zeros(lat16, 2)
        with pytest.warns(RuntimeWarning, match="uniform bound lost"):
            run_trajectory((a0, u0), cfg, "compressible")

    def test_linear_heat_decay_of_transverse_mode(self, lat16):
        mu = 0.05
        cfg = self.make_cfg(lat16, mu=mu, lam=0.0, dt=1e-2, t_final=1.0)
        amp = 1e-8
        u0 = field_from_modes(
            lat16,
            {(0, 1): (amp, 0.0), (0, -1): (amp, 0.0)},
            components=2,
        )
        a, u = SpectralField.zeros(lat16), u0
        for n in range(cfg.n_steps):
            a, u = step_compressible(a, u, n * cfg.dt, cfg)
        expected = amp * math.exp(-mu * 1.0)
        got = abs(u.mode((0, 1))[0])
        assert got == pytest.approx(expected, rel=1e-6)

    def test_mass_mean_exactly_conserved(self, lat16):
        cfg = self.make_cfg(lat16, t_final=0.05)
        a0, u0 = generate_initial_data(lat16, 1.0, 1.0, seed=5)
        traj = SampledRun((a0, u0), cfg, "compressible")
        for a, _ in traj.states:
            assert abs(a.mean_coefficient()[0]) <= 1e-13

    def test_inviscid_linear_acoustic_energy(self, lat16):
        cfg = self.make_cfg(lat16, mu=0.0, lam=0.0, dt=1e-2, t_final=1.0)
        a0, u0 = generate_initial_data(lat16, 1.0, 1.0, seed=6)
        qu = helmholtz_project(u0, "Q")
        a, u = a0, qu
        e0 = math.sqrt(a0.l2_norm() ** 2 + qu.l2_norm() ** 2)
        for n in range(cfg.n_steps):
            a, u = linear_compressible_step(a, u, n * cfg.dt, cfg)
        e1 = math.sqrt(a.l2_norm() ** 2 + u.l2_norm() ** 2)
        assert abs(e1 - e0) <= 1e-8 * e0

    def test_filtered_isometry_along_trajectory(self, lat16):
        cfg = self.make_cfg(lat16, t_final=0.05)
        a0, u0 = generate_initial_data(lat16, 1.0, 1.0, seed=7)
        traj = SampledRun((a0, u0), cfg, "compressible")
        for t, (a, u) in zip(traj.times, traj.states):
            pair = acoustic_transform(a, u - helmholtz_project(u, "P"), check=False)
            n1 = norm(wave_group(pair, -t / cfg.eps), NormSpec(kind="H", s=0.5))
            n2 = norm(pair, NormSpec(kind="H", s=0.5))
            assert n1 == pytest.approx(n2, rel=1e-12)

    def test_self_convergence_second_order(self, lat16):
        a0, u0 = generate_initial_data(lat16, 0.5, 0.5, seed=8)
        results = {}
        for dt in (4e-3, 2e-3, 1e-3, 2.5e-4):
            cfg = self.make_cfg(lat16, dt=dt, t_final=0.1, sample_stride=10**9)
            results[dt] = run_trajectory((a0, u0), cfg, "compressible")
        ref = results[2.5e-4]
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            (a, u), (a_ref, u_ref) = results[dt], ref
            errs.append((a - a_ref).l2_norm() + (u - u_ref).l2_norm())
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 >= 1.9
        assert order2 >= 1.9


# ---------------------------------------------------------------------------
# Oracle: the compressible right-hand side product by product
# ---------------------------------------------------------------------------


def reference_advect(p, q):
    """(p . grad) q as a sum of one dealiased product per direction."""
    lattice = p.lattice
    out = SpectralField.zeros(lattice, q.components)
    for c in range(lattice.d):
        dq = SpectralField(lattice, 1j * lattice.wavevectors()[c] * q.coeffs)
        out = out + dealiased_product(p.component(c), dq)
    return out


def reference_viscous_operator(u, mu, lam):
    lap = spectral_derivative(u, "laplacian")
    graddiv = spectral_derivative(spectral_derivative(u, "div"), "grad")
    return mu * lap + (mu + lam) * graddiv


def reference_compressible_nonlinear(state_a, state_u, t, cfg, warn_state):
    """The compressible right-hand side with one transform pair per product.

    Each dealiased product re-transforms its operands, and a and u are
    transformed again for the checks and the pressure-law correction: 17
    transforms in all.  Kept as the oracle of ``CompressibleStepper.rhs``.
    """
    lattice = cfg.lattice
    a_grid = inverse_transform(state_a)[0].real
    amax = float(np.max(np.abs(a_grid)))
    if cfg.eps * amax >= 1.0:
        raise VacuumError(
            f"eps*||a||_inf = {cfg.eps * amax:.3f} >= 1: density reached vacuum"
        )
    if cfg.eps * amax > 0.5 and not warn_state.get("vacuum_warned"):
        warn_state["vacuum_warned"] = True
        warnings.warn(
            f"eps*||a||_inf = {cfg.eps * amax:.3f} > 1/2: uniform bound lost",
            RuntimeWarning,
        )
    u_grid = inverse_transform(state_u).real
    umax = float(np.max(np.sqrt(np.sum(u_grid**2, axis=0))))
    dx_min = min(
        2.0 * math.pi * float(b) / n for b, n in zip(lattice.periods, lattice.resolution)
    )
    if umax > 0 and cfg.dt > CFL_SAFETY * dx_min / umax:
        raise CFLError(
            f"dt = {cfg.dt:.3e} exceeds advective CFL bound "
            f"{CFL_SAFETY * dx_min / umax:.3e} (max|u| = {umax:.3f})"
        )

    au = dealiased_product(state_a, state_u)
    n_a = -1.0 * spectral_derivative(au, "div")

    grad_a = spectral_derivative(state_a, "grad")
    a_grad_a = dealiased_product(state_a, grad_a)
    n_u = -1.0 * reference_advect(state_u, state_u) - cfg.kappa * a_grad_a

    visc = reference_viscous_operator(state_u, cfg.mu, cfg.lam)
    eps_a = cfg.eps * a_grid
    i_vals = eps_a / (1 + eps_a)
    k_vals = solvers._pressure_remainder(eps_a, cfg.gamma)
    a_grad_a_grid = inverse_transform(a_grad_a).real
    visc_grid = inverse_transform(visc).real
    correction = k_vals[None] * a_grad_a_grid + i_vals[None] * visc_grid
    n_u = n_u - forward_transform(lattice, correction)
    if cfg.forcing is not None:
        n_u = n_u + forcing_field(cfg.forcing, t)
    return n_a, n_u


ORACLE_LATTICES = {
    "16x16": LatticeSpec.square(2, 16),
    "16x12": LatticeSpec((1, Fraction(3, 2)), (16, 12)),
    "8x8x8": LatticeSpec.square(3, 8),
    "8x8x6": LatticeSpec((1, Fraction(1, 2), Fraction(2, 3)), (8, 8, 6)),
}


class ReferencePropagator:
    """The acoustic-viscous exponential on the full coefficient grid."""

    def __init__(self, lattice, dt, eps, nu, mu):
        self.lattice = lattice
        ksq = lattice.k_squared()
        kmod = lattice.k_modulus()
        c = -nu * ksq
        delta = np.sqrt(((c / 2.0) ** 2 - ksq / eps**2).astype(np.complex128))
        x = delta * dt
        cosh = np.cosh(x)
        small = np.abs(x) < 1e-6
        with np.errstate(divide="ignore", invalid="ignore"):
            sinhc = np.where(small, 1.0, np.sinh(np.where(small, 1.0, x)) / np.where(small, 1.0, x))
        xs = np.where(small, x, 0.0)
        sinhc = np.where(small, 1.0 + xs**2 / 6.0 + xs**4 / 120.0, sinhc)
        cosh = np.where(small, 1.0 + xs**2 / 2.0 + xs**4 / 24.0, cosh)
        s = sinhc * dt
        front = np.exp(c * dt / 2.0)
        b = -1j * kmod / eps
        self.e11 = front * (cosh - (c / 2.0) * s)
        self.e12 = front * b * s
        self.e22 = front * (cosh + (c / 2.0) * s)
        zero = (0,) * lattice.d
        self.e11[zero] = 1.0
        self.e12[zero] = 0.0
        self.e22[zero] = 1.0
        self.transverse = np.exp(-mu * ksq * dt)
        self.kmod = kmod.copy()
        self.kmod[zero] = 1.0
        self.khat = [k / self.kmod for k in lattice.wavevectors()]

    def apply(self, a, u):
        lattice = self.lattice
        kvecs = lattice.wavevectors()
        mu_long = sum(k * u.coeffs[c] for c, k in enumerate(kvecs)) / self.kmod
        a_hat = a.coeffs[0]
        new_a = self.e11 * a_hat + self.e12 * mu_long
        new_mu = self.e12 * a_hat + self.e22 * mu_long
        mean_idx = (slice(None),) + (0,) * lattice.d
        new_u = np.empty_like(u.coeffs)
        for c, khat in enumerate(self.khat):
            trans = u.coeffs[c] - mu_long * khat
            new_u[c] = self.transverse * trans + new_mu * khat
        new_u[mean_idx] = u.coeffs[mean_idx]
        return (
            SpectralField._in_box(lattice, new_a[None]),
            SpectralField._in_box(lattice, new_u),
        )


def reference_grid_terms(state_a, state_u, cfg, warn_state):
    """Grid values of (a, u, grad a, grad u, viscous term) from one inverse
    transform of the full coefficient grids; the checks; the products."""
    lattice = cfg.lattice
    d = lattice.d
    a_hat, u_hat = state_a.coeffs[0], state_u.coeffs
    spectral = np.empty((1 + 3 * d + d * d,) + lattice.resolution, dtype=np.complex128)
    grad_u = spectral[1 + 2 * d : 1 + 2 * d + d * d].reshape((d,) + u_hat.shape)
    spectral[0] = a_hat
    spectral[1 : 1 + d] = u_hat
    for c, k in enumerate(lattice.wavevectors()):
        np.multiply(1j * k, a_hat, out=spectral[1 + d + c])
        np.multiply(1j * k, u_hat, out=grad_u[c])
    spectral[1 + 2 * d + d * d :] = reference_viscous_operator(state_u, cfg.mu, cfg.lam).coeffs
    grid = inverse_transform(SpectralField._in_box(lattice, spectral))
    a_grid, u_grid = grid[0], grid[1 : 1 + d]
    grad_a_grid = grid[1 + d : 1 + 2 * d]
    grad_u_grid = grid[1 + 2 * d : 1 + 2 * d + d * d].reshape((d, d) + lattice.resolution)
    visc_grid = grid[1 + 2 * d + d * d :]

    amax = float(np.max(np.abs(a_grid)))
    if cfg.eps * amax >= 1.0:
        raise VacuumError(f"eps*||a||_inf = {cfg.eps * amax:.3f} >= 1: density reached vacuum")
    if cfg.eps * amax > 0.5 and not warn_state.get("vacuum_warned"):
        warn_state["vacuum_warned"] = True
        warnings.warn(f"eps*||a||_inf = {cfg.eps * amax:.3f} > 1/2: uniform bound lost", RuntimeWarning)
    umax = float(np.max(np.sqrt(np.sum(u_grid**2, axis=0))))
    dx_min = min(2.0 * math.pi * float(b) / n for b, n in zip(lattice.periods, lattice.resolution))
    if umax > 0 and cfg.dt > CFL_SAFETY * dx_min / umax:
        raise CFLError(f"dt = {cfg.dt:.3e} exceeds advective CFL bound")

    eps_a = cfg.eps * a_grid
    products = np.empty((3 * d,) + lattice.resolution)
    np.multiply(a_grid, u_grid, out=products[:d])
    np.multiply(a_grid, grad_a_grid, out=products[d : 2 * d])
    advection = products[2 * d :]
    np.multiply(u_grid[0], grad_u_grid[0], out=advection)
    for c in range(1, d):
        advection += u_grid[c] * grad_u_grid[c]
    return products, solvers._pressure_remainder(eps_a, cfg.gamma), eps_a / (1 + eps_a) * visc_grid


def reference_grid_nonlinear(state_a, state_u, t, cfg, warn_state):
    """The compressible right-hand side in four transforms of full grids."""
    lattice = cfg.lattice
    d = lattice.d
    products, k_vals, i_visc = reference_grid_terms(state_a, state_u, cfg, warn_state)
    dealiased = forward_transform(lattice, products).coeffs
    au, a_grad_a, adv = dealiased[:d], dealiased[d : 2 * d], dealiased[2 * d :]
    n_a = -1.0 * sum(1j * k * au[c] for c, k in enumerate(lattice.wavevectors()))
    n_a = SpectralField._in_box(lattice, n_a[None])
    a_grad_a_grid = inverse_transform(SpectralField._in_box(lattice, a_grad_a))
    correction = forward_transform(lattice, k_vals * a_grad_a_grid + i_visc)
    n_u = (-1.0 * adv - cfg.kappa * a_grad_a) - correction.coeffs
    n_u = SpectralField._in_box(lattice, n_u)
    if cfg.forcing is not None:
        n_u = n_u + forcing_field(cfg.forcing, t)
    return n_a, n_u


def reference_compressible_step(state, t, cfg, propagator, warn_state):
    """One Lawson RK2 step of ``state = (a, u)``, started at ``t``, with the
    right-hand side and the propagator on the full coefficient grids.  Kept as
    the oracle of ``step_compressible``."""

    def rhs(x, time):
        return reference_grid_nonlinear(x[0], x[1], time, cfg, warn_state)

    return lawson_rk2(state, t, cfg.dt, lambda x: propagator.apply(*x), rhs)


def half_spectrum_rhs(a, u, t, cfg, stepper=None):
    """``CompressibleStepper.rhs`` on the half spectra of the fields a and u,
    by ``stepper`` or by a stepper built for (a, u)."""
    if stepper is None:
        stepper = solvers.CompressibleStepper(cfg, a, u)
    x = np.concatenate((half(a), half(u)))
    n = stepper.rhs(x, t, np.empty_like(x))
    return from_half(cfg.lattice, n[:1]), from_half(cfg.lattice, n[1:])


# Pressure-law exponents for the oracles: make_case's gamma = 1.4, gamma = 2
# (K vanishes, so the right-hand side skips the K pass) and gamma = 3 (kappa > 0).
ORACLE_LAWS = {"gamma1.4": 1.4, "gamma2": 2.0, "gamma3": 3.0}


class TestRightHandSideOracle:
    """``CompressibleStepper.rhs`` against the product-by-product reference."""

    def make_case(self, name, eps_amax=0.3, **kw):
        lattice = ORACLE_LATTICES[name]
        eps = 0.5
        a, u = generate_initial_data(lattice, 1.0, 1.0, seed=21)
        amax = float(np.max(np.abs(inverse_transform(a))))
        a = (eps_amax / (eps * amax)) * a
        mode = (1,) + (0,) * (lattice.d - 1)
        forcing = Forcing(
            lattice,
            [ForcingMode(mode, (0.3, -0.2j) + (0.1,) * (lattice.d - 2), "cos", 2.0)],
        )
        options = dict(
            lattice=lattice,
            mu=0.05,
            lam=0.03,
            eps=eps,
            gamma=1.4,
            dt=1e-3,
            t_final=1e-3,
            forcing=forcing,
        )
        options.update(kw)
        return a, u, SolverConfig(**options)

    @staticmethod
    def assert_close(got, ref):
        for g, r in zip(got, ref):
            assert g.is_reality_symmetric() == r.is_reality_symmetric()
            assert g.coeffs.shape == r.coeffs.shape
            scale = float(np.max(np.abs(r.coeffs)))
            assert float(np.max(np.abs(g.coeffs - r.coeffs))) <= 1e-12 * scale

    @pytest.mark.parametrize("name", list(ORACLE_LATTICES))
    @pytest.mark.parametrize("forced", [True, False])
    def test_matches_reference(self, name, forced, law="gamma1.4"):
        a, u, cfg = self.make_case(name, gamma=ORACLE_LAWS[law])
        if not forced:
            cfg = replace(cfg, forcing=None)
        got = half_spectrum_rhs(a, u, 0.3, cfg)
        ref = reference_compressible_nonlinear(a, u, 0.3, cfg, {})
        self.assert_close(got, ref)
        assert got[0].mean_coefficient()[0] == 0.0

    @pytest.mark.parametrize("name", list(ORACLE_LATTICES))
    @pytest.mark.parametrize("forced", [True, False])
    @pytest.mark.parametrize("law", ["gamma2"])
    def test_matches_reference_other_laws(self, name, forced, law):
        self.test_matches_reference(name, forced, law)

    @pytest.mark.parametrize("name", list(ORACLE_LATTICES))
    def test_vacuum_abort(self, name):
        a, u, cfg = self.make_case(name, eps_amax=1.25)
        with pytest.raises(VacuumError, match="density reached vacuum"):
            half_spectrum_rhs(a, u, 0.0, cfg)
        with pytest.raises(VacuumError, match="density reached vacuum"):
            reference_compressible_nonlinear(a, u, 0.0, cfg, {})

    @pytest.mark.parametrize("name", list(ORACLE_LATTICES))
    def test_vacuum_warning_once(self, name):
        a, u, cfg = self.make_case(name, eps_amax=0.75)
        stepper = solvers.CompressibleStepper(cfg, a, u)
        assert not stepper.vacuum_warned
        with pytest.warns(RuntimeWarning, match="uniform bound lost"):
            got = half_spectrum_rhs(a, u, 0.0, cfg, stepper)
        assert stepper.vacuum_warned
        warn_state = {}
        with pytest.warns(RuntimeWarning, match="uniform bound lost"):
            ref = reference_compressible_nonlinear(a, u, 0.0, cfg, warn_state)
        assert warn_state == {"vacuum_warned": True}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            half_spectrum_rhs(a, u, 0.0, cfg, stepper)
            reference_compressible_nonlinear(a, u, 0.0, cfg, warn_state)
        self.assert_close(got, ref)

    @pytest.mark.parametrize("name", list(ORACLE_LATTICES))
    def test_cfl_abort(self, name):
        a, u, cfg = self.make_case(name)
        lattice = cfg.lattice
        umax = float(np.max(np.linalg.norm(inverse_transform(u), axis=0)))
        dx_min = min(
            2 * math.pi * float(b) / n for b, n in zip(lattice.periods, lattice.resolution)
        )
        dt = 2.0 * CFL_SAFETY * dx_min / umax
        cfg = replace(cfg, dt=dt, t_final=dt)
        with pytest.raises(CFLError, match="advective CFL bound"):
            half_spectrum_rhs(a, u, 0.0, cfg)
        with pytest.raises(CFLError, match="advective CFL bound"):
            reference_compressible_nonlinear(a, u, 0.0, cfg, {})


class TestStepOracle:
    """``step_compressible`` on half spectra against the full-grid step."""

    @pytest.mark.parametrize("name", list(ORACLE_LATTICES))
    @pytest.mark.parametrize("variant", ["forced", "unforced"])
    def test_ten_steps_match_reference(self, name, variant, law="gamma1.4"):
        a, u, cfg = TestRightHandSideOracle().make_case(name, gamma=ORACLE_LAWS[law])
        if variant == "unforced":
            cfg = replace(cfg, forcing=None)
        ref_prop = ReferencePropagator(cfg.lattice, cfg.dt, cfg.eps, cfg.nu, cfg.mu)
        got = ref = (a, u)
        for n in range(10):
            got = step_compressible(*got, n * cfg.dt, cfg)
            ref = reference_compressible_step(ref, n * cfg.dt, cfg, ref_prop, {})
        TestRightHandSideOracle.assert_close(got, ref)

    @pytest.mark.parametrize("name", list(ORACLE_LATTICES))
    @pytest.mark.parametrize("variant", ["forced", "unforced"])
    @pytest.mark.parametrize("law", ["gamma2"])
    def test_ten_steps_other_laws(self, name, variant, law):
        self.test_ten_steps_match_reference(name, variant, law)

    @pytest.mark.parametrize("name", list(ORACLE_LATTICES))
    def test_half_full_round_trips(self, name):
        lattice = ORACLE_LATTICES[name]
        a, u = generate_initial_data(lattice, 1.0, 1.0, seed=22)
        # a Hermitian field survives full -> half -> full
        for field in (a, u):
            assert np.array_equal(from_half(lattice, half(field)).coeffs, field.coeffs)
        # any half spectrum that is zero outside the box survives half -> full -> half
        rng = np.random.default_rng(23)
        shape = half(u).shape
        in_box = lattice.dealias_mask()[..., : lattice.cutoffs[-1] + 1]
        array = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * in_box
        assert np.array_equal(half(from_half(lattice, array)), array)

    def test_non_real_data_rejected(self, lat16):
        """A field whose coefficients are not Hermitian is rejected by name;
        its half spectrum would stand for its Hermitian part."""
        cfg = TestCompressible().make_cfg(lat16)
        a, u = generate_initial_data(lat16, 1.0, 1.0, seed=5)
        non_hermitian = {
            "a": a + field_from_modes(lat16, {(1, 2): 0.1j}),
            "u": u + field_from_modes(lat16, {(1, 2): (0.1j, 0.0)}, components=2),
        }
        for name, bad in non_hermitian.items():
            fields = {"a": a, "u": u, name: bad}
            message = f"{name} is not real: its coefficients are not Hermitian"
            with pytest.raises(ValueError, match=message):
                step_compressible(fields["a"], fields["u"], 0.0, cfg)
            with pytest.raises(ValueError, match=message):
                run_trajectory((fields["a"], fields["u"]), cfg, "compressible")


def reference_incompressible_step(v, t, cfg):
    """One Lawson RK2 step of the incompressible system on the full
    coefficient grid: ``advect``, ``helmholtz_project`` and the real heat
    factor.  Kept as the oracle of ``IncompressibleStepper``."""
    lattice = cfg.lattice
    heat = np.exp(-cfg.mu * lattice.k_squared() * cfg.dt)

    def rhs(x, time):
        out = SpectralField.zeros(lattice, lattice.d) - helmholtz_project(advect(x[0], x[0]), "P")
        if cfg.forcing is not None:
            out = out + helmholtz_project(forcing_field(cfg.forcing, time), "P")
        return (out,)

    return lawson_rk2((v,), t, cfg.dt, lambda x: (x[0].scale_modes(heat),), rhs)[0]


class TestIncompressibleStepOracle:
    """``IncompressibleStepper`` on the half spectrum, in rotational form,
    against the full-grid step."""

    @pytest.mark.parametrize("name", list(ORACLE_LATTICES))
    @pytest.mark.parametrize("variant", ["forced", "unforced"])
    def test_ten_steps_match_reference(self, name, variant):
        _, u, cfg = TestRightHandSideOracle().make_case(name)
        if variant == "unforced":
            cfg = replace(cfg, forcing=None)
        ref = v0 = helmholtz_project(u, "P")
        stepper = solvers.IncompressibleStepper(cfg, v0)
        for n in range(10):
            stepper.step(n * cfg.dt)
            ref = reference_incompressible_step(ref, n * cfg.dt, cfg)
        TestRightHandSideOracle.assert_close((stepper.state(),), (ref,))

    def test_non_real_data_rejected(self, lat16):
        cfg = SolverConfig(lattice=lat16, mu=0.05, dt=1e-2, t_final=0.1)
        v = field_from_modes(lat16, {(0, 1): (1.0, 0.0), (0, -1): (0.5, 0.0)}, components=2)
        message = "v is not real: its coefficients are not Hermitian"
        with pytest.raises(ValueError, match=message):
            step_incompressible(v, 0.0, cfg)
        with pytest.raises(ValueError, match=message):
            run_trajectory(v, cfg, "incompressible")
        with pytest.raises(ValueError, match=message):
            run_trajectory((v, AcousticCoeffs.zeros(lat16)), cfg, "limit")
        # the zero field, like any Hermitian field, is real
        step_incompressible(SpectralField.zeros(lat16, 2), 0.0, cfg)

    def test_steps_allocate_only_half_spectrum_stages(self, monkeypatch):
        """The traced peak of steps 2..5 of a 64^2 incompressible,
        compressible and limit run stays below the new state, one
        half-spectrum component and 4 kB.  The Lawson stages and the
        right-hand side's stacks are the workspace's arrays, so a step
        allocates its new state, which holds the half step, and transients:
        numpy's iterator buffer of a product that reads the forward
        transform's strided columns (one component), for the limit pair the
        copy that ``np.take`` makes of a read-only index array of the cached
        table (8 bytes per entry), and a few small ones (reductions, V's
        finiteness mask)."""
        lattice = LatticeSpec.square(2, 64)
        cfg = SolverConfig(
            lattice=lattice, mu=0.05, lam=0.05, eps=0.1, dt=2e-3, t_final=1e-2, sample_stride=5
        )
        a0, u0 = generate_initial_data(lattice, 1.0, 1.0, seed=0)
        initial = {
            "incompressible": helmholtz_project(u0, "P"),
            "compressible": (a0, u0),
            "limit": limit_initial_data(a0, u0),
        }
        table = resonance._limit_table(lattice)
        index_copy = {"limit": 8 * max(table.q1_m.size, table.q2_m.size)}
        lawson = solvers._lawson_rk2
        for kind, fields in initial.items():
            peaks, states = [], []

            def measured(*args):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = lawson(*args)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
                states.append(out.nbytes)
                return out

            monkeypatch.setattr(solvers, "_lawson_rk2", measured)
            tracemalloc.start()
            try:
                run_trajectory(fields, cfg, kind)
            finally:
                tracemalloc.stop()
            assert len(peaks) == cfg.n_steps, kind
            d = lattice.d
            components = {"incompressible": d, "compressible": 1 + d, "limit": d + 2}[kind]
            assert states[0] == components * half(u0).nbytes // d, kind
            margin = half(u0).nbytes // d + index_copy.get(kind, 0) + 4096
            assert max(peaks[1:]) < states[0] + margin, kind


class TestStepperFieldChecks:
    """Each stepper rejects, by name, a field on another lattice or with the
    wrong number of components."""

    def test_misread_fields_rejected(self):
        lat16 = LatticeSpec.square(2, 16)
        cfg = SolverConfig(lattice=lat16, mu=0.05, lam=0.05, eps=0.5, dt=1e-3, t_final=1e-3)
        a, u = generate_initial_data(lat16, 1.0, 1.0, seed=5)
        v, V = helmholtz_project(u, "P"), AcousticCoeffs.zeros(lat16)
        cases = [
            ("compressible", (u, a), "a has 2 components, expected 1"),
            ("compressible", (a, a), "u has 1 components, expected 2"),
            ("incompressible", a, "v has 1 components, expected 2"),
            ("limit", (v, a), "V has 1 components, expected 2"),
        ]
        for other in (LatticeSpec.square(2, 16, period=2), LatticeSpec.square(2, 32)):
            a2, u2 = generate_initial_data(other, 1.0, 1.0, seed=5)
            v2, V2 = helmholtz_project(u2, "P"), AcousticCoeffs.zeros(other)
            cases += [
                ("compressible", (a2, u), "a lives on LatticeSpec"),
                ("compressible", (a, u2), "u lives on LatticeSpec"),
                ("incompressible", v2, "v lives on LatticeSpec"),
                ("limit", (v2, V), "v lives on LatticeSpec"),
                ("limit", (v, V2), "V lives on LatticeSpec"),
            ]
        for kind, initial, message in cases:
            with pytest.raises(ValueError, match=message):
                run_trajectory(initial, cfg, kind)
        # the one-step functions build the same steppers
        with pytest.raises(ValueError, match="a has 2 components"):
            step_compressible(u, a, 0.0, cfg)


class TestNonFiniteGuards:
    """A NaN coefficient stops a run at its first step.  NaN fails every
    ordered comparison, so the vacuum and CFL checks test that the maximum
    they read is finite."""

    @pytest.mark.parametrize(
        "kind, poisoned, error, message",
        [
            ("compressible", "a", VacuumError, r"\|\|a\|\|_inf = nan is not finite"),
            ("compressible", "u", CFLError, r"max\|u\| = nan is not finite"),
            ("incompressible", "v", CFLError, r"max\|u\| = nan is not finite"),
            ("limit", "v", CFLError, r"max\|u\| = nan is not finite"),
        ],
    )
    def test_nan_coefficient_raises_at_first_step(self, lat16, kind, poisoned, error, message):
        cfg = SolverConfig(lattice=lat16, mu=0.05, lam=0.05, eps=0.5, dt=1e-3, t_final=1e-2)
        a, u = generate_initial_data(lat16, 1.0, 1.0, seed=5)
        fields = {"a": a, "u": u, "v": helmholtz_project(u, "P")}
        coeffs = fields[poisoned].coeffs.copy()
        coeffs[:, 1, 0] = coeffs[:, -1, 0] = math.nan  # mode (1, 0) and its mirror
        fields[poisoned] = SpectralField(lat16, coeffs)
        if kind == "compressible":
            stepper = solvers.CompressibleStepper(cfg, fields["a"], fields["u"])
        elif kind == "incompressible":
            stepper = solvers.IncompressibleStepper(cfg, fields["v"])
        else:
            V = AcousticCoeffs.zeros(lat16)
            stepper = solvers.LimitStepper(cfg, fields["v"], V)
        with pytest.raises(error, match=message):
            stepper.step(0.0)

    def test_non_finite_V_rejected_when_built(self, lat16):
        """V has no grid maximum that a step reads, so the limit stepper
        checks it once, when it is built."""
        cfg = SolverConfig(lattice=lat16, mu=0.05, lam=0.05, eps=0.5, dt=1e-3, t_final=1e-2)
        a, u = generate_initial_data(lat16, 1.0, 1.0, seed=5)
        v = helmholtz_project(u, "P")
        V = acoustic_transform(a, u - v)
        for value in (math.nan, math.inf):
            coeffs = V.coeffs.copy()
            coeffs[0, 1, 0] = value  # mode (1, 0) of one branch, inside the box
            bad = AcousticCoeffs._in_box(lat16, coeffs)
            with pytest.raises(ValueError, match="V has non-finite coefficients"):
                solvers.LimitStepper(cfg, v, bad)
            with pytest.raises(ValueError, match="V has non-finite coefficients"):
                run_trajectory((v, bad), cfg, "limit")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_V_raises_at_first_step(self, lat16, value):
        """A non-finite V that reaches a built stepper, here written into its
        state, stops the next step: V does not feed back into v, so nothing
        else would notice it."""
        cfg = SolverConfig(lattice=lat16, mu=0.05, lam=0.05, eps=0.5, dt=1e-3, t_final=1e-2)
        a, u = generate_initial_data(lat16, 1.0, 1.0, seed=5)
        v, V = limit_initial_data(a, u)
        stepper = solvers.LimitStepper(cfg, v, V)
        x = stepper.x.copy()
        x[lat16.d, 1, 0] = value  # mode (1, 0) of V's first branch
        stepper.x = x
        with pytest.raises(ValueError, match="V has non-finite coefficients"):
            stepper.step(0.0)


class TestTransformBudget:
    """Component counts of the transforms in one compressible right-hand side."""

    @pytest.mark.parametrize(
        "name, law, inverse, forward",
        [
            ("16x16", "gamma2", [6], [5]),
            ("16x16", "gamma1.4", [6, 2], [6, 2]),
            ("16x16", "gamma3", [6, 2], [6, 2]),
            ("8x8x8", "gamma2", [10], [7]),
            ("8x8x8", "gamma1.4", [10, 3], [8, 3]),
        ],
    )
    def test_components_per_rhs(self, monkeypatch, name, law, inverse, forward):
        a, u, cfg = TestRightHandSideOracle().make_case(name, gamma=ORACLE_LAWS[law])
        calls = {"inverse": [], "forward": []}

        def counted(key, transform):
            def wrapped(values, lattice, **buffers):
                calls[key].append(values.shape[0])
                return transform(values, lattice, **buffers)

            return wrapped

        monkeypatch.setattr(solvers, "_half_inverse", counted("inverse", solvers._half_inverse))
        monkeypatch.setattr(solvers, "_half_forward", counted("forward", solvers._half_forward))
        half_spectrum_rhs(a, u, 0.3, cfg)
        assert calls == {"inverse": inverse, "forward": forward}

    @pytest.mark.parametrize("name, inverse, forward", [("16x16", [3], [2]), ("8x8x8", [6], [3])])
    def test_incompressible_components_per_rhs(self, monkeypatch, name, inverse, forward):
        _, u, cfg = TestRightHandSideOracle().make_case(name)
        stepper = solvers.IncompressibleStepper(cfg, helmholtz_project(u, "P"))
        calls = {"inverse": [], "forward": []}
        for key, fname in (("inverse", "_half_inverse"), ("forward", "_half_forward")):
            transform = getattr(solvers, fname)

            def wrapped(values, lattice, _key=key, _transform=transform, **buffers):
                calls[_key].append(values.shape[0])
                return _transform(values, lattice, **buffers)

            monkeypatch.setattr(solvers, fname, wrapped)
        stepper.rhs(stepper.x, 0.3, np.empty_like(stepper.x))
        assert calls == {"inverse": inverse, "forward": forward}

    def test_remainder_is_zero(self):
        # the right-hand side skips the K pass at gamma = 2 alone, where K
        # vanishes identically
        a = np.linspace(-0.9, 0.9, 181)
        assert not np.any(solvers._pressure_remainder(a, 2.0))
        assert np.all(solvers._pressure_remainder(a[a != 0], 1.4) != 0)


class TestCompressibleStepper:
    """The stepper that ``run_trajectory`` builds once per compressible run."""

    def make_case(self, name, law, forced, n_steps=7, stride=3):
        lattice = ORACLE_LATTICES[name]
        forcing = None
        if forced:
            mode = (1, 2) + (0,) * (lattice.d - 2)
            amplitude = (0.1, -0.05j) + (0.02,) * (lattice.d - 2)
            forcing = Forcing(lattice, [ForcingMode(mode, amplitude, "cos", 3.0)])
        cfg = SolverConfig(
            lattice=lattice,
            mu=0.05,
            lam=0.03,
            eps=0.2,
            gamma=ORACLE_LAWS[law],
            dt=1e-3,
            t_final=n_steps * 1e-3,
            sample_stride=stride,
            forcing=forcing,
        )
        a0, u0 = generate_initial_data(lattice, 1.0, 1.0, seed=31)
        return cfg, a0, u0

    @pytest.mark.parametrize("name", ["16x16", "8x8x6"])
    @pytest.mark.parametrize("law, forced", [("gamma2", True), ("gamma1.4", False)])
    @pytest.mark.parametrize("stride", [1, 3, 7])
    def test_sampling_does_not_change_the_bytes(self, name, law, forced, stride):
        cfg, a0, u0 = self.make_case(name, law, forced, stride=stride)
        traj = SampledRun((a0, u0), cfg, "compressible")
        state = (a0, u0)
        hand, times = [state], [0.0]
        for n in range(1, cfg.n_steps + 1):
            state = step_compressible(*state, (n - 1) * cfg.dt, cfg)
            if n % stride == 0 or n == cfg.n_steps:
                hand.append(state)
                times.append(n * cfg.dt)
        assert len(traj.states) == len(hand)
        assert traj.times == times
        for got, want in zip(traj.states + [traj.final], hand + [hand[-1]]):
            for g, w in zip(got, want):
                assert g.coeffs.tobytes() == w.coeffs.tobytes()

    def test_steps_allocate_less_than_one_grid_stack(self, monkeypatch):
        """After the first step, the traced peak of a 64^2 step stays below
        six components on the coefficient grid.  The right-hand side's
        inverse, product and forward stacks are the stepper's own arrays;
        a step allocates the half-spectrum stages of the Lawson step and the
        propagator (about 15 arrays of 64 x 22 modes at its peak)."""
        lattice = LatticeSpec.square(2, 64)
        cfg = SolverConfig(
            lattice=lattice, mu=0.05, lam=0.05, eps=0.1, dt=2e-3, t_final=1e-2, sample_stride=5
        )
        a0, u0 = generate_initial_data(lattice, 1.0, 1.0, seed=0)
        peaks = []
        lawson = solvers._lawson_rk2

        def measured(*args):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = lawson(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return out

        monkeypatch.setattr(solvers, "_lawson_rk2", measured)
        tracemalloc.start()
        try:
            run_trajectory((a0, u0), cfg, "compressible")
        finally:
            tracemalloc.stop()
        assert len(peaks) == cfg.n_steps
        stack = 6 * a0.coeffs.nbytes  # six components on the coefficient grid
        assert max(peaks[1:]) < stack


class TestSharedWorkspace:
    """Steppers on one lattice in one thread share one right-hand-side
    workspace and the lattice's cached multipliers, so that each holds only
    its fields and, for the compressible system, the exponentials of its
    eps."""

    @staticmethod
    def makers(cfg, a0, u0):
        """Builders of two limit steppers, the second on half the averaged
        state, and of compressible steppers at eps 0.2 and 0.1,
        in that order, so that the compressible steppers grow the workspace
        that the limit steppers sized, and the limit steppers fill its
        ``forms`` array in turn."""
        v0, V0 = limit_initial_data(a0, u0)
        return {
            "limit": lambda: solvers.LimitStepper(cfg, v0, V0),
            "limit, V0/2": lambda: solvers.LimitStepper(cfg, v0, 0.5 * V0),
            0.2: lambda: solvers.CompressibleStepper(replace(cfg, eps=0.2), a0, u0),
            0.1: lambda: solvers.CompressibleStepper(replace(cfg, eps=0.1), a0, u0),
        }

    @staticmethod
    def run(steppers, n_steps):
        """Step ``steppers`` in turn, one step each per round; their states' bytes."""
        for n in range(n_steps):
            for stepper in steppers.values():
                stepper.step(n * stepper.cfg.dt)
        return {key: [x.tobytes() for x in stepper.x] for key, stepper in steppers.items()}

    @pytest.mark.parametrize("name", ["16x16", "8x8x6"])
    @pytest.mark.parametrize("law", ["gamma2", "gamma1.4"])
    def test_interleaved_steppers_match_lone_runs(self, name, law):
        cfg, a0, u0 = TestCompressibleStepper().make_case(name, law, forced=True)
        makers = self.makers(cfg, a0, u0)
        lone = {}
        for key, make in makers.items():
            lone.update(self.run({key: make()}, cfg.n_steps))
        steppers = {key: make() for key, make in makers.items()}
        assert len({id(stepper.work) for stepper in steppers.values()}) == 1
        # the limit table is the lattice's, one object for every limit stepper
        assert steppers["limit"].table is steppers["limit, V0/2"].table
        assert self.run(steppers, cfg.n_steps) == lone

    @pytest.mark.parametrize("built_in", ["worker", "main"])
    def test_two_threads_give_the_sequential_bytes(self, built_in):
        """Two threads step their own steppers on one lattice object, with a
        short switch interval so that their right-hand sides interleave; the
        steppers are built in the worker threads or in the main thread."""
        cfg, a0, u0 = TestCompressibleStepper().make_case("16x16", "gamma1.4", False, n_steps=30)
        makers = self.makers(cfg, a0, u0)
        groups = [{key: makers[key] for key in ("limit", 0.2)}, {0.1: makers[0.1]}]
        want = [self.run({key: make() for key, make in group.items()}, cfg.n_steps) for group in groups]
        built = [{key: make() for key, make in group.items()} for group in groups]
        if built_in == "worker":
            built = [None, None]
        results, works = [None, None], [None, None]
        barrier = threading.Barrier(2)

        def work(i):
            steppers = built[i] or {key: make() for key, make in groups[i].items()}
            barrier.wait()
            results[i] = self.run(steppers, cfg.n_steps)
            works[i] = next(iter(steppers.values())).work

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert results == want
        assert works[0] is not works[1]

    def test_each_added_compressible_stepper_holds_its_state_only(self):
        """After one stepped 64^2 compressible stepper, each further one, built
        and stepped, adds less than eight half-spectrum components: its
        (a, u) and the propagator's e11, e12 and e22 are six.  With its own
        right-hand-side arrays and multipliers, a stepper added about 57
        (1.3 MB)."""
        lattice = LatticeSpec.square(2, 64)
        cfg = SolverConfig(lattice=lattice, mu=0.05, lam=0.05, eps=0.2, dt=2e-3, t_final=1e-2)
        a0, u0 = generate_initial_data(lattice, 1.0, 1.0, seed=0)
        steppers = []

        def add(eps):
            steppers.append(solvers.CompressibleStepper(replace(cfg, eps=eps), a0, u0))
            steppers[-1].step(0.0)

        add(0.2)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for eps in (0.1, 0.05, 0.025, 0.0125):
                add(eps)
            added = (tracemalloc.get_traced_memory()[0] - start) / 4
        finally:
            tracemalloc.stop()
        assert added < 8 * half(a0).nbytes

    def test_lone_incompressible_stepper_allocates_its_own_arrays_only(self):
        """A lone 64^2 stepper's workspace holds just what its step reads,
        and with the lattice's multipliers cached (by an earlier stepper,
        now gone with its workspace) building it allocates less than the
        workspace's arrays and the three multipliers that each stepper once
        allocated for itself."""
        lattice = LatticeSpec.square(2, 64)
        cfg = SolverConfig(lattice=lattice, mu=0.05, dt=2e-3, t_final=1e-2)
        _, u0 = generate_initial_data(lattice, 1.0, 1.0, seed=0)
        v0 = helmholtz_project(u0, "P")
        solvers.IncompressibleStepper(cfg, v0).step(0.0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            stepper = solvers.IncompressibleStepper(cfg, v0)
            allocated = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        half_c = half(v0).nbytes // 2  # one component on the half spectrum
        grid_c = 64 * 64 * 8  # one real grid component
        spectrum_c = 64 * 33 * 16  # one component of a real-data FFT
        # stages 2 x 2; grid 3, Lamb term 2 and scratch 1; spectra the larger
        # of the inverse stack, 3, and the Lamb term's real-data FFT, 2
        arrays = 4 * half_c + 6 * grid_c + max(3 * half_c, 2 * spectrum_c)
        layout = ("stages", "grid", "products", "spectra")
        assert tuple(stepper.work.layout) == layout
        assert sum(getattr(stepper.work, name).nbytes for name in layout) == arrays
        # the heat factor 1, i k 2 and the Leray multipliers 2
        assert allocated < arrays + 5 * half_c


    @pytest.mark.parametrize("name", ["16x16", "8x8x6"])
    @pytest.mark.parametrize("law", ["gamma2", "gamma1.4"])
    def test_one_complex_buffer(self, name, law):
        """The workspace of a Mach sweep holds no ``forward`` array: one
        complex buffer, ``spectra``, holds the largest of the compressible
        inverse stack, the forward stack's real-data FFT spectra and the
        limit forms' extended inputs, gathers and products, entry for
        entry; ``stages`` holds the limit pair's two stages."""
        cfg, a0, u0 = TestCompressibleStepper().make_case(name, law, forced=True)
        steppers = {key: make() for key, make in self.makers(cfg, a0, u0).items()}
        work = steppers[0.1].work
        lattice = cfg.lattice
        d, pairs = lattice.d, lattice.d * (lattice.d - 1) // 2
        lead = math.prod(lattice.resolution[:-1])
        half_n = lead * (lattice.cutoffs[-1] + 1)
        spectrum_n = lead * (lattice.resolution[-1] // 2 + 1)
        table = steppers["limit"].table
        sizes = {
            "inverse stack": (1 + 2 * d + pairs) * half_n,
            "forward spectra": (2 * d + 1 + (law != "gamma2")) * spectrum_n,
            "forms": 2 * (d + 2) * half_n + 2 * max(table.q1_m.size, table.q2_m.size),
        }
        assert not hasattr(work, "forward")
        assert set(work.layout) == {"stages", "grid", "products", "spectra"}
        assert work.spectra.shape == (max(sizes.values()),)
        half_shape = lattice.resolution[:-1] + (lattice.cutoffs[-1] + 1,)
        assert work.stages.shape == (2 * (d + 2),) + half_shape


class TestIncompressible:
    def test_taylor_green_exact(self):
        lattice = LatticeSpec.square(2, 64)
        mu = 0.1
        cfg = SolverConfig(lattice=lattice, mu=mu, lam=0.0, dt=0.01, t_final=1.0)
        v = taylor_green(lattice)
        t = 0.0
        for step in range(cfg.n_steps):
            v = step_incompressible(v, t, cfg)
            t += cfg.dt
        exact = math.exp(-2.0 * mu * 1.0) * taylor_green(lattice)
        err = (v - exact).l2_norm() / exact.l2_norm()
        assert err <= 1e-6

    def test_divergence_free_preserved(self, lat16):
        cfg = SolverConfig(lattice=lat16, mu=0.02, dt=2e-3, t_final=0.1)
        _, u0 = generate_initial_data(lat16, 1.0, 1.5, seed=9)
        v = helmholtz_project(u0, "P")
        traj = SampledRun(v, cfg, "incompressible")
        for v in traj.states:
            div = spectral_derivative(v, "div")
            assert div.l2_norm() <= 1e-12 * max(1.0, v.l2_norm())

    def test_zero_data_zero_forcing(self, lat16):
        cfg = SolverConfig(lattice=lat16, mu=0.1, dt=1e-2, t_final=0.1)
        v = SpectralField.zeros(lat16, 2)
        out = step_incompressible(v, 0.0, cfg)
        assert out.l2_norm() == 0.0

    def test_energy_law(self, lat16):
        # ||v(T)||^2 - ||v(0)||^2 = -2 mu int ||grad v||^2 dt (no forcing)
        cfg = SolverConfig(lattice=lat16, mu=0.05, dt=5e-4, t_final=0.25)
        _, u0 = generate_initial_data(lat16, 1.0, 1.0, seed=10)
        v0 = helmholtz_project(u0, "P")
        traj = SampledRun(v0, cfg, "incompressible")
        energies = [v.l2_norm() ** 2 for v in traj.states]
        grads = [float(np.sum(lat16.k_squared() * v.mode_power())) for v in traj.states]
        dissipated = 2.0 * cfg.mu * np.trapezoid(grads, traj.times)
        defect = abs(energies[-1] - energies[0] + dissipated) / energies[0]
        assert defect <= 1e-6

    def test_self_convergence_second_order(self, lat16):
        _, u0 = generate_initial_data(lat16, 1.0, 1.2, seed=11)
        v0 = helmholtz_project(u0, "P")
        outs = {}
        for dt in (4e-3, 2e-3, 1e-3, 2.5e-4):
            cfg = SolverConfig(
                lattice=lat16, mu=0.02, dt=dt, t_final=0.2, sample_stride=10**9
            )
            outs[dt] = run_trajectory(v0, cfg, "incompressible")
        errs = [
            (outs[dt] - outs[2.5e-4]).l2_norm() for dt in (4e-3, 2e-3, 1e-3)
        ]
        assert math.log2(errs[0] / errs[1]) >= 1.9
        assert math.log2(errs[1] / errs[2]) >= 1.9


class TestLimit:
    def make_setup(self, lattice, dt, t_final, seed=12):
        cfg = SolverConfig(lattice=lattice, mu=0.05, lam=0.05, gamma=3.0, dt=dt, t_final=t_final)
        _, u0 = generate_initial_data(lattice, 1.0, 1.0, seed=seed)
        v0 = helmholtz_project(u0, "P")
        return cfg, v0

    def test_zero_initial_stays_zero(self, lat16):
        cfg, v0 = self.make_setup(lat16, dt=1e-2, t_final=0.1)
        _, out = step_limit(v0, AcousticCoeffs.zeros(lat16), 0.0, cfg)
        assert out.l2_norm() == 0.0

    def test_resonant_growth_rate(self):
        # mode pair +-(1,0): output (2,0) grows at the limit-form rate
        lattice = LatticeSpec.square(2, 16)
        kappa = 1.0
        cfg = SolverConfig(lattice=lattice, mu=0.0, lam=0.0, gamma=3.0, dt=1e-4, t_final=5e-3)
        V0 = acoustic_from_modes(
            lattice,
            {
                ((1, 0), 1): 1.0,
                ((-1, 0), 1): 1.0,
                ((1, 0), -1): 0.5,
                ((-1, 0), -1): 0.5,
            },
        )
        v, V = SpectralField.zeros(lattice, 2), V0
        for n in range(cfg.n_steps):
            v, V = step_limit(v, V, n * cfg.dt, cfg)
        assert v.l2_norm() == 0.0
        rate = limit_q2(V0, V0, kappa=kappa)
        expected = -cfg.t_final * rate.plus[2, 0]
        got = V.plus[2, 0]
        assert got == pytest.approx(expected, rel=2e-2)
        assert abs(got) > 0

    def test_energy_law(self, lat16):
        # ||V(T)||^2 - ||V(0)||^2 = -nu int sum_k |k|^2 |V_k|^2 dt: the heat
        # factor exp(-nu |k|^2 t/2) dissipates and the limit forms are neutral
        cfg, _ = self.make_setup(lat16, dt=5e-4, t_final=0.25)
        initial = limit_initial_data(*generate_initial_data(lat16, 1.0, 1.0, seed=10))
        traj = SampledRun(initial, cfg, "limit")
        energies = [V.l2_norm() ** 2 for _, V in traj.states]
        grads = [float(np.sum(lat16.k_squared() * V.mode_power())) for _, V in traj.states]
        dissipated = cfg.nu * np.trapezoid(grads, traj.times)
        defect = abs(energies[-1] - energies[0] + dissipated) / energies[0]
        assert defect <= 1e-6

    @pytest.mark.parametrize("name", ["16x16", "8x8x6"])
    def test_state_V_is_hermitian_bit_for_bit(self, name):
        """The stepper holds V's half spectra, so each branch of ``state()``'s
        V satisfies V[-k] = conj V[k] exactly on the columns 1..cut."""
        lattice = {
            "16x16": LatticeSpec.square(2, 16),
            "8x8x6": LatticeSpec((1, Fraction(1, 2), Fraction(2, 3)), (8, 8, 6)),
        }[name]
        cfg, _ = self.make_setup(lattice, dt=5e-3, t_final=0.05)
        v0, V0 = limit_initial_data(*generate_initial_data(lattice, 1.0, 1.0, seed=10))
        stepper = solvers.LimitStepper(cfg, v0, V0)
        for n in range(5):
            stepper.step(n * cfg.dt)
        v, V = stepper.state()
        assert V.coeffs.shape == (2,) + lattice.resolution
        cut, n = lattice.cutoffs[-1], lattice.resolution[-1]
        mirror = np.conj(_mirror(V.coeffs, range(1, lattice.d + 1)))
        assert np.array_equal(V.coeffs[..., n - cut :], mirror[..., n - cut :])
        assert np.any(V.coeffs[..., n - cut :] != 0)
        assert not np.array_equal(V.coeffs, V0.coeffs)

    def test_non_hermitian_V_rejected(self, lat16):
        """Only V's half spectra are stepped, so a V whose branches are not
        Hermitian, which they would misread, is rejected when built."""
        cfg, v0 = self.make_setup(lat16, dt=5e-3, t_final=0.05)
        V = acoustic_from_modes(lat16, {((1, 2), 1): 1.0, ((-1, -2), 1): 0.5})
        message = "V is not real: its coefficients are not Hermitian"
        with pytest.raises(ValueError, match=message):
            solvers.LimitStepper(cfg, v0, V)
        with pytest.raises(ValueError, match=message):
            run_trajectory((v0, V), cfg, "limit")

    def test_self_convergence_second_order(self, lat16):
        cfg0, v0 = self.make_setup(lat16, dt=1e-3, t_final=0.1)
        a0, u0 = generate_initial_data(lat16, 0.8, 1.0, seed=13)
        V0 = acoustic_transform(a0, helmholtz_project(u0, "Q"))
        outs = {}
        for dt in (4e-3, 2e-3, 1e-3, 2.5e-4):
            cfg = SolverConfig(
                lattice=lat16, mu=0.05, lam=0.05, gamma=cfg0.gamma, dt=dt, t_final=0.1,
                sample_stride=10**9,
            )
            outs[dt] = run_trajectory((v0, V0), cfg, "limit")[1]
        errs = [(outs[dt] - outs[2.5e-4]).l2_norm() for dt in (4e-3, 2e-3, 1e-3)]
        assert math.log2(errs[0] / errs[1]) >= 1.9
        assert math.log2(errs[1] / errs[2]) >= 1.9


class TestHeatFactor:
    """``IncompressibleStepper`` and ``LimitStepper`` store their heat factors
    (v's ``heat``, and V's ``heat_V`` of the limit pair) as complex; the same
    stepper with a real factor swapped in gives the same bytes."""

    @staticmethod
    def assert_real_factor_same_bytes(make, dt, factor):
        stepper, real = make(), make()
        assert getattr(stepper, factor).dtype == np.complex128
        setattr(real, factor, getattr(stepper, factor).real.copy())
        for n in range(3):
            stepper.step(n * dt)
            real.step(n * dt)
            assert [x.tobytes() for x in stepper.x] == [x.tobytes() for x in real.x]

    @pytest.mark.parametrize("name", ["16x16", "8x8x6"])
    def test_same_bytes_as_real_factor(self, name):
        cfg, a0, u0 = TestCompressibleStepper().make_case(name, "gamma1.4", forced=True)
        v0 = helmholtz_project(u0, "P")
        self.assert_real_factor_same_bytes(
            lambda: solvers.IncompressibleStepper(cfg, v0), cfg.dt, "heat"
        )
        V0 = acoustic_transform(a0, u0 - v0)
        for factor in ("heat", "heat_V"):
            self.assert_real_factor_same_bytes(
                lambda: solvers.LimitStepper(cfg, v0, V0), cfg.dt, factor
            )

    def test_complex_factor_allocates_only_the_result(self):
        """``scale_modes`` with a complex-stored factor, which each step applies
        twice, allocates its result and no iterator or cast buffer."""
        lattice = LatticeSpec.square(2, 64)
        _, u = generate_initial_data(lattice, 1.0, 1.0, seed=0)
        heat = np.exp(-0.05 * lattice.k_squared() * 5e-3).astype(np.complex128)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            scaled = u.scale_modes(heat)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * scaled.coeffs.nbytes


class TestTrajectoryLoop:
    """run_trajectory against hand-stepping, with a stride that leaves a tail:
    10 steps sampled every 3 give samples after steps 0, 3, 6, 9 and 10."""

    SAMPLED = (0, 3, 6, 9, 10)

    @pytest.fixture
    def cfg(self, lat16):
        # a time-dependent force, so a step started at the wrong time shows
        forcing = Forcing(
            lat16,
            [ForcingMode(mode=(1, 2), amplitude=(0.1, -0.05), envelope="cos", omega=3.0)],
        )
        return SolverConfig(
            lattice=lat16,
            mu=0.05,
            lam=0.05,
            eps=0.2,
            dt=0.1,  # step starts n*dt differ from sums of dt from n = 6 on
            t_final=1.0,
            sample_stride=3,
            forcing=forcing,
        )

    def hand_run(self, cfg, initial, step):
        """Samples of repeated ``step(x, t)`` calls, each started at t = n*dt."""
        assert cfg.n_steps == 10
        x, samples = initial, [initial]
        for n in range(1, cfg.n_steps + 1):
            x = step(x, (n - 1) * cfg.dt)
            if n in self.SAMPLED:
                samples.append(x)
        return samples

    def check_times(self, traj, cfg, kind):
        assert np.array_equal(traj.times, cfg.dt * np.array(self.SAMPLED))

    def test_compressible_matches_hand_stepping(self, lat16, cfg):
        a0, u0 = generate_initial_data(lat16, 0.5, 0.5, seed=21)
        traj = SampledRun((a0, u0), cfg, "compressible")
        hand = self.hand_run(
            cfg, (a0, u0), lambda s, t: step_compressible(*s, t, cfg)
        )
        self.check_times(traj, cfg, "compressible")
        assert len(traj.states) == len(hand)
        for got, state in zip(traj.states, hand):
            for g, w in zip(got, state):
                assert np.array_equal(g.coeffs, w.coeffs)

    def test_states_carry_their_stamp(self, lat16):
        """Each sample, the last one too, is stamped t = step * dt exactly in
        the time passed to the hook, not a sum of steps (0.025 + 0.005 is
        0.030000000000000002)."""
        cfg = SolverConfig(lattice=lat16, mu=0.05, lam=0.05, eps=0.2, dt=0.005, t_final=0.03)
        a0, u0 = generate_initial_data(lat16, 0.5, 0.5, seed=21)
        traj = SampledRun((a0, u0), cfg, "compressible")
        assert traj.times == [0.005 * n for n in range(7)]
        assert traj.times[-1] == 0.03

    def test_incompressible_matches_hand_stepping(self, lat16, cfg):
        _, u0 = generate_initial_data(lat16, 0.5, 0.5, seed=22)
        v0 = helmholtz_project(u0, "P")
        traj = SampledRun(v0, cfg, "incompressible")
        hand = self.hand_run(cfg, v0, lambda v, t: step_incompressible(v, t, cfg))
        self.check_times(traj, cfg, "incompressible")
        assert len(traj.states) == len(hand)
        for v_traj, v_hand in zip(traj.states, hand):
            assert np.array_equal(v_traj.coeffs, v_hand.coeffs)

    def test_limit_matches_hand_stepping(self, lat16, cfg):
        a0, u0 = generate_initial_data(lat16, 0.5, 0.5, seed=23)
        v0 = helmholtz_project(u0, "P")
        V0 = acoustic_transform(a0, u0 - v0)
        traj = SampledRun((v0, V0), cfg, "limit")
        hand = self.hand_run(
            cfg, (v0, V0), lambda x, t: step_limit(*x, t, cfg)
        )
        self.check_times(traj, cfg, "limit")
        assert len(traj.states) == len(hand)
        for (v_traj, V_traj), (v_hand, V_hand) in zip(traj.states, hand):
            assert np.array_equal(v_traj.coeffs, v_hand.coeffs)
            assert np.array_equal(V_traj.plus, V_hand.plus)
            assert np.array_equal(V_traj.minus, V_hand.minus)


    def test_steppers_with_their_own_dt(self, lat16, cfg):
        """Two compressible steppers, at dt and dt/2, advance together to the
        samples of one clock; each takes its own steps, step n starting at n
        times its own dt, and matches hand-stepping bit for bit."""
        a0, u0 = generate_initial_data(lat16, 0.5, 0.5, seed=21)
        cfgs = {"dt": cfg, "dt/2": replace(cfg, dt=cfg.dt / 2)}
        steppers = {key: solvers.CompressibleStepper(c, a0, u0) for key, c in cfgs.items()}
        got = {key: [] for key in cfgs}

        def on_sample(t, steppers):
            for key, stepper in steppers.items():
                got[key].append(stepper.state())

        clock = solvers.run_lockstep(steppers, cfg, on_sample)
        assert clock.keys() == cfgs.keys()
        for key, c in cfgs.items():
            per_step = round(cfg.dt / c.dt)
            state, hand = (a0, u0), []
            for n in range(1, per_step * cfg.n_steps + 1):
                state = step_compressible(*state, (n - 1) * c.dt, c)
                if n % per_step == 0 and n // per_step in self.SAMPLED:
                    hand.append(state)
            assert len(got[key]) == len(hand) == len(self.SAMPLED) - 1
            for g, w in zip(got[key], hand):
                for gf, wf in zip(g, w):
                    assert gf.coeffs.tobytes() == wf.coeffs.tobytes()
        assert got["dt"][-1][1].coeffs.tobytes() != got["dt/2"][-1][1].coeffs.tobytes()

    @pytest.mark.parametrize(
        "dt, t_final, sample",
        [(0.3, 0.9, "1.0"), (0.04, 1.0, "0.30000000000000004")],
    )
    def test_dt_that_does_not_divide_a_sample_raises(self, lat16, cfg, dt, t_final, sample):
        """The samples are at 0.3, 0.6, 0.9 and 1.0: dt = 0.3 misses the last
        and dt = 0.04 the first.  The loop raises before any step."""
        a0, u0 = generate_initial_data(lat16, 0.5, 0.5, seed=21)
        steppers = {
            "clock": solvers.CompressibleStepper(cfg, a0, u0),
            "other": solvers.CompressibleStepper(replace(cfg, dt=dt, t_final=t_final), a0, u0),
        }
        start = {key: stepper.x for key, stepper in steppers.items()}
        message = f"stepper 'other': dt = {dt!r} does not divide the sample time {sample}"
        with pytest.raises(ValueError, match=message):
            solvers.run_lockstep(steppers, cfg)
        assert all(stepper.x is start[key] for key, stepper in steppers.items())

    def test_no_hook_builds_no_state(self, monkeypatch, lat16, cfg):
        """Without a hook the loop calls no stepper's state(); run_trajectory
        calls it once, for the final state it returns."""
        calls = []
        for cls in (solvers.CompressibleStepper, solvers.IncompressibleStepper):
            def counted(self, _state=cls.state):
                calls.append(type(self).__name__)
                return _state(self)

            monkeypatch.setattr(cls, "state", counted)
        a0, u0 = generate_initial_data(lat16, 0.5, 0.5, seed=23)
        v0 = helmholtz_project(u0, "P")
        steppers = {
            "compressible": solvers.CompressibleStepper(cfg, a0, u0),
            "incompressible": solvers.IncompressibleStepper(cfg, v0),
            "limit": solvers.LimitStepper(cfg, v0, acoustic_transform(a0, u0 - v0)),
        }
        solvers.run_lockstep(steppers, cfg)
        assert calls == []
        run_trajectory((a0, u0), cfg, "compressible")
        assert calls == ["CompressibleStepper"]


class TestInitialDataAndIO:
    def test_requested_norms_achieved(self, lat32):
        a0, u0 = generate_initial_data(lat32, 2.0, 2.0, seed=14)
        assert norm(a0, NormSpec(s=1.0, r=1)) == pytest.approx(2.0, rel=1e-12)
        assert norm(u0, NormSpec(s=0.0, r=1)) == pytest.approx(2.0, rel=1e-12)
        assert a0.mean_coefficient()[0] == 0.0

    def test_seed_determinism(self, lat16):
        a1, u1 = generate_initial_data(lat16, 1.0, 1.0, seed=42)
        a2, u2 = generate_initial_data(lat16, 1.0, 1.0, seed=42)
        assert np.array_equal(a1.coeffs, a2.coeffs)
        assert np.array_equal(u1.coeffs, u2.coeffs)

    def test_reality_of_initial_data(self, lat16):
        a0, u0 = generate_initial_data(lat16, 1.0, 1.0, seed=15)
        assert a0.is_reality_symmetric()
        assert u0.is_reality_symmetric()

    def test_checkpoint_round_trip(self, tmp_path, lat16):
        a0, u0 = generate_initial_data(lat16, 1.0, 1.0, seed=16)
        path = os.path.join(tmp_path, "state.lmc")
        save_checkpoint(path, lat16, 0.25, {"a": a0, "u": u0}, meta={"eps": 0.1})
        lattice, time, arrays, meta = load_checkpoint(path)
        assert lattice == lat16
        assert time == 0.25
        assert meta["eps"] == 0.1
        assert np.array_equal(arrays["a"], a0.coeffs)
        assert np.array_equal(arrays["u"], u0.coeffs)

    def test_acoustic_checkpoint_round_trip(self, tmp_path, lat16):
        a0, u0 = generate_initial_data(lat16, 1.0, 1.0, seed=16)
        V = wave_group(acoustic_transform(a0, helmholtz_project(u0, "Q")), 0.7)
        V = V + 0.3 * V
        path = os.path.join(tmp_path, "limit.lmc")
        save_checkpoint(path, lat16, 0.5, {"V": V})
        lattice, _, arrays, _ = load_checkpoint(path)
        assert arrays["V"].shape == (2,) + lat16.resolution
        again = AcousticCoeffs(lattice, *arrays["V"])
        assert again.coeffs.tobytes() == V.coeffs.tobytes()

    @pytest.mark.parametrize("keep", [-24, 40, 12])  # payload, header, length field
    def test_truncated_checkpoint_rejected(self, tmp_path, lat16, keep):
        a0, _ = generate_initial_data(lat16, 1.0, 1.0, seed=16)
        path = os.path.join(tmp_path, "state.lmc")
        save_checkpoint(path, lat16, 0.25, {"a": a0})
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:keep])
        with pytest.raises(ValueError, match="damaged checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            (b"\xff\xfe{}", "the header is not a UTF-8 JSON object"),
            (b"{not json", "the header is not a UTF-8 JSON object"),
            (b"[1, 2]", "the header is not a UTF-8 JSON object"),
            # dicts edit the saved header; None deletes the key
            ({"lattice": None}, "the header lacks lattice"),
            ({"time": None}, "the header lacks time"),
            ({"fields": None}, "the header lacks fields"),
            ({"fields": [{"shape": [1, 16, 16]}]}, "a field entry lacks its name or shape"),
            ({"fields": [{"name": "a"}]}, "a field entry lacks its name or shape"),
            ({"fields": [{"name": ["a"], "shape": [1, 16, 16]}]}, "a field name is"),
            ({"fields": [{"name": "a", "shape": "ab"}]}, "field 'a' has shape 'ab', not a list"),
            ({"fields": [{"name": "a", "shape": [-16, -16]}]}, "field 'a' has shape"),
            (
                {
                    "lattice": {
                        "d": 2,
                        "periods": [[1, 0], [1, 1]],
                        "resolution": [16, 16],
                        "dealias_fraction": [2, 3],
                    }
                },
                "the lattice descriptor is malformed: periods",
            ),
            (
                {
                    "lattice": {
                        "d": 2,
                        "periods": [[1, 1], [1, 1]],
                        "resolution": [16, 16],
                        "dealias_fraction": [1, 2],
                    }
                },
                "the lattice descriptor is malformed: dealias_fraction",
            ),
        ],
    )
    def test_damaged_header_rejected(self, tmp_path, capsys, lat16, header, message):
        a0, _ = generate_initial_data(lat16, 1.0, 1.0, seed=16)
        path = os.path.join(tmp_path, "state.lmc")
        save_checkpoint(path, lat16, 0.25, {"a": a0})
        with open(path, "rb") as fh:
            data = fh.read()
        start = len(solvers._MAGIC) + 4
        end = start + struct.unpack("<I", data[start - 4 : start])[0]
        if isinstance(header, dict):
            edited = json.loads(data[start:end])
            for key, value in header.items():
                if value is None:
                    del edited[key]
                else:
                    edited[key] = value
            header = json.dumps(edited).encode()
        with open(path, "wb") as fh:
            fh.write(data[: start - 4] + struct.pack("<I", len(header)) + header + data[end:])
        with pytest.raises(ValueError, match=f"damaged checkpoint .*: {message}"):
            load_checkpoint(path)
        assert main(["norms", "--field", path]) == 2
        assert f"invalid input: damaged checkpoint {path!r}: {message}" in capsys.readouterr().err

    def test_trailing_bytes_rejected(self, tmp_path, lat16):
        a0, _ = generate_initial_data(lat16, 1.0, 1.0, seed=16)
        path = os.path.join(tmp_path, "state.lmc")
        save_checkpoint(path, lat16, 0.25, {"a": a0})
        with open(path, "ab") as fh:
            fh.write(b"\0" * 16)
        with pytest.raises(ValueError, match="damaged checkpoint"):
            load_checkpoint(path)

    def test_restart_bit_identical(self, tmp_path, lat16):
        cfg = SolverConfig(
            lattice=lat16, mu=0.05, lam=0.0, eps=0.5, dt=1e-3, t_final=0.01
        )
        a0, u0 = generate_initial_data(lat16, 0.5, 0.5, seed=17)
        state = (a0, u0)
        for n in range(5):
            state = step_compressible(*state, n * cfg.dt, cfg)
        path = os.path.join(tmp_path, "mid.lmc")
        save_checkpoint(path, lat16, 5 * cfg.dt, dict(zip("au", state)))
        for n in range(5, 10):
            state = step_compressible(*state, n * cfg.dt, cfg)
        _, t_mid, arrays, _ = load_checkpoint(path)
        # rebuilt from the arrays alone: a field is real by its coefficients
        resumed = tuple(SpectralField(lat16, arrays[name]) for name in "au")
        for n in range(5):
            resumed = step_compressible(*resumed, t_mid + n * cfg.dt, cfg)
        for got, want in zip(resumed, state):
            assert np.array_equal(got.coeffs, want.coeffs)

    def test_sampling_stride_one_records_every_step(self, lat16):
        cfg = SolverConfig(lattice=lat16, mu=0.05, dt=1e-2, t_final=0.05)
        _, u0 = generate_initial_data(lat16, 1.0, 1.0, seed=18)
        v0 = helmholtz_project(u0, "P")
        traj = SampledRun(v0, cfg, "incompressible")
        assert len(traj.states) == cfg.n_steps + 1
        assert np.allclose(np.diff(traj.times), cfg.dt)

    def test_dt_must_divide_t_final(self, lat16):
        # 0.3/0.1 is 2.9999999999999996 in floating point: round-off, accepted
        assert 0.3 / 0.1 != 3
        assert SolverConfig(lattice=lat16, dt=0.1, t_final=0.3).n_steps == 3
        for dt, t_final in ((0.3, 1.0), (2.0, 1.0)):
            with pytest.raises(ValueError, match="does not divide"):
                SolverConfig(lattice=lat16, dt=dt, t_final=t_final)

    def test_forcing_round_trip_and_reality(self, lat16):
        forcing = Forcing(
            lat16,
            [
                ForcingMode(mode=(1, 0), amplitude=(0.3 + 0.1j, 0.0), envelope="cos", omega=2.0),
                ForcingMode(mode=(2, -3), amplitude=(0.2, -0.4j)),
            ],
        )
        f = forcing_field(forcing, 0.3)
        assert f.is_reality_symmetric()
        fac = math.cos(2.0 * 0.3)
        expected = {
            (1, 0): (fac * (0.3 + 0.1j), 0.0),
            (-1, 0): (fac * (0.3 - 0.1j), 0.0),
            (2, -3): (0.2, -0.4j),
            (-2, 3): (0.2, 0.4j),
        }
        assert np.array_equal(
            f.coeffs, field_from_modes(lat16, expected, components=2).coeffs
        )
        again = Forcing.from_json(lat16, forcing.to_json())
        assert np.array_equal(forcing_field(again, 0.3).coeffs, f.coeffs)

    def test_forcing_mode_outside_box_rejected(self, lat16):
        assert lat16.cutoffs == (5, 5)
        with pytest.raises(ValueError, match="outside the dealiased box"):
            Forcing(lat16, [ForcingMode(mode=(7, 0), amplitude=(1.0, 0.0))])

    @pytest.mark.parametrize("amplitude", [(1.0,), (1.0, 0.0, 0.5)])
    def test_forcing_amplitude_length_rejected(self, lat16, amplitude):
        with pytest.raises(
            ValueError,
            match=rf"forcing mode \(1, 0\) has {len(amplitude)} amplitude components",
        ):
            Forcing(lat16, [ForcingMode(mode=(1, 0), amplitude=amplitude)])

    @pytest.mark.parametrize(
        "amplitude, omega",
        [((math.nan, 0.0), 0.0), ((0.0, complex(0.0, math.inf)), 0.0), ((1.0, 0.0), math.inf)],
        ids=["nan-amplitude", "inf-imaginary-part", "inf-omega"],
    )
    def test_forcing_mode_numbers_must_be_finite(self, amplitude, omega):
        message = r"forcing mode \(1, 0\) has an amplitude or omega that is not finite"
        with pytest.raises(ValueError, match=message):
            ForcingMode(mode=(1, 0), amplitude=amplitude, envelope="cos", omega=omega)

    def test_forcing_unknown_envelope_rejected(self, lat16):
        with pytest.raises(
            ValueError, match=r"forcing mode \(0, 2\) has unknown envelope 'bogus'"
        ):
            Forcing(lat16, [ForcingMode(mode=(0, 2), amplitude=(1.0, 0.0), envelope="bogus")])

    def test_forcing_built_from_lists_equals_tuple_form(self, lat16):
        listed = Forcing(lat16, [ForcingMode(mode=[1, 2], amplitude=[0.3, -0.2j], omega=2)])
        tupled = Forcing(lat16, (ForcingMode(mode=(1, 2), amplitude=(0.3 + 0j, -0.2j), omega=2.0),))
        assert listed == tupled
        assert listed.modes[0].mode == (1, 2) and listed.modes[0].amplitude == (0.3, -0.2j)
        configs = [SolverConfig(lattice=lat16, forcing=f) for f in (listed, tupled)]
        assert hash(configs[0]) == hash(configs[1])
        # numpy integers are integers; the stored entries are Python ints
        assert ForcingMode(mode=np.array([1, 2]), amplitude=(0.3, 0.0)).mode == (1, 2)

    def test_config_forcing_is_frozen(self, lat16):
        forcing = Forcing(lat16, [ForcingMode(mode=(1, 0), amplitude=(0.5, 0.0))])
        cfg = SolverConfig(lattice=lat16, forcing=forcing)
        before = hash(cfg)
        with pytest.raises(AttributeError):
            cfg.forcing.modes.append(ForcingMode(mode=(99, 0), amplitude=(0.5, 0.0)))
        assert hash(cfg) == before and len(cfg.forcing.modes) == 1
        assert np.count_nonzero(cfg.forcing.half_spectrum(0.0)) == 2

    @pytest.mark.parametrize("mode", [(1.7, 0), (1.0, 0), ("1", 0)])
    def test_forcing_mode_entries_must_be_integers(self, mode):
        message = rf"forcing mode {re.escape(str(mode))} has a non-integer entry"
        with pytest.raises(ValueError, match=message):
            ForcingMode(mode=mode, amplitude=(1.0, 0.0))

    def test_forcing_on_another_lattice_rejected(self, lat8, lat16):
        forcing = Forcing(lat8, [ForcingMode(mode=(1, 0), amplitude=(0.5, 0.0))])
        with pytest.raises(ValueError) as info:
            SolverConfig(lattice=lat16, forcing=forcing)
        assert str(info.value) == f"forcing lives on {lat8}, not on the config's {lat16}"

    def test_mean_forcing_mode_not_doubled(self, lat16):
        forcing = Forcing(lat16, [ForcingMode(mode=(0, 0), amplitude=(1.0, -0.5))])
        f = forcing_field(forcing, 0.0)
        assert f.coeffs[0, 0, 0] == 1.0
        assert f.coeffs[1, 0, 0] == -0.5
        assert np.count_nonzero(f.coeffs) == 2
        with pytest.raises(ValueError, match="real amplitudes"):
            Forcing(lat16, [ForcingMode(mode=(0, 0), amplitude=(1.0j, 0.0))])
