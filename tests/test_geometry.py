"""Anisotropic-period and off-dimension coverage (d = 1, 2, 3)."""

import numpy as np
import pytest

from lowmach.lattice import (
    LatticeSpec,
    SpectralField,
    dealiased_product,
    forward_transform,
    inverse_transform,
)
from lowmach.dyadic import NormSpec, block_range, compute_jb, dyadic_block, norm
from lowmach.operators import acoustic_transform, helmholtz_project, wave_group
from lowmach.resonance import build_limit_tables, limit_q1, small_divisors
from lowmach.solvers import SolverConfig, generate_initial_data
from oracles import (
    acoustic_inverse,
    convolution_product,
    linear_compressible_step,
    q1_eps,
    q1_eps_modesum,
    q1_eps_time_average,
    q2_eps,
    q2_eps_modesum,
    random_acoustic,
    random_field,
    SampledRun,
)


class TestAnisotropicPeriods:
    @pytest.fixture
    def lat21(self):
        return LatticeSpec(periods=(2, 1), resolution=(16, 8))

    def test_round_trip_and_blocks(self, lat21):
        rng = np.random.default_rng(0)
        g = random_field(lat21, rng)
        back = forward_transform(lat21, inverse_transform(g))
        scale = np.max(np.abs(g.coeffs))
        assert np.max(np.abs(back.coeffs - g.coeffs)) <= 1e-12 * scale
        jb = compute_jb(lat21)
        assert jb == -3
        for j in (jb, jb - 1):
            assert np.max(np.abs(dyadic_block(g, j).coeffs)) == 0.0
        total = sum(
            (dyadic_block(g, j) for j in block_range(lat21)),
            start=SpectralField.zeros(lat21),
        )
        mean = g.mean_coefficient()[0]
        total_err = np.abs(total.coeffs - g.coeffs)
        total_err[(0,) + (0, 0)] = abs(total.coeffs[0, 0, 0] + mean - g.coeffs[0, 0, 0])
        assert np.max(total_err) <= 1e-12 * scale

    def test_product_oracle(self, lat21):
        rng = np.random.default_rng(1)
        f = random_field(lat21, rng)
        g = random_field(lat21, rng)
        fast = dealiased_product(f, g)
        slow = convolution_product(f, g)
        scale = max(1.0, np.max(np.abs(slow.coeffs)))
        assert np.max(np.abs(fast.coeffs - slow.coeffs)) <= 1e-12 * scale

    def test_filtered_forms_match_modesum(self):
        lattice = LatticeSpec(periods=(2, 1), resolution=(8, 8))
        rng = np.random.default_rng(2)
        u = helmholtz_project(random_field(lattice, rng, components=2), "P")
        A = random_acoustic(lattice, rng)
        B = random_acoustic(lattice, rng)
        t, eps = 0.3, 0.1
        fast = q1_eps(u, B, t, eps)
        slow = q1_eps_modesum(u, B, t, eps)
        assert (fast - slow).l2_norm() <= 1e-10 * max(1.0, slow.l2_norm())
        fast2 = q2_eps(A, B, t, eps, kappa=1.0)
        slow2 = q2_eps_modesum(A, B, t, eps, kappa=1.0)
        assert (fast2 - slow2).l2_norm() <= 1e-10 * max(1.0, slow2.l2_norm())

    def test_limit_q1_averaging(self):
        # half-integer frequencies on the long axis change the divisor set;
        # the exact tables must still capture the averaged limit
        lattice = LatticeSpec(periods=(2, 1), resolution=(8, 8))
        rng = np.random.default_rng(3)
        table = build_limit_tables(lattice)
        u = helmholtz_project(random_field(lattice, rng, components=2), "P")
        B = random_acoustic(lattice, rng)
        limit = limit_q1(u, B, table)
        eps_list = [0.05, 0.025, 0.0125, 0.00625]
        errs = [
            (q1_eps_time_average(u, B, 1.0, eps) - limit).l2_norm()
            for eps in eps_list
        ]
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert 0.7 <= slope <= 1.3

    def test_small_divisors_below_unit_lattice_floor(self):
        # with period 2 the half-integer frequencies produce divisors smaller
        # than the unit-lattice minimum sqrt(2) - 1
        lattice = LatticeSpec(periods=(2, 2), resolution=(16, 16))
        report = small_divisors(lattice, 1.0)
        unit = small_divisors(LatticeSpec.square(2, 16), 1.0)
        assert report.c1 > unit.c1

    def test_wave_group_isometry(self):
        lattice = LatticeSpec(periods=(2, 1), resolution=(8, 8))
        rng = np.random.default_rng(4)
        V = random_acoustic(lattice, rng)
        for s in (-0.5, 0.0, 1.0):
            n0 = norm(V, NormSpec(kind="H", s=s))
            n1 = norm(wave_group(V, 2.3), NormSpec(kind="H", s=s))
            assert n1 == pytest.approx(n0, rel=1e-12)


class TestOneDimension:
    def test_transforms_and_norms(self):
        lattice = LatticeSpec.square(1, 32)
        rng = np.random.default_rng(5)
        g = random_field(lattice, rng)
        back = forward_transform(lattice, inverse_transform(g))
        scale = np.max(np.abs(g.coeffs))
        assert np.max(np.abs(back.coeffs - g.coeffs)) <= 1e-12 * scale
        assert norm(g, "B:s=0.5:p=2:r=1") > 0
        h = norm(g, NormSpec(s=0.25, r=1, band="h", eta=2.0))
        lo = norm(g, NormSpec(s=0.25, r=1, band="l", zeta=2.0))
        full = norm(g, NormSpec(s=0.25, r=1))
        assert h + lo == pytest.approx(full, rel=1e-12)

    def test_acoustic_round_trip(self):
        lattice = LatticeSpec.square(1, 32)
        rng = np.random.default_rng(6)
        a = random_field(lattice, rng, zero_mean=True)
        # in one dimension every zero-mean vector field is a gradient
        qu = helmholtz_project(random_field(lattice, rng, components=1), "Q")
        V = acoustic_transform(a, qu)
        a2, qu2 = acoustic_inverse(V)
        scale = max(np.max(np.abs(a.coeffs)), np.max(np.abs(qu.coeffs)))
        assert np.max(np.abs(a2.coeffs - a.coeffs)) <= 1e-12 * scale
        assert np.max(np.abs(qu2.coeffs - qu.coeffs)) <= 1e-12 * scale


class TestThreeDimensions:
    def test_compressible_smoke_with_invariants(self):
        lattice = LatticeSpec.square(3, 16)
        cfg = SolverConfig(
            lattice=lattice, mu=0.05, lam=0.05, eps=0.5, dt=2e-3, t_final=0.01
        )
        a0, u0 = generate_initial_data(lattice, 0.5, 0.5, seed=7)
        traj = SampledRun((a0, u0), cfg, "compressible")
        assert len(traj.states) == cfg.n_steps + 1
        for t, (a, u) in zip(traj.times, traj.states):
            assert abs(a.mean_coefficient()[0]) <= 1e-13
            pair = acoustic_transform(a, u - helmholtz_project(u, "P"), check=False)
            veps = wave_group(pair, -t / cfg.eps)
            assert norm(veps, NormSpec(kind="H", s=0.5)) == pytest.approx(
                norm(pair, NormSpec(kind="H", s=0.5)), rel=1e-12
            )

    def test_inviscid_acoustic_energy_3d(self):
        lattice = LatticeSpec.square(3, 8)
        cfg = SolverConfig(lattice=lattice, mu=0.0, lam=0.0, eps=0.25, dt=5e-3, t_final=0.1)
        a0, u0 = generate_initial_data(lattice, 1.0, 1.0, seed=8)
        qu = helmholtz_project(u0, "Q")
        a, u = a0, qu
        e0 = a0.l2_norm() ** 2 + qu.l2_norm() ** 2
        for n in range(cfg.n_steps):
            a, u = linear_compressible_step(a, u, n * cfg.dt, cfg)
        e1 = a.l2_norm() ** 2 + u.l2_norm() ** 2
        assert e1 == pytest.approx(e0, rel=1e-10)

    def test_q2_oracle_3d(self):
        lattice = LatticeSpec.square(3, 8)
        rng = np.random.default_rng(9)
        A = random_acoustic(lattice, rng)
        B = random_acoustic(lattice, rng)
        fast = q2_eps(A, B, 0.2, 0.1, kappa=1.0)
        slow = q2_eps_modesum(A, B, 0.2, 0.1, kappa=1.0)
        assert (fast - slow).l2_norm() <= 1e-10 * max(1.0, slow.l2_norm())
