"""Projection, eigenbasis, wave-group, pressure-law, and filtered-form tests."""

import math

import numpy as np
import pytest

from lowmach.lattice import (
    GridField,
    SpectralField,
    forward_transform,
    inverse_transform,
    spectral_derivative,
)
from lowmach.dyadic import NormSpec, norm
from lowmach.operators import (
    AcousticCoeffs,
    PressureLaw,
    VacuumError,
    acoustic_inverse,
    acoustic_transform,
    helmholtz_project,
    wave_group,
)
from lowmach.solvers import SolverConfig, step_compressible
from oracles import (
    a2_eps,
    a2_eps_time_average,
    expansion_defect,
    grid_points,
    q1_eps,
    q1_eps_modesum,
    q2_eps,
    q2_eps_modesum,
    random_acoustic,
    random_field,
    sg,
)


class TestHelmholtz:
    def test_gradient_field(self, lat16):
        rng = np.random.default_rng(0)
        g = random_field(lat16, rng, zero_mean=True)
        grad = spectral_derivative(g, "grad")
        p = helmholtz_project(grad, "P")
        q = helmholtz_project(grad, "Q")
        scale = np.max(np.abs(grad.coeffs))
        assert np.max(np.abs(p.coeffs)) <= 1e-12 * scale
        assert np.max(np.abs(q.coeffs - grad.coeffs)) <= 1e-12 * scale

    def test_divergence_free_field(self, lat16):
        rng = np.random.default_rng(1)
        u = helmholtz_project(random_field(lat16, rng, components=2), "P")
        q = helmholtz_project(u, "Q")
        assert np.max(np.abs(q.coeffs)) <= 1e-12 * np.max(np.abs(u.coeffs))
        div = spectral_derivative(u, "div")
        assert np.max(np.abs(div.coeffs)) <= 1e-12 * np.max(np.abs(u.coeffs))

    def test_projection_formula_single_mode(self, lat8):
        u = SpectralField.from_modes(lat8, {(1, 0): (1.0, 1.0)}, components=2)
        q = helmholtz_project(u, "Q")
        p = helmholtz_project(u, "P")
        assert q.mode((1, 0))[0] == pytest.approx(1.0)
        assert q.mode((1, 0))[1] == pytest.approx(0.0)
        assert p.mode((1, 0))[0] == pytest.approx(0.0)
        assert p.mode((1, 0))[1] == pytest.approx(1.0)

    def test_identity_and_idempotence(self, lat16):
        rng = np.random.default_rng(2)
        u = random_field(lat16, rng, components=2)
        p = helmholtz_project(u, "P")
        q = helmholtz_project(u, "Q")
        scale = np.max(np.abs(u.coeffs))
        assert np.max(np.abs((p + q).coeffs - u.coeffs)) <= 1e-12 * scale
        assert np.max(np.abs(helmholtz_project(p, "Q").coeffs)) <= 1e-12 * scale
        assert np.max(np.abs(helmholtz_project(p, "P").coeffs - p.coeffs)) <= 1e-12 * scale

    def test_mean_mode_goes_to_p(self, lat8):
        u = SpectralField.from_modes(lat8, {(0, 0): (2.0, -1.0)}, components=2)
        p = helmholtz_project(u, "P")
        q = helmholtz_project(u, "Q")
        assert np.allclose(p.mean_coefficient(), [2.0, -1.0])
        assert np.max(np.abs(q.coeffs)) == 0.0


class TestSg:
    def test_examples(self):
        assert sg((0, 3)) == 1
        assert sg((-1, 5)) == -1

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = tuple(int(v) for v in rng.integers(-5, 6, size=3))
            if all(c == 0 for c in k):
                continue
            assert sg(k) == -sg(tuple(-c for c in k))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sg((0, 0, 0))


class TestAcousticBasis:
    def test_zero_maps_to_zero(self, lat8):
        V = acoustic_transform(
            SpectralField.zeros(lat8), SpectralField.zeros(lat8, 2)
        )
        assert V.l2_norm() == 0.0

    def test_round_trip(self, lat16):
        rng = np.random.default_rng(4)
        a = random_field(lat16, rng, zero_mean=True)
        qu = helmholtz_project(random_field(lat16, rng, components=2), "Q")
        V = acoustic_transform(a, qu)
        a2, qu2 = acoustic_inverse(V)
        scale = max(np.max(np.abs(a.coeffs)), np.max(np.abs(qu.coeffs)))
        assert np.max(np.abs(a2.coeffs - a.coeffs)) <= 1e-12 * scale
        assert np.max(np.abs(qu2.coeffs - qu.coeffs)) <= 1e-12 * scale

    def test_energy_bookkeeping(self, lat16):
        rng = np.random.default_rng(5)
        a = random_field(lat16, rng, zero_mean=True)
        qu = helmholtz_project(random_field(lat16, rng, components=2), "Q")
        V = acoustic_transform(a, qu)
        total = a.l2_norm() ** 2 + qu.l2_norm() ** 2
        assert float(np.sum(V.mode_power())) == pytest.approx(total, rel=1e-12)

    def test_eigen_relation(self, lat8):
        # L applied to a single basis vector multiplies it by -i*alpha*sg(k)*|k|
        for mode, alpha in (((1, 0), 1), ((0, -2), -1), ((1, 1), 1), ((-2, 1), -1)):
            V = AcousticCoeffs.from_modes(lat8, {(mode, alpha): 1.0})
            a, qu = acoustic_inverse(V)
            la = spectral_derivative(qu, "div")
            lu = spectral_derivative(a, "grad")
            LV = acoustic_transform(la, lu, check=False)
            kmod = math.sqrt(sum(c * c for c in mode))
            expected = -1j * alpha * sg(mode) * kmod
            got = LV.branch(alpha)[
                tuple(m % n for m, n in zip(mode, lat8.resolution))
            ]
            assert got == pytest.approx(expected, rel=1e-12)
            other = LV.branch(-alpha)[
                tuple(m % n for m, n in zip(mode, lat8.resolution))
            ]
            assert abs(other) <= 1e-12

    def test_validation_errors(self, lat8):
        rng = np.random.default_rng(6)
        with_mean = random_field(lat8, rng)
        qu = helmholtz_project(random_field(lat8, rng, components=2), "Q")
        if abs(with_mean.mean_coefficient()[0]) > 1e-6:
            with pytest.raises(ValueError):
                acoustic_transform(with_mean, qu)
        not_gradient = helmholtz_project(random_field(lat8, rng, components=2), "P")
        with pytest.raises(ValueError):
            acoustic_transform(random_field(lat8, rng, zero_mean=True), not_gradient)


class TestWaveGroup:
    def test_identity_at_zero(self, lat16):
        rng = np.random.default_rng(7)
        V = random_acoustic(lat16, rng)
        W = wave_group(V, 0.0)
        assert np.max(np.abs(W.plus - V.plus)) == 0.0

    def test_isometry_and_group_law(self, lat16):
        rng = np.random.default_rng(8)
        for _ in range(10):
            V = random_acoustic(lat16, rng)
            tau1, tau2 = rng.uniform(-5, 5, size=2)
            s = rng.uniform(-2, 2)
            W = wave_group(V, tau1)
            assert norm(W, NormSpec(kind="H", s=s)) == pytest.approx(
                norm(V, NormSpec(kind="H", s=s)), rel=1e-12
            )
            WW = wave_group(wave_group(V, tau1), tau2)
            W12 = wave_group(V, tau1 + tau2)
            scale = max(np.max(np.abs(W12.plus)), np.max(np.abs(W12.minus)))
            assert np.max(np.abs(WW.plus - W12.plus)) <= 1e-12 * scale
            assert np.max(np.abs(WW.minus - W12.minus)) <= 1e-12 * scale

    def test_single_mode_phase(self, lat8):
        V = AcousticCoeffs.from_modes(lat8, {((1, 0), 1): 1.0})
        W = wave_group(V, math.pi)
        got = W.plus[1, 0]
        assert got == pytest.approx(-1.0, rel=1e-12)

    def test_reality_preserved(self, lat16):
        rng = np.random.default_rng(9)
        V = random_acoustic(lat16, rng)
        assert V.conjugate_symmetry_defect() <= 1e-12
        W = wave_group(V, 1.37)
        scale = max(1.0, float(np.max(np.abs(W.plus))))
        assert W.conjugate_symmetry_defect() <= 1e-12 * scale


class TestPressureLaw:
    def test_gamma_presets(self):
        assert PressureLaw.gamma_law(2.0).kappa == pytest.approx(0.0)
        assert PressureLaw.gamma_law(3.0).kappa == pytest.approx(1.0)

    def test_remainder_vanishes_at_zero(self):
        law = PressureLaw.gamma_law(1.4)
        assert law.remainder(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-14)

    def test_expansion_accuracy(self):
        for gamma in (1.4, 2.0, 3.0, 5.0 / 3.0):
            law = PressureLaw.gamma_law(gamma)
            assert expansion_defect(law, 0.5) <= 1e-10

    def test_quotient_pointwise(self, lat8):
        # the solver evaluates I(eps*a) and K(eps*a) on the grid values of a
        rng = np.random.default_rng(10)
        eps = 0.5
        x = eps * inverse_transform(0.3 * random_field(lat8, rng, zero_mean=True)).values[0].real
        law = PressureLaw.gamma_law(2.0)
        assert np.max(np.abs(law.quotient(x) - x / (1 + x))) <= 1e-14
        assert law.kappa == 0.0
        assert np.max(np.abs(law.remainder(x))) <= 1e-12  # gamma = 2 has no remainder
        # 1 + kappa*a + a*K(a) = P'(1+a)/(1+a) = (1+a)^(gamma-2) pointwise
        law = PressureLaw.gamma_law(1.4)
        expansion = 1.0 + law.kappa * x + x * law.remainder(x)
        assert np.max(np.abs(expansion - (1.0 + x) ** (1.4 - 2.0))) <= 1e-12

    def test_vacuum_guard(self, lat8):
        # the compressible step aborts once eps*||a||_inf reaches 1
        x = grid_points(lat8)[0]
        a = forward_transform(GridField(lat8, 2.5 * np.cos(x)))
        cfg = SolverConfig(lattice=lat8, eps=0.5, dt=1e-3, t_final=1e-3)
        with pytest.raises(VacuumError, match="density reached vacuum"):
            step_compressible(a, SpectralField.zeros(lat8, 2), 0.0, cfg)

    def test_taylor_law(self):
        # K(a) = a reproduces kappa-law with extra cubic pressure correction
        law = PressureLaw.from_taylor(kappa=1.0, coeffs=[1.0])
        vals = law.remainder(np.array([0.0, 0.25, -0.25]))
        assert np.allclose(vals, [0.0, 0.25, -0.25])


class TestFilteredForms:
    def test_trivial_zeros(self, lat8):
        rng = np.random.default_rng(11)
        u = helmholtz_project(random_field(lat8, rng, components=2), "P")
        B = random_acoustic(lat8, rng)
        zero = AcousticCoeffs.zeros(lat8)
        assert q1_eps(u, zero, 0.3, 0.1).l2_norm() == 0.0
        assert q1_eps(SpectralField.zeros(lat8, 2), B, 0.3, 0.1).l2_norm() <= 1e-14
        assert q2_eps(zero, B, 0.3, 0.1).l2_norm() == 0.0
        assert a2_eps(zero, 0.2, 0.1).l2_norm() == 0.0

    def test_q1_matches_modesum(self, lat8):
        rng = np.random.default_rng(12)
        for _ in range(3):
            u = helmholtz_project(random_field(lat8, rng, components=2), "P")
            B = random_acoustic(lat8, rng)
            t, eps = 0.3, 0.1
            fast = q1_eps(u, B, t, eps)
            slow = q1_eps_modesum(u, B, t, eps)
            scale = max(1.0, slow.l2_norm())
            assert (fast - slow).l2_norm() <= 1e-10 * scale

    def test_q2_matches_modesum(self, lat8):
        rng = np.random.default_rng(13)
        for kappa in (0.0, 1.0):
            A = random_acoustic(lat8, rng)
            B = random_acoustic(lat8, rng)
            t, eps = 0.17, 0.05
            fast = q2_eps(A, B, t, eps, kappa=kappa)
            slow = q2_eps_modesum(A, B, t, eps, kappa=kappa)
            scale = max(1.0, slow.l2_norm())
            assert (fast - slow).l2_norm() <= 1e-10 * scale

    def test_q2_symmetry(self, lat8):
        rng = np.random.default_rng(14)
        A = random_acoustic(lat8, rng)
        B = random_acoustic(lat8, rng)
        ab = q2_eps(A, B, 0.4, 0.2, kappa=1.0)
        ba = q2_eps(B, A, 0.4, 0.2, kappa=1.0)
        scale = max(1.0, ab.l2_norm())
        assert (ab - ba).l2_norm() <= 1e-12 * scale

    def test_a2_diagonal_terms(self, lat8):
        V = AcousticCoeffs.from_modes(lat8, {((2, 1), 1): 1.0})
        for t in (0.0, 0.33, 1.7):
            out = a2_eps(V, t, 0.1)
            ksq = 5.0
            assert out.plus[2, 1] == pytest.approx(-0.5 * ksq, rel=1e-12)

    def test_a2_time_average_tends_to_half_laplacian(self, lat8):
        rng = np.random.default_rng(15)
        B = random_acoustic(lat8, rng)
        ksq = lat8.k_squared()
        target_plus = -0.5 * ksq * B.plus
        target_minus = -0.5 * ksq * B.minus
        errs = []
        eps_list = [0.1, 0.05, 0.025, 0.0125]
        for eps in eps_list:
            avg = a2_eps_time_average(B, 1.0, eps)
            err = math.sqrt(
                float(
                    np.sum(np.abs(avg.plus - target_plus) ** 2)
                    + np.sum(np.abs(avg.minus - target_minus) ** 2)
                )
            )
            errs.append(err)
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert 0.7 <= slope <= 1.3
