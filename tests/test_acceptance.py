"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criterion 2 is split: the high-pass truncation bound
with constant exactly one (2b) is unattainable for any admissible bump
profile and is kept as a strict expected failure with the counterexample
inline; everything else must pass.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from lowmach.lattice import (
    LatticeSpec,
    SpectralField,
    dealiased_product,
    forward_transform,
    inverse_transform,
)
from lowmach.dyadic import (
    NormSpec,
    block_range,
    chemin_lerner_norm,
    compute_jb,
    dyadic_block,
    low_cut,
    norm,
    time_norm,
)
from lowmach.operators import acoustic_transform, helmholtz_project, wave_group
from lowmach.resonance import (
    enumerate_resonance_sets,
    resonance_test,
    small_divisors,
)
from lowmach.solvers import (
    SolverConfig,
    generate_initial_data,
    run_trajectory,
    step_incompressible,
)
from lowmach.experiments import (
    ExperimentConfig,
    convergence_study,
    emit_report,
    fit_loglog_slope,
)
from oracles import (
    a2_eps,
    acoustic_from_modes,
    acoustic_inverse,
    assemble_correctors,
    bony_paraproduct,
    convolution_product,
    field_from_modes,
    grid_points,
    limit_q2,
    linear_compressible_step,
    mode_truncate,
    q1_eps,
    q1_eps_modesum,
    q2_eps,
    q2_eps_modesum,
    q2_eps_time_average,
    random_acoustic,
    random_field,
    remainder_fields,
    SampledRun,
    spectral_derivative,
    sqrt_sum_oracle,
)

RESULTS: list[tuple[str, str, str]] = []


def record(criterion: str, status: str, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {status} {detail}".rstrip()
    RESULTS.append((criterion, status, detail))
    print(line, flush=True)


def test_criterion_1_spectral_core():
    started = time.perf_counter()
    lattice = LatticeSpec.square(2, 16)
    rng = np.random.default_rng(2024)
    worst_rt = worst_pars = worst_prod = 0.0
    for _ in range(100):
        field = random_field(lattice, rng)
        grid = inverse_transform(field)
        back = forward_transform(lattice, grid)
        scale = float(np.max(np.abs(field.coeffs)))
        worst_rt = max(worst_rt, float(np.max(np.abs(back.coeffs - field.coeffs))) / scale)
        integral = float(
            np.sum(np.abs(grid) ** 2) * lattice.volume / np.prod(lattice.resolution)
        )
        coeff_sum = float(np.sum(field.mode_power()))
        worst_pars = max(worst_pars, abs(integral - coeff_sum) / coeff_sum)
        other = random_field(lattice, rng)
        fast = dealiased_product(field, other)
        slow = convolution_product(field, other)
        pscale = max(1.0, float(np.max(np.abs(slow.coeffs))))
        worst_prod = max(
            worst_prod, float(np.max(np.abs(fast.coeffs - slow.coeffs))) / pscale
        )
    elapsed = time.perf_counter() - started
    assert worst_rt <= 1e-12
    assert worst_pars <= 1e-12
    assert worst_prod <= 1e-12
    assert elapsed < 10.0
    record(
        "1",
        "PASS",
        f"(round-trip {worst_rt:.1e}, parseval {worst_pars:.1e}, "
        f"product {worst_prod:.1e}, {elapsed:.1f}s)",
    )


def test_criterion_2_littlewood_paley():
    lattice = LatticeSpec.square(2, 16)
    rng = np.random.default_rng(7)
    # partition of unity reconstruction
    g = random_field(lattice, rng)
    total = low_cut(g, compute_jb(lattice) + 1)
    for j in block_range(lattice):
        total = total + dyadic_block(g, j)
    scale = float(np.max(np.abs(g.coeffs)))
    assert np.max(np.abs(total.coeffs - g.coeffs)) <= 1e-12 * scale
    # vanishing below the floor, exactly
    assert np.max(np.abs(dyadic_block(g, compute_jb(lattice)).coeffs)) == 0.0
    # block almost-orthogonality, exactly
    for j in block_range(lattice):
        for jp in block_range(lattice):
            if abs(j - jp) >= 2:
                assert (
                    np.max(np.abs(dyadic_block(dyadic_block(g, j), jp).coeffs)) == 0.0
                )
    # paraproduct support facts, exactly (convolution arithmetic)
    small = LatticeSpec.square(2, 8)
    f8 = random_field(small, rng)
    g8 = random_field(small, rng)
    js = list(block_range(small))
    for j in js:
        prod = convolution_product(low_cut(f8, j - 2), dyadic_block(g8, j))
        for jp in js:
            if abs(jp - j) >= 3:
                assert np.max(np.abs(dyadic_block(prod, jp).coeffs)) == 0.0
    for j in js:
        for jp in js:
            if abs(j - jp) <= 2:
                prod = convolution_product(dyadic_block(g8, j), dyadic_block(f8, jp))
                for jpp in js:
                    if jpp - j >= 5:
                        assert np.max(np.abs(dyadic_block(prod, jpp).coeffs)) == 0.0
    # Bony reconstruction
    f = random_field(lattice, rng)
    t_fg, t_gf, rem, mm = bony_paraproduct(f, g)
    direct = dealiased_product(f, g)
    four = t_fg + t_gf + rem + mm
    pscale = max(1.0, float(np.max(np.abs(direct.coeffs))))
    assert np.max(np.abs(four.coeffs - direct.coeffs)) <= 1e-12 * pscale
    # low-pass truncation with constant one
    for sigma in (0.5, 1.0, 2.0):
        for M in (1.0, 2.0, 3.5):
            gm = mode_truncate(g, M, "low")
            lhs = norm(gm, NormSpec(s=0.5, r=1))
            rhs = M**sigma * norm(g, NormSpec(s=0.5 - sigma, r=1))
            assert lhs <= rhs * (1 + 1e-12)
    # Minkowski orderings on 100 random trajectories
    small_lat = LatticeSpec.square(2, 8)
    for i in range(100):
        times = np.linspace(0.0, 1.0, 4)
        fields = [
            random_field(small_lat, rng, zero_mean=True) for _ in times
        ]
        for q, r in ((1.0, 2), (2.0, 1)):
            spec = NormSpec(s=0.4, r=r)
            tilde = chemin_lerner_norm(times, fields, q, spec)
            plain = time_norm(times, fields, q, spec)
            if r <= q:
                assert plain <= tilde * (1 + 1e-12)
            if r >= q:
                assert plain >= tilde * (1 - 1e-12)
    record("2", "PASS", "(partition, exact support facts, Bony, g_M bound, Minkowski)")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "Unattainable as stated: any dyadic bump supported in [3/4, 8/3] puts "
        "the single mode |k| = 3 in the block 2^j = 2 with full weight, so "
        "for M = 2.5 the high-pass field g^M = g has ||g^M||_{B^0_{2,1}} = 1 "
        "while M^-1 ||g||_{B^1_{2,1}} = 0.8.  The bound holds with constant "
        "(8/3)^sigma (see test_paley.py); recorded in the decisions ledger."
    ),
)
def test_criterion_2b_high_pass_constant_one():
    record(
        "2b",
        "FAIL",
        "(high-pass truncation with constant 1: impossible for any admissible "
        "bump; counterexample |k|=3, M=2.5, sigma=1)",
    )
    lattice = LatticeSpec.square(2, 16)
    g = field_from_modes(lattice, {(3, 0): 1.0})
    gm = mode_truncate(g, 2.5, "high")
    lhs = norm(gm, NormSpec(s=0.0, r=1))
    rhs = 2.5**-1.0 * norm(g, NormSpec(s=1.0, r=1))
    assert lhs <= rhs * (1 + 1e-12)


def test_criterion_3_wave_group():
    lattice = LatticeSpec.square(2, 16)
    rng = np.random.default_rng(11)
    for _ in range(50):
        V = random_acoustic(lattice, rng)
        tau1, tau2 = rng.uniform(-4, 4, size=2)
        s = rng.uniform(-2, 2)
        n0 = norm(V, NormSpec(kind="H", s=s))
        n1 = norm(wave_group(V, tau1), NormSpec(kind="H", s=s))
        assert abs(n1 - n0) <= 1e-12 * n0
        combined = wave_group(wave_group(V, tau1), tau2)
        direct = wave_group(V, tau1 + tau2)
        scale = max(
            float(np.max(np.abs(direct.plus))), float(np.max(np.abs(direct.minus)))
        )
        assert (combined - direct).l2_norm() <= 1e-12 * max(scale, 1e-30)
    # eigen-relation residual per mode: L acts as -i*alpha*sg(k)|k|
    V = random_acoustic(lattice, rng)
    a, qu = acoustic_inverse(V)
    la = spectral_derivative(qu, "div")
    lu = spectral_derivative(a, "grad")
    LV = acoustic_transform(la, lu, check=False)
    from lowmach.operators import _signed_modulus

    rate = _signed_modulus(lattice)
    scale = max(float(np.max(np.abs(V.plus))), float(np.max(np.abs(V.minus))))
    res_plus = np.max(np.abs(LV.plus - (-1j * rate) * V.plus))
    res_minus = np.max(np.abs(LV.minus - (1j * rate) * V.minus))
    assert res_plus <= 1e-12 * max(scale, 1.0) * float(np.max(np.abs(rate)))
    assert res_minus <= 1e-12 * max(scale, 1.0) * float(np.max(np.abs(rate)))
    record("3", "PASS", "(isometry, group law, eigen-relation)")


def test_criterion_4_oracle_equivalence():
    lattice = LatticeSpec.square(2, 8)
    rng = np.random.default_rng(13)
    worst = {"q1": 0.0, "q2": 0.0, "a2": 0.0}
    for _ in range(20):
        u = helmholtz_project(
            random_field(lattice, rng, components=2), "P"
        )
        A = random_acoustic(lattice, rng)
        B = random_acoustic(lattice, rng)
        t = float(rng.uniform(0.0, 1.0))
        eps = float(rng.uniform(0.05, 0.5))
        kappa = float(rng.choice([0.0, 1.0]))
        fast = q1_eps(u, B, t, eps)
        slow = q1_eps_modesum(u, B, t, eps)
        worst["q1"] = max(worst["q1"], (fast - slow).l2_norm() / max(slow.l2_norm(), 1e-30))
        fast = q2_eps(A, B, t, eps, kappa=kappa)
        slow = q2_eps_modesum(A, B, t, eps, kappa=kappa)
        worst["q2"] = max(worst["q2"], (fast - slow).l2_norm() / max(slow.l2_norm(), 1e-30))
        # a2: closed per-mode formula against the filtered Laplacian definition
        direct = a2_eps(B, t, eps)
        W = wave_group(B, t / eps)
        aw, ww = acoustic_inverse(W)
        lap_w = spectral_derivative(ww, "laplacian")
        alt = wave_group(
            acoustic_transform(SpectralField.zeros(lattice), lap_w, check=False),
            -t / eps,
        )
        worst["a2"] = max(
            worst["a2"], (direct - alt).l2_norm() / max(alt.l2_norm(), 1e-30)
        )
    assert worst["q1"] <= 1e-10
    assert worst["q2"] <= 1e-10
    assert worst["a2"] <= 1e-10
    record(
        "4",
        "PASS",
        f"(q1 {worst['q1']:.1e}, q2 {worst['q2']:.1e}, a2 {worst['a2']:.1e})",
    )


def test_criterion_5_resonance_exactness():
    # hand-checked triples
    assert resonance_test([(1, 1), (1, 1), (-1, 4)]).resonant
    r = resonance_test([(1, 1), (1, 1), (-1, 2)])
    assert not r.resonant and r.divisor == pytest.approx(2 - math.sqrt(2), rel=1e-12)
    assert resonance_test([(1, 9), (1, 16), (-1, 49)]).resonant
    # 10^6 randomized cases against the 80-digit scaled-integer evaluation
    rng = np.random.default_rng(17)
    n_cases = 10**6
    n_res = n_cases // 4
    mismatches = 0
    resonant_seen = 0
    for _ in range(n_res):
        p, q, r_ = (int(v) for v in rng.integers(1, 60, size=3))
        terms = [(1, p * p * r_), (1, q * q * r_), (-1, (p + q) * (p + q) * r_)]
        got = resonance_test(terms).resonant
        resonant_seen += got
        mismatches += got != sqrt_sum_oracle(terms)
    signs = rng.choice([-1, 1], size=(n_cases - n_res, 3))
    values = rng.integers(0, 10**6, size=(n_cases - n_res, 3))
    # sprinkle near-misses of the square identity
    for i in range(0, n_cases - n_res, 97):
        a, b = int(values[i, 0]) + 1, int(values[i, 1]) + 1
        values[i, 2] = a + b + math.isqrt(4 * a * b)
        signs[i] = (1, 1, -1)
    for i in range(n_cases - n_res):
        terms = [
            (int(signs[i, 0]), int(values[i, 0])),
            (int(signs[i, 1]), int(values[i, 1])),
            (int(signs[i, 2]), int(values[i, 2])),
        ]
        got = resonance_test(terms).resonant
        resonant_seen += got
        mismatches += got != sqrt_sum_oracle(terms)
    assert mismatches == 0
    assert resonant_seen >= n_res  # the engineered family is classified resonant
    # small divisor constant on the unit lattice
    report = small_divisors(LatticeSpec.square(2, 8), 1.0)
    assert report.c1 == pytest.approx(math.sqrt(2.0) + 1.0, rel=1e-12)
    record("5", "PASS", f"(10^6 cases, 0 mismatches, C_1 = {report.c1:.12f})")


def test_criterion_6_averaging():
    started = time.perf_counter()
    lattice = LatticeSpec.square(2, 8)
    # frozen smooth coefficients on 8 active modes (4 conjugate pairs)
    entries = {}
    rng = np.random.default_rng(19)
    for mode in ((1, 0), (0, 1), (1, 1), (2, 0)):
        for alpha in (1, -1):
            val = complex(rng.standard_normal(), rng.standard_normal()) / 2.0
            entries[(mode, alpha)] = val
            entries[(tuple(-c for c in mode), alpha)] = np.conj(val)
    V = acoustic_from_modes(lattice, entries)
    kappa = 1.0
    limit = limit_q2(V, V, kappa=kappa)
    eps_list = [0.1, 0.05, 0.025, 0.0125]
    errs = [
        (q2_eps_time_average(V, V, 1.0, eps, kappa=kappa) - limit).l2_norm()
        for eps in eps_list
    ]
    slope = fit_loglog_slope(eps_list, errs)
    elapsed = time.perf_counter() - started
    assert slope is not None and abs(slope - 1.0) <= 0.3
    assert elapsed < 60.0
    record("6", "PASS", f"(slope {slope:.3f}, {elapsed:.1f}s)")


def test_criterion_7_solver_validation():
    # Taylor-Green on 64^2 at mu = 0.1
    lattice = LatticeSpec.square(2, 64)
    mu = 0.1
    cfg = SolverConfig(lattice=lattice, mu=mu, lam=0.0, dt=0.01, t_final=1.0)
    x, y = grid_points(lattice)
    tg = forward_transform(lattice, np.stack([np.cos(x) * np.sin(y), -np.sin(x) * np.cos(y)]))
    v = tg
    t = 0.0
    for step in range(cfg.n_steps):
        v = step_incompressible(v, t, cfg)
        t += cfg.dt
    tg_err = (v - math.exp(-2 * mu) * tg).l2_norm() / tg.l2_norm()
    assert tg_err <= 1e-6

    # inviscid acoustic energy conservation over unit time
    lat16 = LatticeSpec.square(2, 16)
    cfg0 = SolverConfig(lattice=lat16, mu=0.0, lam=0.0, eps=0.5, dt=0.01, t_final=1.0)
    a0, u0 = generate_initial_data(lat16, 1.0, 1.0, seed=23)
    qu0 = helmholtz_project(u0, "Q")
    a, u = a0, qu0
    e0 = math.sqrt(a0.l2_norm() ** 2 + qu0.l2_norm() ** 2)
    for n in range(cfg0.n_steps):
        a, u = linear_compressible_step(a, u, n * cfg0.dt, cfg0)
    e1 = math.sqrt(a.l2_norm() ** 2 + u.l2_norm() ** 2)
    energy_defect = abs(e1 - e0) / e0
    assert energy_defect <= 1e-8

    # self-convergence order for the three steppers
    orders = []
    a0, u0 = generate_initial_data(lat16, 0.5, 0.5, seed=8)
    outs = {}
    for dt in (4e-3, 2e-3, 1e-3, 2.5e-4):
        c = SolverConfig(
            lattice=lat16, mu=0.05, lam=0.05, eps=0.5, dt=dt, t_final=0.1,
            sample_stride=10**9,
        )
        outs[dt] = run_trajectory((a0, u0), c, "compressible")
    errs = [
        sum((x - ref).l2_norm() for x, ref in zip(outs[dt], outs[2.5e-4]))
        for dt in (4e-3, 2e-3)
    ]
    orders.append(math.log2(errs[0] / errs[1]))
    v0 = helmholtz_project(u0, "P")
    outs = {}
    for dt in (4e-3, 2e-3, 2.5e-4):
        c = SolverConfig(lattice=lat16, mu=0.02, dt=dt, t_final=0.2, sample_stride=10**9)
        outs[dt] = run_trajectory(v0, c, "incompressible")
    orders.append(
        math.log2(
            (outs[4e-3] - outs[2.5e-4]).l2_norm() / (outs[2e-3] - outs[2.5e-4]).l2_norm()
        )
    )
    V0 = acoustic_transform(a0, helmholtz_project(u0, "Q"))
    outs = {}
    for dt in (4e-3, 2e-3, 2.5e-4):
        c = SolverConfig(
            lattice=lat16, mu=0.05, lam=0.05, gamma=3.0,
            dt=dt, t_final=0.1, sample_stride=10**9,
        )
        outs[dt] = run_trajectory((v0, V0), c, "limit")[1]
    orders.append(
        math.log2(
            (outs[4e-3] - outs[2.5e-4]).l2_norm() / (outs[2e-3] - outs[2.5e-4]).l2_norm()
        )
    )
    assert all(o >= 1.9 for o in orders)

    # mass conservation
    cfg_m = SolverConfig(lattice=lat16, mu=0.05, lam=0.05, eps=0.5, dt=2e-3, t_final=0.05)
    a0, u0 = generate_initial_data(lat16, 1.0, 1.0, seed=5)
    traj = SampledRun((a0, u0), cfg_m, "compressible")
    mass_defect = max(abs(a.mean_coefficient()[0]) for a, _ in traj.states)
    assert mass_defect <= 1e-13
    record(
        "7",
        "PASS",
        f"(TG {tg_err:.1e}, energy {energy_defect:.1e}, orders "
        f"{', '.join(f'{o:.2f}' for o in orders)}, mass {mass_defect:.1e})",
    )


def test_criterion_8_corrector_identity():
    lattice = LatticeSpec.square(2, 16)
    rng = np.random.default_rng(29)
    M, eps, kappa, nu = 2.0, 1.0, 1.0, 0.15
    t0, h = 0.37, 1e-4
    table = enumerate_resonance_sets(lattice, M)
    low = (lattice.k_modulus() <= M + 1e-12).astype(float)
    V0 = random_acoustic(lattice, rng, scale=0.01).scale_modes(low)
    v0 = (
        0.01
        * helmholtz_project(random_field(lattice, rng, components=2), "P")
    ).scale_modes(low)
    f0 = random_acoustic(lattice, rng, scale=0.01).scale_modes(low)
    lam0 = random_acoustic(lattice, rng, scale=0.01).scale_modes(low)

    def total(t):
        decay = math.exp(-t)
        base, _ = assemble_correctors(
            decay * V0, decay * v0, decay * f0, M, t, eps,
            kappa=kappa, nu=nu, table=table, lam_ac=decay * lam0,
        )
        return base.total()

    fd = (1.0 / (2 * h)) * (total(t0 + h) - total(t0 - h))
    decay = math.exp(-t0)
    rem = remainder_fields(
        decay * V0, decay * v0, decay * f0, M, t0, eps,
        kappa=kappa, nu=nu, table=table, lam_ac=decay * lam0,
    )
    _, deriv = assemble_correctors(
        decay * V0, decay * v0, decay * f0, M, t0, eps,
        kappa=kappa, nu=nu, table=table, lam_ac=decay * lam0,
        time_derivatives=(-decay * V0, -decay * v0, -decay * f0, -decay * lam0),
    )
    residual = (eps * fd - rem - eps * deriv.total()).l2_norm()
    assert residual <= 1e-8
    record("8", "PASS", f"(residual {residual:.2e})")


_STUDY_CACHE: dict = {}


def _acceptance_study(tmp_path):
    """Run the pinned Mach-sweep experiment once and share it across tests."""
    if "report" in _STUDY_CACHE:
        return _STUDY_CACHE["report"], _STUDY_CACHE["elapsed"]
    started = time.perf_counter()
    cfg = ExperimentConfig(
        lattice=LatticeSpec.square(2, 64),
        eps_list=(0.2, 0.1, 0.05, 0.025),
        mu=0.05,
        lam=0.05,
        gamma=2.0,
        dt=5e-3,
        t_final=1.0,
        sample_stride=2,
        zeta=8.0,
        eta0=0.075,
        theta=0.25,
        amplitude_a=2.0,
        amplitude_u=2.0,
        smoothness=3.0,
        seed=2,
    )
    # the pinned thresholds leave the medium band empty at all four Mach numbers
    with pytest.warns(RuntimeWarning, match="medium band is empty") as caught:
        report = convergence_study(cfg)
    assert len(caught) == 4
    emit_report(report, str(tmp_path))
    elapsed = time.perf_counter() - started
    _STUDY_CACHE["report"] = report
    _STUDY_CACHE["elapsed"] = elapsed
    return report, elapsed


def test_criterion_9_low_mach_experiment(tmp_path):
    report, elapsed = _acceptance_study(tmp_path)
    w_vals = report.row_values("W_theta")
    eps_a = report.row_values("eps_a_linf_besov")
    d_vals = report.row_values("D")
    assert all(b < a for a, b in zip(w_vals, w_vals[1:])), w_vals
    assert report.slope is not None and report.slope > 0.0
    assert all(b < a for a, b in zip(eps_a, eps_a[1:])), eps_a
    assert elapsed <= 15 * 60
    record(
        "9(i,ii)",
        "PASS",
        f"(W slope {report.slope:.2f}, W {['%.3g' % v for v in w_vals]}, "
        f"eps_a {['%.3g' % v for v in eps_a]}, "
        f"D net {d_vals[0]:.3g} -> {d_vals[-1]:.3g}, {elapsed:.0f}s)",
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "Unattainable at the pinned parameters: with unit periods the minimum "
        "nonzero frequency is 1, while the high-band thresholds eta0/eps = "
        "0.375 and 0.75 for eps = 0.2 and 0.1 both lie below it.  Halving eps "
        "doubles the 1/eps factor of the high-band density term but removes "
        "only the phi(2)-weighted part of the unit shell (at most ~47% of the "
        "band mass), so that member of D must grow at the first pair for any "
        "data carrying mass at the lowest shell.  (These parameters also "
        "violate the standing band condition zeta < eta0/eps.)  The study "
        "reports the verdict honestly as not-decreasing; see the decisions "
        "ledger for the quantitative floor argument."
    ),
)
def test_criterion_9iii_d_per_pair_decrease(tmp_path):
    report, _ = _acceptance_study(tmp_path)
    d_vals = report.row_values("D")
    record(
        "9(iii)",
        "FAIL",
        f"(D per-pair decrease at zeta=8, eta0=0.075: structurally false at "
        f"the first pair; values {['%.3g' % v for v in d_vals]})",
    )
    assert all(b < a for a, b in zip(d_vals, d_vals[1:])), d_vals


def test_criterion_10_determinism(tmp_path):
    cfg = ExperimentConfig(
        lattice=LatticeSpec.square(2, 16),
        eps_list=(0.2, 0.1),
        mu=0.05,
        lam=0.05,
        dt=5e-3,
        t_final=0.05,
        sample_stride=2,
        zeta=1.5,
        eta0=0.4,
        amplitude_a=1.0,
        amplitude_u=1.0,
        seed=11,
    )
    config_path = os.path.join(str(tmp_path), "config.json")
    with open(config_path, "w") as fh:
        json.dump(cfg.to_json(), fh)
    csvs = []
    for run in ("r1", "r2"):
        out = os.path.join(str(tmp_path), run)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "lowmach.cli",
                "converge",
                "--config",
                config_path,
                "--out",
                out,
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        with open(os.path.join(out, "report.csv"), "rb") as fh:
            csvs.append(fh.read())
    assert csvs[0] == csvs[1]
    record("10", "PASS", "(byte-identical CSV)")


def test_zz_summary():
    """Print the collected acceptance table (run with -s to see it live)."""
    print("\n---- acceptance summary ----")
    seen = {c for c, _, _ in RESULTS}
    for criterion, status, detail in RESULTS:
        print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    if "2b" not in seen:
        print(
            "ACCEPTANCE 2b: FAIL (expected: high-pass truncation constant-1 "
            "bound is unattainable; see ledger)"
        )
    if "9(iii)" not in seen:
        print(
            "ACCEPTANCE 9(iii): FAIL (expected: D per-pair decrease is "
            "structurally false at the pinned band thresholds; see ledger)"
        )
    # every live criterion above must have registered a PASS
    for crit in ("1", "2", "3", "4", "5", "6", "7", "8", "9(i,ii)", "10"):
        assert any(c == crit and s == "PASS" for c, s, _ in RESULTS), crit
