"""Exact resonance tests, limit forms, small divisors, and correctors."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lowmach.lattice import GridField, LatticeSpec, SpectralField, forward_transform
from lowmach.operators import (
    AcousticCoeffs,
    acoustic_transform,
    helmholtz_project,
    q1_eps_modesum,
    q1_eps_time_average,
    q2_eps_modesum,
    q2_eps_time_average,
    sg,
)
from lowmach.resonance import (
    _flat_index,
    _in_box,
    _modulus_of,
    _scaled_norm_of,
    _sqrt_sum_is_zero,
    _wavevector_of,
    assemble_correctors,
    build_limit_tables,
    enumerate_resonance_sets,
    limit_q1,
    limit_q2,
    low_freq_split,
    remainder_fields,
    resonance_test,
    small_divisors,
)


def sqrt_sum_oracle(terms, digits=80):
    """Scaled-integer square roots: exact to `digits` decimal digits."""
    scale = 10**digits
    total = 0
    for s, n in terms:
        total += s * math.isqrt(n * scale * scale)
    # each isqrt floors by at most 1
    return abs(total) <= len(terms)


def random_divfree(lattice, rng, scale=1.0):
    values = rng.standard_normal((lattice.d,) + lattice.resolution)
    return scale * helmholtz_project(forward_transform(GridField(lattice, values)), "P")


def random_acoustic(lattice, rng, scale=1.0):
    a_vals = rng.standard_normal(lattice.resolution)
    a = forward_transform(GridField(lattice, a_vals))
    coeffs = a.coeffs.copy()
    coeffs[(0,) + (0,) * lattice.d] = 0.0
    a = SpectralField(lattice, coeffs, reality=True)
    qu = helmholtz_project(
        forward_transform(
            GridField(lattice, rng.standard_normal((lattice.d,) + lattice.resolution))
        ),
        "Q",
    )
    return acoustic_transform(scale * a, scale * qu)


@pytest.fixture
def lat8():
    return LatticeSpec.square(2, 8)


class TestExactTest:
    def test_hand_checked_triples(self):
        assert resonance_test([(1, 1), (1, 1), (-1, 4)]).resonant
        r = resonance_test([(1, 1), (1, 1), (-1, 2)])
        assert not r.resonant
        assert r.divisor == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-12)
        assert resonance_test([(1, 9), (1, 16), (-1, 49)]).resonant

    def test_two_term_cases(self):
        assert resonance_test([(1, 5), (-1, 5)]).resonant
        assert not resonance_test([(1, 5), (1, 5)]).resonant
        assert not resonance_test([(1, 5), (-1, 6)]).resonant

    def test_randomized_against_high_precision(self):
        rng = np.random.default_rng(100)
        cases = 20000
        for _ in range(cases // 2):
            # engineered resonant family: sqrt(p^2 r) + sqrt(q^2 r) = sqrt((p+q)^2 r)
            p, q, r = (int(v) for v in rng.integers(1, 40, size=3))
            terms = [(1, p * p * r), (1, q * q * r), (-1, (p + q) * (p + q) * r)]
            got = resonance_test(terms).resonant
            assert got == sqrt_sum_oracle(terms)
            assert got
        for _ in range(cases // 2):
            signs = rng.choice([-1, 1], size=3)
            ns = rng.integers(0, 10**6, size=3)
            terms = [(int(s), int(n)) for s, n in zip(signs, ns)]
            assert resonance_test(terms).resonant == sqrt_sum_oracle(terms)


class TestEnumeration:
    def test_q1_resonant_shell_example(self, lat8):
        table = build_limit_tables(lat8)
        m_flat = int(np.ravel_multi_index((1, 0), lat8.resolution))
        entries = np.nonzero(table.q1_m == m_flat)[0]
        found = set()
        for i in entries:
            k_multi = np.unravel_index(int(table.q1_k[i]), lat8.resolution)
            nk = tuple(
                int(c) if c <= n // 2 else int(c) - n
                for c, n in zip(k_multi, lat8.resolution)
            )
            alpha = int(table.q1_ss[i]) * sg((1, 0))  # alpha for gamma = +1
            found.add((nk, alpha))
        assert found == {
            ((1, 0), 1),
            ((-1, 0), -1),
            ((0, 1), 1),
            ((0, -1), -1),
        }

    def test_q2_resonant_examples(self, lat8):
        table = build_limit_tables(lat8)
        m_flat = int(np.ravel_multi_index((2, 0), lat8.resolution))
        k_flat = int(np.ravel_multi_index((1, 0), lat8.resolution))
        hits = np.nonzero(
            (table.q2_m[1] == m_flat)
            & (table.q2_k[1] == k_flat)
            & (table.q2_l[1] == k_flat)
        )[0]
        assert hits.size == 1
        # k=(1,0), l=(0,1), m=(1,1) is non-resonant: 2 != sqrt(2)
        m11 = int(np.ravel_multi_index((1, 1), lat8.resolution))
        l01 = int(np.ravel_multi_index((0, 1), lat8.resolution))
        bad = np.nonzero(
            (table.q2_m[1] == m11)
            & (table.q2_k[1] == k_flat)
            & (table.q2_l[1] == l01)
        )[0]
        assert bad.size == 0

    def test_enumeration_paths_agree(self, lat8):
        # on the 8^2 unit lattice the dealiased box equals the modulus ball
        # of radius 2*sqrt(2), so both enumeration paths must list the same
        # resonant triples
        box_table = build_limit_tables(lat8)
        ball_table = enumerate_resonance_sets(lat8, 2.0 * math.sqrt(2.0))

        def q1_set(table):
            return {
                (int(m), int(k), int(l))
                for m, k, l in zip(table.q1_m, table.q1_k, table.q1_l)
            }

        def q2_set(table):
            return {
                (int(m), int(k), int(l))
                for m, k, l in zip(table.q2_m[1], table.q2_k[1], table.q2_l[1])
            }

        assert q1_set(box_table) == q1_set(ball_table)
        assert q2_set(box_table) == q2_set(ball_table)

    def test_counts_report_distinct_q2_triples(self, lat8):
        # the gamma = +1 and -1 keys hold the same equal-branch triples, so
        # counts() reports one key's entries, each a distinct triple
        for table in (build_limit_tables(lat8), enumerate_resonance_sets(lat8, 2.0)):
            counts = table.counts()
            assert counts["q2_resonant"] == table.q2_m[1].size > 0
            assert counts["q1_resonant"] == table.q1_m.size
            triples = set(zip(table.q2_m[1], table.q2_k[1], table.q2_l[1]))
            assert len(triples) == table.q2_m[1].size
            assert triples == set(zip(table.q2_m[-1], table.q2_k[-1], table.q2_l[-1]))

    def test_table_reality_closure(self, lat8):
        # every resonant q1 pair has its mirrored partner
        table = build_limit_tables(lat8)
        pairs = set()
        for i in range(table.q1_m.size):
            m = np.unravel_index(int(table.q1_m[i]), lat8.resolution)
            k = np.unravel_index(int(table.q1_k[i]), lat8.resolution)
            pairs.add((m, k))
        for m, k in pairs:
            mm = tuple((-c) % n for c, n in zip(m, lat8.resolution))
            mk = tuple((-c) % n for c, n in zip(k, lat8.resolution))
            assert (mm, mk) in pairs


def reference_limit_tables(lattice):
    """Per-pair classifier of the limit tables, in the builder's entry order.

    q1 walks every same-modulus shell with a double loop; q2 runs the exact
    three-root test on each (k, l) pair of nonzero box modes in turn.
    """
    grids = lattice.index_grids()
    modes = [
        tuple(int(g[tuple(raw)]) for g in grids)
        for raw in np.argwhere(lattice.dealias_mask())
    ]
    modes = [n for n in modes if any(n)]
    box = set(modes)
    norm = {n: _scaled_norm_of(lattice, n) for n in modes}
    q1 = {key: [] for key in ("m", "k", "l", "ss", "weight", "kvec")}
    shells = {}
    for n in modes:
        shells.setdefault(norm[n], []).append(n)
    for shell in shells.values():
        for m in shell:
            for k in shell:
                l = tuple(a - b for a, b in zip(m, k))
                if not _in_box(lattice, l):
                    continue
                kv, mv = _wavevector_of(lattice, k), _wavevector_of(lattice, m)
                q1["m"].append(_flat_index(lattice, m))
                q1["k"].append(_flat_index(lattice, k))
                q1["l"].append(_flat_index(lattice, l))
                q1["ss"].append(sg(m) * sg(k))
                q1["weight"].append(
                    sum(a * b for a, b in zip(kv, mv))
                    / (_modulus_of(lattice, k) * _modulus_of(lattice, m))
                )
                q1["kvec"].append(kv)
    q2 = {key: [] for key in ("m", "k", "l", "smod")}
    for k in modes:
        for l in modes:
            m = tuple(a + b for a, b in zip(k, l))
            if m in box and _sqrt_sum_is_zero(
                [(sg(k), norm[k]), (sg(l), norm[l]), (-sg(m), norm[m])]
            ):
                q2["m"].append(_flat_index(lattice, m))
                q2["k"].append(_flat_index(lattice, k))
                q2["l"].append(_flat_index(lattice, l))
                q2["smod"].append(sg(m) * _modulus_of(lattice, m))
    return q1, q2


ORACLE_LATTICES = {
    "16x16": LatticeSpec.square(2, 16),
    "16x12-aniso": LatticeSpec((1, Fraction(3, 2)), (16, 12)),
    "8x8x8": LatticeSpec.square(3, 8),
    "8x8x6-aniso": LatticeSpec((1, Fraction(1, 2), Fraction(2, 3)), (8, 8, 6)),
}


@pytest.mark.parametrize("name", list(ORACLE_LATTICES))
def test_limit_tables_match_per_pair_oracle(name):
    lattice = ORACLE_LATTICES[name]
    table = build_limit_tables(lattice)
    q1, q2 = reference_limit_tables(lattice)
    ulps = 4 * np.finfo(float).eps

    def same(got, want, dtype):
        assert got.dtype == dtype
        assert np.array_equal(got, np.array(want, dtype=dtype).reshape(got.shape))

    for key in ("m", "k", "l"):
        same(getattr(table, f"q1_{key}"), q1[key], np.int64)
    same(table.q1_ss, q1["ss"], np.int8)
    np.testing.assert_allclose(table.q1_weight, q1["weight"], rtol=0, atol=ulps)
    np.testing.assert_allclose(
        table.q1_kvec, np.array(q1["kvec"]).reshape(-1, lattice.d), rtol=ulps, atol=0
    )
    assert q2["m"], "every oracle lattice has resonant q2 triples"
    for gamma in (1, -1):
        for key in ("m", "k", "l"):
            same(getattr(table, f"q2_{key}")[gamma], q2[key], np.int64)
        np.testing.assert_allclose(table.q2_smod[gamma], q2["smod"], rtol=ulps, atol=0)
    # the equal-branch set is stored once and shared by both output branches
    assert table.q2_m[1] is table.q2_m[-1]

    # every q2 triple is collinear: all integer 2x2 minors of (k, l) vanish
    idx = np.stack([g.reshape(-1) for g in lattice.index_grids()], axis=1)
    k, l = idx[table.q2_k[1]], idx[table.q2_l[1]]
    for i in range(lattice.d):
        for j in range(i + 1, lattice.d):
            assert np.all(k[:, i] * l[:, j] == k[:, j] * l[:, i])


class TestLimitForms:
    def test_zero_inputs(self, lat8):
        rng = np.random.default_rng(0)
        table = build_limit_tables(lat8)
        u = random_divfree(lat8, rng)
        B = random_acoustic(lat8, rng)
        zero_u = SpectralField.zeros(lat8, 2)
        zero_B = AcousticCoeffs.zeros(lat8)
        assert limit_q1(zero_u, B, table).l2_norm() == 0.0
        assert limit_q1(u, zero_B, table).l2_norm() == 0.0
        assert limit_q2(zero_B, B, table).l2_norm() == 0.0

    def test_reality_preserved(self, lat8):
        rng = np.random.default_rng(1)
        table = build_limit_tables(lat8)
        u = random_divfree(lat8, rng)
        B = random_acoustic(lat8, rng)
        out1 = limit_q1(u, B, table)
        out2 = limit_q2(B, B, table, kappa=1.0)
        for out in (out1, out2):
            scale = max(1e-30, float(np.max(np.abs(out.plus))), float(np.max(np.abs(out.minus))))
            assert out.conjugate_symmetry_defect() <= 1e-12 * scale

    def test_q2_support_and_kappa_scaling(self, lat8):
        table = build_limit_tables(lat8)
        A = AcousticCoeffs.from_modes(
            lat8,
            {
                ((1, 0), 1): 0.7 + 0.1j,
                ((-1, 0), 1): 0.7 - 0.1j,
                ((1, 0), -1): 0.2 - 0.3j,
                ((-1, 0), -1): 0.2 + 0.3j,
            },
        )
        out0 = limit_q2(A, A, table, kappa=0.0)
        out1 = limit_q2(A, A, table, kappa=1.0)
        for branch in (out1.plus, out1.minus):
            support = {
                tuple(idx) for idx, val in np.ndenumerate(branch) if abs(val) > 1e-15
            }
            assert support == {(2, 0), (6, 0)}  # modes (2,0) and (-2,0)
        ratio = out1.plus[2, 0] / out0.plus[2, 0]
        assert ratio == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_q1_average_converges_to_limit(self, lat8):
        rng = np.random.default_rng(2)
        table = build_limit_tables(lat8)
        u = random_divfree(lat8, rng)
        B = random_acoustic(lat8, rng)
        limit = limit_q1(u, B, table)
        errs = []
        eps_list = [0.1, 0.05, 0.025, 0.0125]
        for eps in eps_list:
            avg = q1_eps_time_average(u, B, 1.0, eps)
            errs.append((avg - limit).l2_norm())
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert 0.7 <= slope <= 1.3

    def test_q2_average_converges_to_limit(self, lat8):
        rng = np.random.default_rng(3)
        table = build_limit_tables(lat8)
        A = random_acoustic(lat8, rng)
        B = random_acoustic(lat8, rng)
        kappa = 1.0
        limit = limit_q2(A, B, table, kappa=kappa)
        errs = []
        eps_list = [0.1, 0.05, 0.025, 0.0125]
        for eps in eps_list:
            avg = q2_eps_time_average(A, B, 1.0, eps, kappa=kappa)
            errs.append((avg - limit).l2_norm())
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert 0.7 <= slope <= 1.3


class TestSmallDivisors:
    def test_c1_value_on_unit_lattice(self):
        lat = LatticeSpec.square(2, 8)
        report = small_divisors(lat, 1.0)
        assert report.c1 == pytest.approx(math.sqrt(2.0) + 1.0, rel=1e-12)
        assert report.attaining_q1["divisor"] > 0.0

    def test_monotone_in_m(self):
        lat = LatticeSpec.square(2, 16)
        values = [small_divisors(lat, M).c1 for M in (1.0, 2.0, 3.0)]
        assert values[0] <= values[1] <= values[2]

    def test_divisors_positive(self):
        lat = LatticeSpec.square(2, 8)
        table = enumerate_resonance_sets(lat, 2.0)
        assert np.all(np.abs(table.nonres_q1["div"]) > 0)
        assert np.all(np.abs(table.nonres_q2["div"]) > 0)

    def test_attaining_triples_verify_their_divisors(self):
        lat = LatticeSpec.square(2, 16)
        for M in (1.0, 2.0):
            report = small_divisors(lat, M)
            k = report.attaining_q1["kn"]
            m = report.attaining_q1["mn"]
            alpha, gamma = report.attaining_q1["alpha"], report.attaining_q1["gamma"]
            got = abs(
                alpha * sg(k) * math.sqrt(sum(c * c for c in k))
                - gamma * sg(m) * math.sqrt(sum(c * c for c in m))
            )
            assert got == pytest.approx(report.attaining_q1["divisor"], rel=1e-12)
            assert got == pytest.approx(1.0 / report.c1, rel=1e-12)
            k2, l2, m2 = (
                report.attaining_q2["kn"],
                report.attaining_q2["ln"],
                report.attaining_q2["mn"],
            )
            a2_, b2_, g2_ = (
                report.attaining_q2["alpha"],
                report.attaining_q2["beta"],
                report.attaining_q2["gamma"],
            )
            got2 = abs(
                a2_ * sg(k2) * math.sqrt(sum(c * c for c in k2))
                + b2_ * sg(l2) * math.sqrt(sum(c * c for c in l2))
                - g2_ * sg(m2) * math.sqrt(sum(c * c for c in m2))
            )
            assert got2 == pytest.approx(1.0 / report.c2, rel=1e-12)


class TestCorrectors:
    def manufactured(self, lattice, rng, M):
        """Random reality-symmetric coefficient paths supported in |k| <= M."""
        low = (lattice.k_modulus() <= M + 1e-12).astype(float)
        V0 = random_acoustic(lattice, rng, scale=0.01).scale_modes(low)
        v0 = random_divfree(lattice, rng, scale=0.01).scale_modes(low)
        f0 = random_acoustic(lattice, rng, scale=0.01).scale_modes(low)
        lam0 = random_acoustic(lattice, rng, scale=0.01).scale_modes(low)
        return V0, v0, f0, lam0

    def test_zero_inputs_give_zero(self):
        lat = LatticeSpec.square(2, 16)
        table = enumerate_resonance_sets(lat, 2.0)
        base, _ = assemble_correctors(
            AcousticCoeffs.zeros(lat),
            SpectralField.zeros(lat, 2),
            AcousticCoeffs.zeros(lat),
            2.0,
            0.3,
            0.5,
            kappa=1.0,
            nu=0.15,
            table=table,
            lam_ac=AcousticCoeffs.zeros(lat),
        )
        assert base.total().l2_norm() == 0.0

    def test_support_within_2m(self):
        lat = LatticeSpec.square(2, 16)
        rng = np.random.default_rng(4)
        M = 2.0
        table = enumerate_resonance_sets(lat, M)
        V0, v0, f0, lam0 = self.manufactured(lat, rng, M)
        base, _ = assemble_correctors(
            V0, v0, f0, M, 0.2, 0.5, kappa=1.0, nu=0.15, table=table, lam_ac=lam0
        )
        total = base.total()
        outside = lat.k_modulus() > 2 * M + 1e-9
        assert np.max(np.abs(total.plus[outside])) == 0.0
        assert np.max(np.abs(total.minus[outside])) == 0.0

    def test_two_time_scale_identity(self):
        # eps * d/dt corrector = low-band remainder + eps * derivative set
        lat = LatticeSpec.square(2, 16)
        rng = np.random.default_rng(5)
        M = 2.0
        eps = 1.0
        kappa = 1.0
        nu = 0.15
        t0 = 0.37
        table = enumerate_resonance_sets(lat, M)
        V0, v0, f0, lam0 = self.manufactured(lat, rng, M)

        def corrector_total(t):
            decay = math.exp(-t)
            base, _ = assemble_correctors(
                decay * V0,
                decay * v0,
                decay * f0,
                M,
                t,
                eps,
                kappa=kappa,
                nu=nu,
                table=table,
                lam_ac=decay * lam0,
            )
            return base.total()

        h = 1e-4
        fd = (1.0 / (2 * h)) * (corrector_total(t0 + h) - corrector_total(t0 - h))
        decay = math.exp(-t0)
        rem = remainder_fields(
            decay * V0,
            decay * v0,
            decay * f0,
            M,
            t0,
            eps,
            kappa=kappa,
            nu=nu,
            table=table,
            lam_ac=decay * lam0,
        )
        _, deriv = assemble_correctors(
            decay * V0,
            decay * v0,
            decay * f0,
            M,
            t0,
            eps,
            kappa=kappa,
            nu=nu,
            table=table,
            lam_ac=decay * lam0,
            time_derivatives=(-decay * V0, -decay * v0, -decay * f0, -decay * lam0),
        )
        residual = (eps * fd - rem - eps * deriv.total()).l2_norm()
        assert residual <= 1e-8


class TestLowFreqSplit:
    def test_exact_reconstruction(self, lat8):
        rng = np.random.default_rng(6)
        u = random_divfree(lat8, rng)
        A = random_acoustic(lat8, rng)
        B = random_acoustic(lat8, rng)
        t, eps = 0.3, 0.1
        full = q1_eps_modesum(u, B, t, eps)
        low, high = low_freq_split(q1_eps_modesum, 1.5, u, B, t, eps)
        scale = max(1.0, full.l2_norm())
        assert ((low + high) - full).l2_norm() <= 1e-12 * scale
        full2 = q2_eps_modesum(A, B, t, eps, kappa=1.0)
        low2, high2 = low_freq_split(q2_eps_modesum, 1.5, A, B, t, eps, kappa=1.0)
        assert ((low2 + high2) - full2).l2_norm() <= 1e-12 * scale

    def test_band_edges(self, lat8):
        rng = np.random.default_rng(7)
        u = random_divfree(lat8, rng)
        B = random_acoustic(lat8, rng)
        t, eps = 0.2, 0.1
        # M at the lattice maximum: nothing in the high part
        M = lat8.max_modulus()
        _, high = low_freq_split(q1_eps_modesum, M, u, B, t, eps)
        assert high.l2_norm() == 0.0
        # M = 0: no nonzero k survives the low filter
        low, _ = low_freq_split(q1_eps_modesum, 0.0, u, B, t, eps)
        assert low.l2_norm() == 0.0
