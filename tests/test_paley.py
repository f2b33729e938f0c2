"""Dyadic decomposition, norm, and paraproduct tests."""

import math

import numpy as np
import pytest

from lowmach.lattice import LatticeSpec, SpectralField, forward_transform
from lowmach.dyadic import (
    DEFAULT_PROFILE,
    NormSpec,
    block_range,
    chemin_lerner_norm,
    compute_jb,
    dyadic_block,
    low_cut,
    norm,
    parse_norm_spec,
    time_norm,
)
from oracles import (
    HS_EQUIV_BOUND,
    bony_paraproduct,
    convolution_product,
    field_from_modes,
    grid_points,
    mode_truncate,
    partition_sum,
    random_field,
)


class TestProfileAndBlocks:
    def test_profile_support_exact(self):
        phi = DEFAULT_PROFILE
        for r in (0.0, 0.3, 0.75, 8 / 3, 3.0, 10.0):
            assert float(phi(r)) == 0.0
        assert float(phi(1.0)) > 0.0
        assert float(phi(2.0)) > 0.0

    def test_partition_of_unity(self):
        phi = DEFAULT_PROFILE
        J = 8
        r = np.linspace(2.0 ** (-J + 2), 2.0 ** (J - 2), 3001)
        dev = np.abs(partition_sum(phi, r, -J, J) - 1.0)
        assert np.max(dev) <= 1e-12

    def test_jb_values(self):
        assert compute_jb(LatticeSpec.square(2, 16)) == -2
        assert compute_jb(LatticeSpec(periods=(2, 1), resolution=(16, 16))) == -3

    def test_block_at_jb_vanishes(self, lat16):
        rng = np.random.default_rng(0)
        g = random_field(lat16, rng)
        jb = compute_jb(lat16)
        for j in (jb, jb - 1, jb - 3):
            assert np.max(np.abs(dyadic_block(g, j).coeffs)) == 0.0

    def test_single_mode_block_support(self):
        lat = LatticeSpec.square(2, 16)
        g = field_from_modes(lat, {(1, 0): 1.0})
        active = [
            j for j in range(-5, 6) if np.max(np.abs(dyadic_block(g, j).coeffs)) > 0
        ]
        assert active == [-1, 0]

    def test_almost_orthogonality_blocks(self, lat16):
        rng = np.random.default_rng(1)
        g = random_field(lat16, rng)
        for j in block_range(lat16):
            for jp in block_range(lat16):
                double = dyadic_block(dyadic_block(g, j), jp)
                if abs(j - jp) >= 2:
                    assert np.max(np.abs(double.coeffs)) == 0.0

    def test_block_reconstruction(self, lat16):
        rng = np.random.default_rng(2)
        g = random_field(lat16, rng)
        total = low_cut(g, min(block_range(lat16)))  # mean only
        for j in block_range(lat16):
            total = total + dyadic_block(g, j)
        scale = np.max(np.abs(g.coeffs))
        assert np.max(np.abs(total.coeffs - g.coeffs)) <= 1e-12 * scale

    def test_low_cut_limits(self, lat16):
        rng = np.random.default_rng(3)
        g = random_field(lat16, rng)
        jb = compute_jb(lat16)
        top = max(block_range(lat16)) + 1
        scale = np.max(np.abs(g.coeffs))
        assert np.max(np.abs(low_cut(g, top + 1).coeffs - g.coeffs)) <= 1e-12 * scale
        mean_only = low_cut(g, jb + 1)
        rest = mean_only.coeffs.copy()
        rest[(0,) + (0,) * 2] = 0
        assert np.max(np.abs(rest)) == 0.0
        assert mean_only.mean_coefficient()[0] == pytest.approx(
            g.mean_coefficient()[0]
        )

    def test_low_cut_telescoping(self, lat16):
        rng = np.random.default_rng(4)
        g = random_field(lat16, rng)
        for j in (0, 1, 2):
            diff = low_cut(g, j) - low_cut(g, j - 1)
            blk = dyadic_block(g, j - 1)
            scale = max(1e-30, np.max(np.abs(blk.coeffs)))
            assert np.max(np.abs(diff.coeffs - blk.coeffs)) <= 1e-12 * scale


class TestNorms:
    def test_two_block_example(self):
        lat = LatticeSpec.square(2, 16)
        g = field_from_modes(lat, {(1, 0): 1.0, (-1, 0): 1.0})
        phi = DEFAULT_PROFILE
        # direct per-block oracle: |k| = 1 hits blocks j = -1, 0 only
        expected = sum(
            float(phi(2.0**-j)) * math.sqrt(2.0) for j in (-1, 0)
        )
        got = norm(g, "B:s=0:p=2:r=1")
        assert got == pytest.approx(expected, rel=1e-12)
        # the two blocks partition the coefficient mass
        mass = sum(
            float(np.sum(dyadic_block(g, j).mode_power())) for j in (-1, 0)
        )
        assert mass <= 2.0 + 1e-12  # phi^2 <= phi keeps mass below the total

    def test_besov_sobolev_equivalence(self, lat16):
        rng = np.random.default_rng(5)
        assert HS_EQUIV_BOUND <= 3.0
        for s in (-1.0, -0.5, 0.0, 0.5, 1.0):
            g = random_field(lat16, rng, zero_mean=True)
            b = norm(g, NormSpec(kind="B", s=s, p=2, r=2))
            h = norm(g, NormSpec(kind="H", s=s))
            ratio = b / h
            assert 1.0 / HS_EQUIV_BOUND <= ratio <= HS_EQUIV_BOUND

    def test_zero_field_every_spec(self, lat16):
        g = SpectralField.zeros(lat16)
        for text in (
            "B:s=1:p=2:r=1",
            "B:s=-0.5:p=inf:r=inf",
            "B:s=0:p=2:r=2:band=h:eta=2",
            "B:s=0:p=2:r=1:band=m:zeta=1:eta=4",
            "B:s=0:p=2:r=1:band=l:zeta=2",
            "H:s=1",
        ):
            assert norm(g, text) == 0.0

    def test_banded_additivity_r1(self, lat16):
        rng = np.random.default_rng(6)
        g = random_field(lat16, rng)
        zeta, eta = 1.0, 4.0
        full = norm(g, NormSpec(s=0.5, r=1))
        h = norm(g, NormSpec(s=0.5, r=1, band="h", eta=eta))
        m = norm(g, NormSpec(s=0.5, r=1, band="m", zeta=zeta, eta=eta))
        lo = norm(g, NormSpec(s=0.5, r=1, band="l", zeta=zeta))
        assert h + m + lo == pytest.approx(full, rel=1e-12)

    def test_spec_grammar_round_trip(self):
        texts = [
            "B:s=1:p=2:r=1:band=h:eta=32",
            "B:s=-0.5:p=inf:r=inf",
            "B:s=0:p=2:r=2:band=m:zeta=1:eta=4",
            "H:s=1.5",
            "B:s=2:p=2:r=1:band=l:zeta=8:mean=excl",
        ]
        for text in texts:
            spec = parse_norm_spec(text)
            again = parse_norm_spec(spec.key())
            assert spec == again

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            parse_norm_spec("B:s=0:p=3:r=1")
        with pytest.raises(ValueError):
            parse_norm_spec("B:s=0:p=2:r=1:band=m:zeta=4:eta=2")
        with pytest.raises(ValueError):
            parse_norm_spec("X:s=0")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("H:s=1:band=h:eta=4", "'band' is Besov-only"),
            ("H:s=1:p=2", "'p' is Besov-only"),
            ("H:s=1:r=1", "'r' is Besov-only"),
            ("H:s=1:eta=4", "'eta' is Besov-only"),
            ("H:s=1:zeta=2", "'zeta' is Besov-only"),
            ("B:s=1:mean=yes", "mean must be incl or excl, got 'yes'"),
            ("H:s=1:mean=no", "mean must be incl or excl, got 'no'"),
            ("B:s=1:eta=4", "band 'full' reads no eta"),
            ("B:s=1:zeta=2", "band 'full' reads no zeta"),
            ("B:s=1:band=h:eta=4:zeta=2", "band 'h' reads no zeta"),
            ("B:s=1:band=l:zeta=2:eta=4", "band 'l' reads no eta"),
        ],
    )
    def test_spec_rejects_what_it_would_ignore(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_norm_spec(text)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(kind="H", band="h", eta=4.0), "kind 'H' has no band 'h'"),
            (dict(kind="H", band="bogus"), "kind 'H' has no band 'bogus'"),
            (dict(band="bogus"), "kind 'B' has no band 'bogus'"),
            (dict(kind="H", eta=4.0), "band 'full' reads no eta"),
            (dict(kind="H", zeta=4.0), "band 'full' reads no zeta"),
            (dict(eta=4.0), "band 'full' reads no eta"),
            (dict(band="h", eta=4.0, zeta=2.0), "band 'h' reads no zeta"),
            (dict(band="l", zeta=2.0, eta=4.0), "band 'l' reads no eta"),
            (dict(band="h"), "band 'h' needs eta"),
            (dict(band="l"), "band 'l' needs zeta"),
            (dict(kind="H", s=1.0, p=math.inf, r=math.inf), "kind 'H' reads no p or r"),
            (dict(kind="H", p=math.inf), "kind 'H' reads no p or r: got p=inf, r=1"),
            (dict(kind="H", r=2), "kind 'H' reads no p or r: got p=2, r=2"),
        ],
    )
    def test_norm_spec_rejects_unread_fields(self, fields, message):
        with pytest.raises(ValueError, match=message):
            NormSpec(**fields)

    def test_linf_norm_of_known_field(self):
        lat = LatticeSpec.square(2, 16)
        x = grid_points(lat)[0]
        g = forward_transform(lat, np.cos(x))
        # single |k|=1 shell; block values recombine to cos(x) whose max is 1
        total = sum(
            norm(g, NormSpec(s=0.0, p=float("inf"), r=1, band="h", eta=2.0**j))
            - norm(g, NormSpec(s=0.0, p=float("inf"), r=1, band="h", eta=2.0 ** (j + 1)))
            for j in (-1, 0)
        )
        assert total == pytest.approx(
            sum(
                float(DEFAULT_PROFILE(2.0**-j)) for j in (-1, 0)
            ),
            rel=1e-10,
        )


class TestTruncation:
    # Sharp-cutoff comparisons on the unit-period lattice where every nonzero
    # modulus is at least 1.

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_low_pass_bound_constant_one(self, lat16, sigma):
        rng = np.random.default_rng(7)
        specs = [(0.0, 1), (1.0, 1), (0.5, 2), (0.0, float("inf"))]
        fields = [random_field(lat16, rng, zero_mean=True) for _ in range(5)]
        fields += [
            field_from_modes(lat16, {(3, 0): 1.0}),
            field_from_modes(lat16, {(2, 1): 1.0}),
            field_from_modes(lat16, {(4, 1): 1.0}),
        ]
        for g in fields:
            for M in (1.0, 2.0, 3.0, 4.0, 4.5):
                gm = mode_truncate(g, M, keep="low")
                for s, r in specs:
                    lhs = norm(gm, NormSpec(s=s, r=r))
                    rhs = M**sigma * norm(g, NormSpec(s=s - sigma, r=r))
                    assert lhs <= rhs * (1 + 1e-12)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "High-pass truncation with constant exactly 1 is false for every "
            "admissible bump: a single mode |k|=3 lives in the block 2^j=2, so "
            "for M in (2,3) the weight (2^j/M)^sigma < 1 and "
            "||g^M||_{B^s} > M^-sigma ||g||_{B^{s+sigma}}.  The inequality "
            "holds with constant (8/3)^sigma instead."
        ),
    )
    def test_high_pass_bound_constant_one(self, lat16):
        sigma = 1.0
        g = field_from_modes(lat16, {(3, 0): 1.0})
        gm = mode_truncate(g, 2.5, keep="high")
        lhs = norm(gm, NormSpec(s=0.0, r=1))
        rhs = 2.5**-sigma * norm(g, NormSpec(s=sigma, r=1))
        assert lhs <= rhs * (1 + 1e-12)

    def test_high_pass_bound_provable_constant(self, lat16):
        # the attainable constant (8/3)^sigma, checked on random fields
        rng = np.random.default_rng(8)
        for sigma in (0.5, 1.0, 2.0):
            for _ in range(3):
                g = random_field(lat16, rng, zero_mean=True)
                for M in (1.0, 2.0, 3.0):
                    gm = mode_truncate(g, M, keep="high")
                    lhs = norm(gm, NormSpec(s=0.0, r=1))
                    rhs = (
                        (8.0 / 3.0) ** sigma
                        * M**-sigma
                        * norm(g, NormSpec(s=sigma, r=1))
                    )
                    assert lhs <= rhs * (1 + 1e-12)

    def test_split_reconstructs(self, lat16):
        rng = np.random.default_rng(9)
        g = random_field(lat16, rng)
        low = mode_truncate(g, 3.0, "low")
        high = mode_truncate(g, 3.0, "high")
        assert np.max(np.abs(low.coeffs + high.coeffs - g.coeffs)) == 0.0


class TestTrajectoriesAndMinkowski:
    def make_trajectory(self, lattice, rng, nsamples=9):
        times = np.linspace(0.0, 1.0, nsamples)
        fields = [random_field(lattice, rng, zero_mean=True) for _ in times]
        return times, fields

    def test_time_constant_single_block(self):
        lat = LatticeSpec.square(2, 16)
        g = field_from_modes(lat, {(2, 1): 1.0})
        times = np.linspace(0.0, 1.0, 5)
        fields = [g for _ in times]
        spec = NormSpec(s=0.7, r=1)
        assert chemin_lerner_norm(times, fields, float("inf"), spec) == pytest.approx(
            norm(g, spec), rel=1e-12
        )

    @pytest.mark.parametrize("q,r", [(1.0, 2), (1.0, float("inf")), (2.0, 1)])
    def test_minkowski_orderings(self, lat16, q, r):
        rng = np.random.default_rng(10)
        for _ in range(4):
            times, fields = self.make_trajectory(lat16, rng)
            spec = NormSpec(s=0.3, r=r)
            tilde = chemin_lerner_norm(times, fields, q, spec)
            plain = time_norm(times, fields, q, spec)
            if r <= q:
                assert plain <= tilde * (1 + 1e-12)
            if r >= q:
                assert plain >= tilde * (1 - 1e-12)

    def test_coarser_regularity_domination(self, lat16):
        # derived constant from the minimum active block and block count
        rng = np.random.default_rng(11)
        s1, s2 = 0.0, 1.0
        r1, r2, q = 1.0, 2.0, 2.0
        jb = compute_jb(lat16)
        nblocks = len(list(block_range(lat16)))
        weight = 2.0 ** ((jb + 1) * (s1 - s2))
        exponent = (
            max(0.0, 1 / r1 - 1 / r2)
            + max(0.0, 1 / q - 1 / r2)
            + max(0.0, 1 / r1 - 1 / q)
        )
        C = weight * nblocks**exponent
        for _ in range(4):
            times, fields = self.make_trajectory(lat16, rng)
            lo_specs = NormSpec(s=s1, r=r1, underlined=True)
            hi_specs = NormSpec(s=s2, r=r2, underlined=True)
            lhs = max(
                chemin_lerner_norm(times, fields, q, lo_specs),
                time_norm(times, fields, q, lo_specs),
            )
            rhs = min(
                chemin_lerner_norm(times, fields, q, hi_specs),
                time_norm(times, fields, q, hi_specs),
            )
            assert lhs <= C * rhs * (1 + 1e-12)


class TestBony:
    def test_constant_first_argument(self, lat16):
        rng = np.random.default_rng(12)
        g = random_field(lat16, rng)
        c = 1.75
        f = field_from_modes(lat16, {(0, 0): c * math.sqrt(lat16.volume)})
        t_fg, t_gf, rem, mean_mean = bony_paraproduct(f, g)
        mean_g = g.mean_coefficient()[0]
        underline = g.coeffs.copy()
        underline[(0,) + (0, 0)] = 0.0
        scale = np.max(np.abs(g.coeffs)) * abs(c)
        assert np.max(np.abs(t_fg.coeffs - c * underline)) <= 1e-12 * scale
        assert np.max(np.abs(t_gf.coeffs)) <= 1e-14 * scale
        assert np.max(np.abs(rem.coeffs)) <= 1e-14 * scale
        assert mean_mean.mean_coefficient()[0] == pytest.approx(
            c * mean_g, rel=1e-12
        )

    def test_four_part_reconstruction(self, lat16):
        rng = np.random.default_rng(13)
        from lowmach.lattice import dealiased_product

        f = random_field(lat16, rng)
        g = random_field(lat16, rng)
        t_fg, t_gf, rem, mean_mean = bony_paraproduct(f, g)
        total = t_fg + t_gf + rem + mean_mean
        direct = dealiased_product(f, g)
        scale = max(1.0, np.max(np.abs(direct.coeffs)))
        assert np.max(np.abs(total.coeffs - direct.coeffs)) <= 1e-12 * scale

    def test_support_locality_exact(self):
        # exact-arithmetic checks via the convolution oracle on a small lattice
        lat = LatticeSpec.square(2, 8)
        rng = np.random.default_rng(14)
        f = random_field(lat, rng)
        g = random_field(lat, rng)
        js = list(block_range(lat))
        for j in js:
            prod = convolution_product(low_cut(f, j - 2), dyadic_block(g, j))
            for jp in js:
                if abs(jp - j) >= 3:
                    assert np.max(np.abs(dyadic_block(prod, jp).coeffs)) == 0.0
        for j in js:
            for jp in js:
                if abs(j - jp) > 2:
                    continue
                prod = convolution_product(dyadic_block(g, j), dyadic_block(f, jp))
                for jpp in js:
                    if jpp - j >= 5:
                        assert np.max(np.abs(dyadic_block(prod, jpp).coeffs)) == 0.0

    def test_high_band_of_paraproduct_depends_on_high_blocks(self):
        # h-band at threshold zeta of T_f g only sees blocks of g with
        # 2^j >= zeta/4 (checked exactly through the convolution oracle)
        lat = LatticeSpec.square(2, 8)
        rng = np.random.default_rng(15)
        f = random_field(lat, rng)
        g = random_field(lat, rng)
        zeta = 4.0
        t_fg_full, *_ = bony_paraproduct(f, g, product=convolution_product)
        keep = np.zeros(lat.resolution)
        keep[(0,) * lat.d] = 1.0
        for j in block_range(lat):
            from lowmach.dyadic import _block_weights

            w = _block_weights(lat, j)
            keep = keep + (w if 2.0**j >= zeta / 4.0 else 0.0 * w)
        g_high = g.scale_modes(keep)
        t_fg_high, *_ = bony_paraproduct(f, g_high, product=convolution_product)
        h_spec = NormSpec(s=0.5, r=1, band="h", eta=zeta)
        assert norm(t_fg_full, h_spec) == pytest.approx(
            norm(t_fg_high, h_spec), rel=1e-12, abs=1e-13
        )
