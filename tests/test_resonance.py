"""Exact resonance tests, limit forms, small divisors, and correctors."""

import hashlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lowmach.lattice import LatticeSpec, SpectralField, forward_transform
from lowmach.operators import AcousticCoeffs, helmholtz_project, wave_group
from lowmach.dyadic import norm
from lowmach.experiments import limit_initial_data
from lowmach import resonance
from lowmach.resonance import (
    NonResonantTriads,
    _sqrt_sum_is_zero,
    assemble_correctors,
    build_limit_tables,
    enumerate_resonance_sets,
    limit_q1,
    limit_q2,
    remainder_fields,
    resonance_test,
    small_divisors,
)
from lowmach.solvers import generate_initial_data
from oracles import (
    acoustic_from_modes,
    q1_eps_modesum,
    q1_eps_time_average,
    q2_eps_modesum,
    q2_eps_time_average,
    random_acoustic,
    sg,
    sqrt_sum_oracle,
)


def random_divfree(lattice, rng, scale=1.0):
    values = rng.standard_normal((lattice.d,) + lattice.resolution)
    return scale * helmholtz_project(forward_transform(lattice, values), "P")


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
    def test_oversized_cutoff_is_rejected_before_allocating(self):
        # 64^2 at M = 31 would hold 9,003,000 (k, l) pairs times their branches
        lattice = LatticeSpec.square(2, 64)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"9,003,000 \(k, l\) pairs, .* 17\.2 GiB"):
                enumerate_resonance_sets(lattice, 31.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

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

    def test_counts_report_distinct_q2_triples(self, lat8):
        # the gamma = +1 and -1 keys hold the same equal-branch triples, so
        # counts() reports one key's entries, each a distinct triple
        table = build_limit_tables(lat8)
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


# ---------------------------------------------------------------------------
# Per-pair reference classifiers (oracles for the array-built tables)
# ---------------------------------------------------------------------------


def _scaled_norm_of(lattice, n):
    scale = lattice.norm_scale()
    total = 0
    for c, b in zip(n, lattice.periods):
        bsq = b * b
        total += (scale * bsq.denominator // bsq.numerator) * c * c
    return total


def _modulus_of(lattice, n):
    return math.sqrt(sum((c / float(b)) ** 2 for c, b in zip(n, lattice.periods)))


def _wavevector_of(lattice, n):
    return tuple(c / float(b) for c, b in zip(n, lattice.periods))


def _in_box(lattice, n):
    return all(abs(c) <= cut for c, cut in zip(n, lattice.cutoffs))


def _flat_index(lattice, n):
    idx = tuple(int(c) % r for c, r in zip(n, lattice.resolution))
    return int(np.ravel_multi_index(idx, lattice.resolution))


def _ball_modes(lattice, M):
    """Lattice vectors with 0 < |k| <= M, as integer index tuples."""
    scale = lattice.norm_scale()
    bound = int(math.floor(M * M * scale + 1e-9))
    ranges = [
        range(-int(math.floor(M * float(b) + 1e-9)), int(math.floor(M * float(b) + 1e-9)) + 1)
        for b in lattice.periods
    ]
    out = []

    def rec(prefix, rest):
        if not rest:
            n = tuple(prefix)
            if any(n) and _scaled_norm_of(lattice, n) <= bound:
                out.append(n)
            return
        for c in rest[0]:
            rec(prefix + [c], rest[1:])

    rec([], ranges)
    return out


def reference_resonance_sets(lattice, M):
    """Per-pair classifier of ``enumerate_resonance_sets``, in its entry order.

    Loops over k in the modulus ball and l in the ball followed by l = 0,
    classifying each pair's four q1 and eight q2 branch combinations with the
    scalar exact test and keeping the non-resonant ones.
    """
    d = lattice.d
    ball = _ball_modes(lattice, M)
    nq1 = {k: [] for k in ("m", "k", "l", "alpha", "gamma", "div", "bracket", "mn", "kn", "ln")}
    nq2 = {
        k: []
        for k in ("m", "k", "l", "alpha", "beta", "gamma", "div", "base", "smod", "mn", "kn", "ln")
    }

    def record_q1(m, k, l):
        nm = _scaled_norm_of(lattice, m)
        nk = _scaled_norm_of(lattice, k)
        mmod, kmod = _modulus_of(lattice, m), _modulus_of(lattice, k)
        sgm, sgk = sg(m), sg(k)
        kv, mv, lv = (
            np.array(_wavevector_of(lattice, k)),
            np.array(_wavevector_of(lattice, m)),
            np.array(_wavevector_of(lattice, l)),
        )
        for gamma in (1, -1):
            for alpha in (1, -1):
                if not (nk == nm and alpha * sgk == gamma * sgm):
                    div = alpha * sgk * kmod - gamma * sgm * mmod
                    bracket = 1.0 + alpha * gamma * sgk * sgm * float(
                        np.dot(lv + mv, kv)
                    ) / (kmod * mmod)
                    nq1["m"].append(_flat_index(lattice, m) if _in_box(lattice, m) else -1)
                    nq1["k"].append(_flat_index(lattice, k))
                    nq1["l"].append(_flat_index(lattice, l) if _in_box(lattice, l) else -1)
                    nq1["alpha"].append(alpha)
                    nq1["gamma"].append(gamma)
                    nq1["div"].append(div)
                    nq1["bracket"].append(bracket)
                    nq1["mn"].append(m)
                    nq1["kn"].append(k)
                    nq1["ln"].append(l)

    def record_q2(m, k, l):
        nm, nk, nl = (
            _scaled_norm_of(lattice, m),
            _scaled_norm_of(lattice, k),
            _scaled_norm_of(lattice, l),
        )
        mmod, kmod, lmod = (
            _modulus_of(lattice, m),
            _modulus_of(lattice, k),
            _modulus_of(lattice, l),
        )
        sgm, sgk, sgl = sg(m), sg(k), sg(l)
        kv, lv, mv = (
            np.array(_wavevector_of(lattice, k)),
            np.array(_wavevector_of(lattice, l)),
            np.array(_wavevector_of(lattice, m)),
        )
        l_dot_m = float(np.dot(lv, mv))
        k_dot_l = float(np.dot(kv, lv))
        for gamma in (1, -1):
            for alpha in (1, -1):
                for beta in (1, -1):
                    resonant = _sqrt_sum_is_zero(
                        [(alpha * sgk, nk), (beta * sgl, nl), (-gamma * sgm, nm)]
                    )
                    if not resonant:
                        div = (
                            alpha * sgk * kmod + beta * sgl * lmod - gamma * sgm * mmod
                        )
                        base = beta * sgl * sgm * l_dot_m / (
                            lmod * mmod
                        ) + alpha * beta * gamma / 2.0 * sgk * sgl * k_dot_l / (
                            kmod * lmod
                        )
                        nq2["m"].append(
                            _flat_index(lattice, m) if _in_box(lattice, m) else -1
                        )
                        nq2["k"].append(_flat_index(lattice, k))
                        nq2["l"].append(_flat_index(lattice, l))
                        nq2["alpha"].append(alpha)
                        nq2["beta"].append(beta)
                        nq2["gamma"].append(gamma)
                        nq2["div"].append(div)
                        nq2["base"].append(base)
                        nq2["smod"].append(sgm * mmod)
                        nq2["mn"].append(m)
                        nq2["kn"].append(k)
                        nq2["ln"].append(l)

    ball_with_zero = ball + [(0,) * d]
    for k in ball:
        for l in ball_with_zero:
            m = tuple(ki + li for ki, li in zip(k, l))
            if not any(m):
                continue
            record_q1(m, k, l)
            if any(l):
                record_q2(m, k, l)

    int_arrays = {"m", "k", "l", "mn", "kn", "ln"}
    small_ints = {"alpha", "beta", "gamma"}

    def as_arrays(entries):
        out = {}
        for key, values in entries.items():
            dtype = np.int64 if key in int_arrays else np.int8 if key in small_ints else None
            out[key] = np.array(values, dtype=dtype)
        return out

    return NonResonantTriads(lattice, float(M), as_arrays(nq1), as_arrays(nq2))


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
    # scaled norms D*|k|^2 up to 2.5e11 on the box's second axis
    "16x16-1e-5": LatticeSpec((1, Fraction(1, 10**5)), (16, 16)),
}


def assert_q2_collinear(lattice, table):
    """Every equal-branch q2 triple is collinear: all 2x2 minors of (k, l) vanish."""
    idx = np.stack([g.reshape(-1) for g in lattice.index_grids()], axis=1)
    k, l = idx[table.q2_k[1]], idx[table.q2_l[1]]
    for i in range(lattice.d):
        for j in range(i + 1, lattice.d):
            assert np.all(k[:, i] * l[:, j] == k[:, j] * l[:, i])


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
    assert_q2_collinear(lattice, table)


# sha256 of the little-endian bytes of q1_m, q1_k, q1_l, q1_ss, q2_m[1],
# q2_k[1] and q2_l[1], in that order, with the q1 and q2 entry counts;
# recorded from the exact three-root search over every (k, l) box pair
FULL_SIZE_TABLES = {
    "64x64": (
        LatticeSpec.square(2, 64),
        10824,
        9096,
        "7baefa746c13871c527f92922c3045ffc27b0b1184c9ebe6f6214a5f96b66c06",
    ),
    "128x128": (
        LatticeSpec.square(2, 128),
        49496,
        44616,
        "9ea5fb7ec70b74d72185db30542ed298db234d2627f62f371621be0afd4b7375",
    ),
    "16x16x12-sweep3d": (
        LatticeSpec((1, Fraction(1, 2), Fraction(2, 3)), (16, 16, 12)),
        2784,
        522,
        "25e28d6ab1d8f572471f0bf47d4786c67a9de164b54e7cb219fb7757c7455c20",
    ),
    "48x40-aniso": (
        LatticeSpec((1, Fraction(3, 2)), (48, 40)),
        2162,
        3306,
        "54140f6cadeb6d46bc82e25df6900b7223dddebe5385139f688438fce02195a8",
    ),
}


@pytest.mark.parametrize("name", list(FULL_SIZE_TABLES))
def test_limit_tables_pinned_at_full_size(name):
    lattice, q1_entries, q2_entries, digest = FULL_SIZE_TABLES[name]
    table = build_limit_tables(lattice)
    arrays = (table.q1_m, table.q1_k, table.q1_l, table.q1_ss)
    arrays += (table.q2_m[1], table.q2_k[1], table.q2_l[1])
    sha = hashlib.sha256()
    for arr in arrays:
        sha.update(arr.astype(arr.dtype.newbyteorder("<")).tobytes())
    assert (table.q1_m.size, table.q2_m[1].size) == (q1_entries, q2_entries)
    assert sha.hexdigest() == digest


def test_scaled_norms_beyond_int64_rejected():
    # D = 1 and D*|k|^2 = 2.5e21 at the box's edge on the second axis
    wide = LatticeSpec((1, Fraction(1, 10**10)), (16, 16))
    with pytest.raises(ValueError, match=r"periods \(1, 1/10000000000\) exceed the int64"):
        build_limit_tables(wide)
    # its unit ball lies on the first axis, where D*|k|^2 is small: the pairs
    # (k, k) with k = (1, 0) and (-1, 0) resonate on their equal branches
    assert resonant_branches(enumerate_resonance_sets(wide, 1.0).q2, 8) == 4
    # D = (1e10 + 1)^2 already leaves int64 on the unit ball
    near = LatticeSpec((1, Fraction(10**10 + 1, 10**10)), (16, 16))
    with pytest.raises(ValueError, match=r"periods \(1, 10000000001/10000000000\) exceed"):
        enumerate_resonance_sets(near, 1.0)
    with pytest.raises(ValueError, match="exceed the int64 range"):
        build_limit_tables(near)


def assert_resonance_sets_match(triads, ref):
    """Enumerated triads equal the per-pair oracle: indices, branches and
    divisors exactly (value and dtype), brackets and bases within 4 ulp."""
    ulps = 4 * np.finfo(float).eps
    assert (triads.lattice, triads.M) == (ref.lattice, ref.M)
    for got, want in ((triads.q1, ref.q1), (triads.q2, ref.q2)):
        assert set(got) == set(want)
        for key in want:
            if key in ("bracket", "base"):
                np.testing.assert_allclose(got[key], want[key], rtol=ulps, atol=ulps)
            else:
                assert got[key].dtype == want[key].dtype and got[key].size == want[key].size
                assert np.array_equal(got[key], want[key].reshape(got[key].shape))


def resonant_branches(entries, branches):
    """Branch combinations left out of ``entries`` as resonant.  Each (k, l)
    pair has ``branches`` combinations and at most two resonate, so every
    pair is listed."""
    pairs = np.unique(np.concatenate([entries["kn"], entries["ln"]], axis=1), axis=0)
    return branches * len(pairs) - entries["m"].size


def assert_q2_resonances_collinear(triads):
    """The q2 branches left out are exactly the equal-branch ones of the
    collinear pairs: those whose 2x2 minors of (k, l) all vanish."""
    q2 = triads.q2
    k, l = q2["kn"], q2["ln"]
    parallel = np.ones(len(k), dtype=bool)
    for i, j in itertools.combinations(range(triads.lattice.d), 2):
        parallel &= k[:, i] * l[:, j] == k[:, j] * l[:, i]
    equal = (q2["alpha"] == q2["gamma"]) & (q2["beta"] == q2["gamma"])
    assert not np.any(parallel & equal)
    _, first = np.unique(np.concatenate([k, l], axis=1), axis=0, return_index=True)
    assert resonant_branches(q2, 8) == 2 * np.count_nonzero(parallel[first])


# (lattice, cutoff, whether some m = k + l leaves the dealiased box)
ORACLE_CUTOFFS = [
    ("16x16", 2.0, False),
    ("16x16", 3.0, True),
    ("16x16", 4.0, True),
    ("16x12-aniso", 1.0, False),
    ("16x12-aniso", 3.0, True),
    ("8x8x8", 1.0, False),
    ("8x8x8", 2.0, True),
    ("8x8x6-aniso", 1.0, False),
    ("8x8x6-aniso", 2.0, True),
    ("16x16-1e-5", 3.0, True),
]


@pytest.mark.parametrize(
    "name, M, leaves_box", ORACLE_CUTOFFS, ids=[f"{n}-M{M:g}" for n, M, _ in ORACLE_CUTOFFS]
)
def test_resonance_sets_match_per_pair_oracle(name, M, leaves_box, monkeypatch):
    lattice = ORACLE_LATTICES[name]
    triads = enumerate_resonance_sets(lattice, M)
    ref = reference_resonance_sets(lattice, M)
    assert_resonance_sets_match(triads, ref)
    assert resonant_branches(triads.q2, 8) > 0
    assert bool(np.any(triads.q2["m"] == -1)) == leaves_box
    # the small-divisor report, argmin ties included, is the oracle's
    report = small_divisors(lattice, M).to_json()
    monkeypatch.setattr(resonance, "enumerate_resonance_sets", lambda lat, cutoff: ref)
    assert small_divisors(lattice, M).to_json() == report


# sha256 of the little-endian bytes of every array of the q1 and then the q2
# triads, keys sorted, and of the small-divisor report's JSON (keys sorted),
# with the q1 and q2 entry counts; recorded before the resonant arrays left
# the enumeration
FULL_SIZE_TRIADS = {
    "64x64-M6": (
        LatticeSpec.square(2, 64),
        6.0,
        49224,
        98496,
        "921ff095eb3449c45ca60ffb829d2dece568f813d8b6bf0def31ed4ad162c0f3",
        "5298b1e24da6c86d20feb31cf82717e6550498a5d8e79ae09f897f701fa0f198",
    ),
    "16x16x12-sweep3d-M2": (
        LatticeSpec((1, Fraction(1, 2), Fraction(2, 3)), (16, 16, 12)),
        2.0,
        540,
        1016,
        "04101f07a7bc534f1d2358d8c2856fe5e9596aa14b8681912f3721a7f028cd53",
        "b20e730954359a517c50c8e84cb031e9805bbb282de4099a8e9c6408a1fe6ac0",
    ),
    "48x40-aniso-M5": (
        LatticeSpec((1, Fraction(3, 2)), (48, 40)),
        5.0,
        53268,
        105640,
        "f5a5c28d121ea9f461ac81d9b9dae6f378af88e637946af59e400c15cebac4e9",
        "586390e09fce0f90d728921e6e2e6ac8d825c6968744a70fd27cf08a6907533f",
    ),
}


@pytest.mark.parametrize("name", list(FULL_SIZE_TRIADS))
def test_enumeration_pinned_at_full_size(name):
    lattice, M, q1_entries, q2_entries, digest, report_digest = FULL_SIZE_TRIADS[name]
    triads = enumerate_resonance_sets(lattice, M)
    sha = hashlib.sha256()
    for entries in (triads.q1, triads.q2):
        for key in sorted(entries):
            arr = entries[key]
            sha.update(arr.astype(arr.dtype.newbyteorder("<")).tobytes())
    report = json.dumps(small_divisors(lattice, M).to_json(), sort_keys=True)
    assert (triads.q1["m"].size, triads.q2["m"].size) == (q1_entries, q2_entries)
    assert sha.hexdigest() == digest
    assert hashlib.sha256(report.encode()).hexdigest() == report_digest


@st.composite
def lattice_and_cutoff(draw):
    """A rational-period lattice (d = 2, 3) and a cutoff at one of its shells.

    The cutoff keeps every axis's index range and at most 20 ball modes, so
    the per-pair oracle stays fast.
    """
    d = draw(st.sampled_from([2, 3]))
    periods = tuple(
        Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 3))) for _ in range(d)
    )
    resolution = tuple(draw(st.sampled_from([6, 8, 10, 12])) for _ in range(d))
    lattice = LatticeSpec(periods, resolution)
    modes = np.stack([g.reshape(-1) for g in lattice.index_grids()], axis=1)
    norms = resonance._mode_data(lattice, modes)[0]
    cutoffs = []
    for shell in np.unique(norms)[1:]:
        M = math.sqrt(shell / lattice.norm_scale())
        reach = [math.floor(M * float(b) + 1e-9) for b in periods]
        if any(r > n // 2 - 1 for r, n in zip(reach, resolution)):
            break
        if np.count_nonzero((norms > 0) & (norms <= shell)) > 20:
            break
        cutoffs.append(M)
    assume(cutoffs)
    return lattice, draw(st.sampled_from(cutoffs))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(lattice_and_cutoff())
def test_resonance_sets_property(case):
    lattice, M = case
    triads = enumerate_resonance_sets(lattice, M)
    assert_resonance_sets_match(triads, reference_resonance_sets(lattice, M))
    for entries in (triads.q1, triads.q2):
        assert np.all(entries["div"] != 0)
    assert_q2_resonances_collinear(triads)


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
        A = acoustic_from_modes(
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

    @pytest.mark.parametrize("name", ["16x16", "8x8x6-aniso", "16x12-aniso"])
    def test_forms_are_energy_neutral(self, name):
        """Re<V, Q1(v, V)> and Re<V, Q2(V, V)> vanish on real data, whose
        branches are Hermitian, so the forms leave ||V||^2 to the heat factor.
        Q2 is not neutral on arbitrary complex V.  A form's sign, weight or
        branch does not change its neutrality, but a slipped index does."""
        lattice = ORACLE_LATTICES[name]
        table = build_limit_tables(lattice)
        v, V = limit_initial_data(*generate_initial_data(lattice, 1.0, 1.0, seed=0))
        for form in (limit_q1(v, V, table), limit_q2(V, V, table, kappa=1.0)):
            assert form.l2_norm() > 1e-3  # 1.4e-2 to 5.9e-2 on these data
            work = float(np.vdot(V.coeffs, form.coeffs).real)
            assert abs(work) <= 1e-13 * V.l2_norm() * form.l2_norm()

    def test_forms_fill_the_work_arrays(self):
        """With a stepper's work arrays, reused across inputs, the forms give
        the bytes of a call without them and allocate less than the work
        arrays besides their output: no gather or product of the entries."""
        lattice = LatticeSpec.square(2, 32)
        table = build_limit_tables(lattice)
        q1_work, q2_work = table.work_arrays()
        rng = np.random.default_rng(8)
        calls = {}
        for _ in range(2):
            u, B = random_divfree(lattice, rng), random_acoustic(lattice, rng)
            calls = {
                "q1": (lambda work: limit_q1(u, B, table, work=work), q1_work),
                "q2": (lambda work: limit_q2(B, B, table, kappa=1.0, work=work), q2_work),
            }
            for form, work in calls.values():
                assert form(work).coeffs.tobytes() == form(None).coeffs.tobytes()
        out_bytes = AcousticCoeffs.zeros(lattice).coeffs.nbytes
        for name, (form, work) in calls.items():
            tracemalloc.start()
            try:
                form(work)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < out_bytes + work.nbytes, name


class TestAcousticLayout:
    """Acoustic coefficients are a two-component spectral field: component 0
    holds the branch alpha = +1, component 1 the branch alpha = -1."""

    def test_forms_return_two_component_fields(self, lat8):
        rng = np.random.default_rng(6)
        table = build_limit_tables(lat8)
        u = random_divfree(lat8, rng)
        B = random_acoustic(lat8, rng)
        outs = {
            "acoustic_transform": B,
            "wave_group": wave_group(B, 0.3),
            "limit_q1": limit_q1(u, B, table),
            "limit_q2": limit_q2(B, B, table, kappa=1.0),
        }
        outs["sum"] = outs["limit_q1"] + outs["limit_q2"]
        outs["difference"] = outs["wave_group"] - B
        outs["scaled"] = -1.0 * outs["limit_q1"]
        for name, out in outs.items():
            assert isinstance(out, SpectralField), name
            assert isinstance(out, AcousticCoeffs), name
            assert out.components == 2, name
            assert out.coeffs.shape == (2,) + lat8.resolution, name
            assert np.shares_memory(out.plus, out.coeffs[0]), name
            assert np.shares_memory(out.minus, out.coeffs[1]), name
        total = outs["limit_q1"].coeffs + outs["limit_q2"].coeffs
        assert np.array_equal(outs["sum"].coeffs, total)

    def test_branch_components_and_mask(self, lat8):
        V = acoustic_from_modes(lat8, {((1, 0), 1): 2.0, ((1, 0), -1): 3.0j})
        assert V.coeffs[0, 1, 0] == 2.0 and V.coeffs[1, 1, 0] == 3.0j
        assert np.shares_memory(V.branch(1), V.coeffs[0])
        assert V.branch(-1)[1, 0] == 3.0j
        ones = np.ones(lat8.resolution)
        W = AcousticCoeffs(lat8, ones, 2.0 * ones)
        assert np.all(W.coeffs[:, 0, 0] == 0.0)
        assert np.count_nonzero(W.coeffs) == 2 * (np.count_nonzero(lat8.dealias_mask()) - 1)
        assert W.mode_power()[1, 0] == 5.0

    def test_sup_norms_reject_acoustic_coefficients(self, lat8):
        B = random_acoustic(lat8, np.random.default_rng(7))
        plain = SpectralField(lat8, B.coeffs)
        with pytest.raises(TypeError, match="plain spectral field"):
            norm(B, "B:s=0:p=inf:r=1")
        assert norm(plain, "B:s=0:p=inf:r=1") > 0.0
        assert norm(B, "B:s=1:p=2:r=1") == norm(plain, "B:s=1:p=2:r=1")


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
        triads = enumerate_resonance_sets(lat, 2.0)
        assert np.all(np.abs(triads.q1["div"]) > 0)
        assert np.all(np.abs(triads.q2["div"]) > 0)

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

    def identity_terms(self, table, V0, v0, f0, lam0, derived):
        """Corrector total, remainder and identity residual of the decaying
        path (V0, v0, f0, lam0)*exp(-t) at t0 = 0.37 (M = 2, eps = 1).  With
        ``derived`` the advected-flow coefficients come from v and their
        time derivative from the product rule; lam0 is then unused."""
        M, eps, t0, h = 2.0, 1.0, 0.37, 1e-4
        kw = dict(kappa=1.0, nu=0.15, table=table)

        def args(t):
            decay = math.exp(-t)
            lam = {} if derived else {"lam_ac": decay * lam0}
            return (decay * V0, decay * v0, decay * f0, M, t, eps), {**kw, **lam}

        def corrector_total(t):
            a, k = args(t)
            return assemble_correctors(*a, **k)[0].total()

        fd = (1.0 / (2 * h)) * (corrector_total(t0 + h) - corrector_total(t0 - h))
        a, k = args(t0)
        decay = math.exp(-t0)
        dlam = None if derived else -decay * lam0
        base, deriv = assemble_correctors(
            *a, **k, time_derivatives=(-decay * V0, -decay * v0, -decay * f0, dlam)
        )
        rem = remainder_fields(*a, **k)
        return base.total(), rem, (eps * fd - rem - eps * deriv.total()).l2_norm()

    def test_identity_with_derived_lambda(self):
        # Lambda derived from v, and its time derivative by the product rule
        lat = LatticeSpec.square(2, 16)
        rng = np.random.default_rng(29)
        table = enumerate_resonance_sets(lat, 2.0)
        V0, v0, f0, _ = self.manufactured(lat, rng, 2.0)
        _, rem, residual = self.identity_terms(table, V0, v0, f0, None, derived=True)
        assert rem.l2_norm() > 1e-3
        assert residual <= 1e-8

    def test_larger_cutoff_table_reads_the_same_triads(self):
        # full-band data: a table enumerated beyond M must add no triad with
        # |k| or |l| > M to either the corrector or the remainder
        lat = LatticeSpec.square(2, 16)
        rng = np.random.default_rng(5)
        V0 = random_acoustic(lat, rng, scale=0.01)
        v0 = random_divfree(lat, rng, scale=0.01)
        f0 = random_acoustic(lat, rng, scale=0.01)
        lam0 = random_acoustic(lat, rng, scale=0.01)
        total2, rem2, _ = self.identity_terms(
            enumerate_resonance_sets(lat, 2.0), V0, v0, f0, lam0, derived=False
        )
        total3, rem3, residual3 = self.identity_terms(
            enumerate_resonance_sets(lat, 3.0), V0, v0, f0, lam0, derived=False
        )
        assert (total3 - total2).l2_norm() <= 1e-12 * total2.l2_norm()
        assert (rem3 - rem2).l2_norm() <= 1e-12 * rem2.l2_norm()
        assert residual3 <= 1e-8

    def test_table_below_the_cutoff_or_on_another_lattice_rejected(self):
        lat = LatticeSpec.square(2, 16)
        rng = np.random.default_rng(5)
        V0, v0, f0, lam0 = self.manufactured(lat, rng, 2.0)
        args = (V0, v0, f0, 2.0, 0.37, 1.0)
        low = enumerate_resonance_sets(lat, 1.0)
        other = enumerate_resonance_sets(LatticeSpec.square(2, 32), 2.0)
        below = r"cutoff M = 1, below the corrector cutoff M = 2"
        lattices = r"'resolution': \[32, 32\].*'resolution': \[16, 16\]"
        for form in (remainder_fields, assemble_correctors):
            with pytest.raises(ValueError, match=below):
                form(*args, table=low, lam_ac=lam0)
            with pytest.raises(ValueError, match=lattices):
                form(*args, table=other, lam_ac=lam0)


class TestLowFreqSplit:
    def test_exact_reconstruction(self, lat8):
        rng = np.random.default_rng(6)
        u = random_divfree(lat8, rng)
        A = random_acoustic(lat8, rng)
        B = random_acoustic(lat8, rng)
        t, eps = 0.3, 0.1
        full = q1_eps_modesum(u, B, t, eps)
        low = q1_eps_modesum(u, B, t, eps, band=("low", 1.5))
        high = q1_eps_modesum(u, B, t, eps, band=("high", 1.5))
        scale = max(1.0, full.l2_norm())
        assert ((low + high) - full).l2_norm() <= 1e-12 * scale
        full2 = q2_eps_modesum(A, B, t, eps, kappa=1.0)
        low2 = q2_eps_modesum(A, B, t, eps, kappa=1.0, band=("low", 1.5))
        high2 = q2_eps_modesum(A, B, t, eps, kappa=1.0, band=("high", 1.5))
        assert ((low2 + high2) - full2).l2_norm() <= 1e-12 * scale

    def test_band_edges(self, lat8):
        rng = np.random.default_rng(7)
        u = random_divfree(lat8, rng)
        B = random_acoustic(lat8, rng)
        t, eps = 0.2, 0.1
        # M at the lattice maximum: nothing in the high part
        M = lat8.max_modulus()
        high = q1_eps_modesum(u, B, t, eps, band=("high", M))
        assert high.l2_norm() == 0.0
        # M = 0: no nonzero k survives the low filter
        low = q1_eps_modesum(u, B, t, eps, band=("low", 0.0))
        assert low.l2_norm() == 0.0
