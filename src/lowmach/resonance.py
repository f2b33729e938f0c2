"""Exact resonance classification, limit forms, small divisors, correctors.

On lattices whose squared periods are rational, every frequency modulus is
``sqrt(N/D)`` with integers N and a common denominator D, so conditions like
``sg(k)|k| + sg(l)|l| = sg(m)|m|`` reduce to signed comparisons of integer
square roots and are decided exactly:

    sqrt(a) + sqrt(b) = sqrt(c)   iff   c >= a + b and (c - a - b)^2 = 4ab.

The resonant triples drive the averaged (limit) quadratic forms; the
non-resonant ones carry the small divisors and build the two-time-scale
correctors.  Tables are enumerated once per (lattice, cutoff).  Each term of
the low-band remainder oscillates as exp(i omega t/eps), and its corrector is
the same term divided by i omega; both sum over one triad list, m in the box
and |k|, |l| <= M, whatever cutoff the table was enumerated at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import LatticeSpec, SpectralField
from .operators import (
    AcousticCoeffs,
    _signed_modulus,
    acoustic_transform,
    advect,
    helmholtz_project,
)

__all__ = [
    "ResonanceResult",
    "resonance_test",
    "ResonanceTable",
    "enumerate_resonance_sets",
    "build_limit_tables",
    "limit_q1",
    "limit_q2",
    "SmallDivisorReport",
    "small_divisors",
    "CorrectorSet",
    "assemble_correctors",
    "remainder_fields",
    "low_freq_split",
]


# ---------------------------------------------------------------------------
# Exact signed square-root arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResonanceResult:
    resonant: bool
    divisor: float  # |sum of signed roots|; 0.0 when resonant


def _sqrt_sum_is_zero(terms) -> bool:
    """Exact test of sum_i sigma_i * sqrt(n_i) == 0 for up to three terms.

    A term with n = 0 may carry any sign (sg is 0 at the mean mode); every
    other term needs sigma in {1, -1} and n > 0.  Fewer terms are padded with
    zero ones.  The test runs on plain integers: with one sign against two,
    sqrt(a) + sqrt(b) = sqrt(c) exactly when c >= a + b and
    (c - a - b)^2 = 4ab.
    """
    if len(terms) != 3:
        if len(terms) > 3:
            raise ValueError("at most three signed roots are supported")
        terms = (*terms, (1, 0), (1, 0), (1, 0))[:3]
    (s1, n1), (s2, n2), (s3, n3) = terms
    n1, n2, n3 = int(n1), int(n2), int(n3)
    # a zero term counts with either sign; give it +1
    s1, s2, s3 = (s1 if n1 else 1), (s2 if n2 else 1), (s3 if n3 else 1)
    if n1 < 0 or n2 < 0 or n3 < 0 or not (s1 in (1, -1) and s2 in (1, -1) and s3 in (1, -1)):
        raise ValueError("terms must be (sign, nonnegative integer)")
    if s1 == s2 == s3:
        return not (n1 or n2 or n3)
    if s1 == s2:
        a, b, c = n1, n2, n3
    elif s1 == s3:
        a, b, c = n1, n3, n2
    else:
        a, b, c = n2, n3, n1
    diff = c - a - b
    return diff >= 0 and diff * diff == 4 * a * b


def resonance_test(signed_freqs) -> ResonanceResult:
    """Classify a signed-root combination, e.g. [(1, 1), (1, 1), (-1, 4)].

    Each entry is (sigma, n) standing for sigma*sqrt(n); the test decides
    exactly whether the combination sums to zero.  Non-resonant combinations
    report |sum| as the divisor (in floating point).
    """
    if _sqrt_sum_is_zero(signed_freqs):
        return ResonanceResult(True, 0.0)
    value = 0.0
    for s, n in signed_freqs:
        value += s * math.sqrt(n)
    return ResonanceResult(False, abs(value))


def _vec_three_term_zero(s1, n1, s2, n2, s3, n3) -> np.ndarray:
    """Vectorized exact test of s1*sqrt(n1) + s2*sqrt(n2) + s3*sqrt(n3) == 0.

    All n arrays must be positive integers small enough that (c-a-b)^2 fits
    in int64 (guarded by the callers).
    """
    pair_a = (s1 == s2) & (s1 != s3)
    pair_b = (s1 == s3) & (s1 != s2)
    pair_c = (s2 == s3) & (s1 != s2)
    a = np.where(pair_a, n1, np.where(pair_b, n1, n2))
    b = np.where(pair_a, n2, np.where(pair_b, n3, n3))
    c = np.where(pair_a, n3, np.where(pair_b, n2, n1))
    diff = c - a - b
    return (pair_a | pair_b | pair_c) & (diff >= 0) & (diff * diff == 4 * a * b)


# ---------------------------------------------------------------------------
# Mode bookkeeping
# ---------------------------------------------------------------------------


def _mode_data(lattice: LatticeSpec, n: np.ndarray):
    """Per-mode data of integer index vectors ``n`` of shape (N, d).

    Returns the scaled norms D*|k|^2, the generalized signs sg(k) (0 at k = 0),
    the wavevectors, the moduli, the dealiased-box flags and the flat FFT-grid
    indices of ``n`` modulo the resolution.  Everything is computed from ``n``
    itself, so modes off the FFT grid (such as m = k + l) are handled too.
    """
    scale = lattice.norm_scale()
    cols = n.T  # per-component loops: reductions over the short last axis are slow
    norms = sum(
        (scale * (b * b).denominator // (b * b).numerator) * col * col
        for col, b in zip(cols, lattice.periods)
    )
    sgs = np.zeros(len(n), dtype=np.int64)
    for col in cols[::-1]:  # the first nonzero component decides
        sgs = np.where(col != 0, np.sign(col), sgs)
    kvecs = n / np.array([float(b) for b in lattice.periods])
    mods = np.sqrt(sum(kvecs[:, c] * kvecs[:, c] for c in range(lattice.d)))
    inbox = np.ones(len(n), dtype=bool)
    for col, cut in zip(cols, lattice.cutoffs):
        inbox &= np.abs(col) <= cut
    return norms, sgs, kvecs, mods, inbox, _grid_index(lattice, n)


def _grid_index(lattice: LatticeSpec, n: np.ndarray) -> np.ndarray:
    """Flat FFT-grid indices of integer vectors n (N, d), taken modulo the grid."""
    res = lattice.resolution
    return np.ravel_multi_index(tuple(col % r for col, r in zip(n.T, res)), res)


# ---------------------------------------------------------------------------
# Resonance tables
# ---------------------------------------------------------------------------


@dataclass
class ResonanceTable:
    """Classified interaction triples up to a cutoff.

    Resonant entries feed the limit forms; non-resonant entries (when kept)
    carry divisors, brackets, and oscillation rates for the correctors.  All
    index arrays are flat indices into the lattice's FFT grid; entries whose
    output mode m falls outside the dealiased box are kept only in the
    divisor statistics, not in the field-building arrays.
    """

    lattice: LatticeSpec
    M: float
    # q1 resonant: |k| = |m|, alpha = gamma*sg(m)*sg(k); l = m - k may be 0
    q1_m: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    q1_k: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    q1_l: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    q1_ss: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int8))
    q1_weight: np.ndarray = field(default_factory=lambda: np.zeros(0))
    q1_kvec: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    # q2 resonant, keyed by output branch gamma; the limit table holds one
    # equal-branch set, so its 1 and -1 keys share the same arrays
    q2_m: dict = field(default_factory=dict)
    q2_k: dict = field(default_factory=dict)
    q2_l: dict = field(default_factory=dict)
    q2_smod: dict = field(default_factory=dict)
    # non-resonant (corrector) entries, optional
    nonres_q1: dict | None = None
    nonres_q2: dict | None = None

    def counts(self) -> dict:
        # both gamma keys of q2_m hold the same equal-branch triples
        out = {
            "q1_resonant": int(self.q1_m.size),
            "q2_resonant": int(self.q2_m[1].size) if self.q2_m else 0,
        }
        if self.nonres_q1 is not None:
            out["q1_nonresonant"] = int(self.nonres_q1["m"].size)
        if self.nonres_q2 is not None:
            out["q2_nonresonant"] = int(self.nonres_q2["m"].size)
        return out

    @cached_property
    def q1_gather(self) -> np.ndarray:
        """Flat indices of the B_k^alpha that :func:`limit_q1` reads, one row
        per output branch gamma = 1, -1 (alpha = gamma*sg(m)*sg(k))."""
        size = int(np.prod(self.lattice.resolution))
        return np.stack(
            [np.where(gamma * self.q1_ss == 1, 0, size) + self.q1_k for gamma in (1, -1)]
        )


def _guard_int64(max_scaled_norm: int):
    if (3 * max_scaled_norm) ** 2 > 2**62:
        raise ValueError(
            "scaled norms too large for vectorized exact tests; "
            "use smaller periods denominators or resolution"
        )


# Candidate (k, l) pairs examined per array pass of the q2 search.
_Q2_BLOCK_PAIRS = 1 << 16


def build_limit_tables(lattice: LatticeSpec) -> ResonanceTable:
    """Resonant triples over the full dealiased box (for the limit solver).

    Modes are the nonzero box modes in FFT-grid order.  q1 lists every ordered
    pair of a same-modulus shell (shells in order of first appearance, modes
    ascending within a shell) whose difference lies in the box.  q2 lists, for
    k and then l ascending, every pair with m = k + l a nonzero box mode that
    passes the exact three-root test; each pass tests a block of k at once.
    """
    flat = np.flatnonzero(lattice.dealias_mask())
    flat = flat[flat != 0]  # the mean mode sits at flat index 0
    nvecs = np.stack([g.reshape(-1)[flat] for g in lattice.index_grids()], axis=1)
    norms, sgs, kvecs, mods, _, _ = _mode_data(lattice, nvecs)
    nmodes = flat.size
    cut = np.array(lattice.cutoffs)
    _guard_int64(int(np.max(norms)) * 4)

    # --- q1: ordered pairs within each same-modulus shell ----------------
    _, first, shell = np.unique(norms, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))[shell]
    order = np.argsort(rank, kind="stable")
    counts = np.bincount(rank)
    size = counts[rank[order]]
    start = (np.cumsum(counts) - counts)[rank[order]]
    im = np.repeat(order, size)
    offset = np.arange(im.size) - np.repeat(np.cumsum(size) - size, size)
    ik = order[np.repeat(start, size) + offset]
    l = nvecs[im] - nvecs[ik]
    keep = np.all(np.abs(l) <= cut, axis=1)
    im, ik, l = im[keep], ik[keep], l[keep]

    # --- q2: exact three-root condition over blocks of (k, l) ------------
    # With equal branches alpha = beta = gamma the oscillation exponent is
    # gamma*(sg(k)|k| + sg(l)|l| - sg(m)|m|), so the resonant pair set is the
    # same for both output branches.
    flat_of = np.full(int(np.prod(lattice.resolution)), -1, dtype=np.int64)
    flat_of[flat] = np.arange(nmodes)
    step = max(1, _Q2_BLOCK_PAIRS // nmodes)
    hits = []
    for k0 in range(0, nmodes, step):
        mvec = nvecs[k0 : k0 + step, None, :] + nvecs[None, :, :]
        # per-component tests: reductions over the short last axis are slow
        inbox = np.ones(mvec.shape[:2], dtype=bool)
        nonzero = np.zeros(mvec.shape[:2], dtype=bool)
        for c in range(lattice.d):
            inbox &= np.abs(mvec[..., c]) <= cut[c]
            nonzero |= mvec[..., c] != 0
        bk, bl = np.nonzero(inbox & nonzero)
        bm = flat_of[_grid_index(lattice, mvec[bk, bl])]
        bk += k0
        hit = _vec_three_term_zero(
            sgs[bk], norms[bk], sgs[bl], norms[bl], -sgs[bm], norms[bm]
        )
        hits.append((bm[hit], bk[hit], bl[hit]))
    q2m, q2k, q2l = (np.concatenate(h) for h in zip(*hits))
    q2_m, q2_k, q2_l = flat[q2m], flat[q2k], flat[q2l]
    q2_smod = sgs[q2m] * mods[q2m]

    return ResonanceTable(
        lattice=lattice,
        M=float(lattice.max_modulus()),
        q1_m=flat[im],
        q1_k=flat[ik],
        q1_l=_grid_index(lattice, l),
        q1_ss=(sgs[im] * sgs[ik]).astype(np.int8),
        q1_weight=np.sum(kvecs[ik] * kvecs[im], axis=1) / (mods[ik] * mods[im]),
        q1_kvec=kvecs[ik],
        q2_m={1: q2_m, -1: q2_m},
        q2_k={1: q2_k, -1: q2_k},
        q2_l={1: q2_l, -1: q2_l},
        q2_smod={1: q2_smod, -1: q2_smod},
    )


# enumerate_resonance_sets holds every (k, l) pair times its branch columns at
# once: about 2 kB per pair at its peak (64^2, M = 6, 10 and 14).  Cutoffs
# whose pairs would need more than the limit below are rejected up front.
_BYTES_PER_PAIR = 2048
_MAX_ENUMERATION_BYTES = 1 << 30

# (gamma, alpha) and (gamma, alpha, beta) branch combinations, in entry order
_Q1_BRANCHES = np.array([(g, a) for g in (1, -1) for a in (1, -1)], dtype=np.int8).T
_Q2_BRANCHES = np.array(
    [(g, a, b) for g in (1, -1) for a in (1, -1) for b in (1, -1)], dtype=np.int8
).T


def enumerate_resonance_sets(lattice: LatticeSpec, M: float) -> ResonanceTable:
    """Classify every triple with |k|, |l| <= M (paper-style modulus balls).

    Returns resonant entries (restricted to output modes representable on the
    dealiased box) plus the complete non-resonant complements with divisors,
    brackets, and oscillation rates for corrector assembly and small-divisor
    reports.  Pairs run over k in the ball and, for each k, over l in the ball
    and then l = 0 (ball modes in ascending index order), skipping m = k + l
    = 0; each pair lists its non-resonant branches with gamma, then alpha,
    then beta running over (1, -1).  A non-resonant m outside the box, and a
    q1 difference l outside the box, get the index -1.  A cutoff whose pairs
    would need more than ``_MAX_ENUMERATION_BYTES`` raises ValueError before
    anything large is allocated, and so does a cutoff that is not a finite
    number >= 0.
    """
    if not (math.isfinite(M) and M >= 0):
        raise ValueError(f"cutoff M = {M} must be a finite number >= 0")
    d = lattice.d
    reach = [math.floor(M * float(b) + 1e-9) for b in lattice.periods]
    for r, n in zip(reach, lattice.resolution):
        if r > n // 2 - 1:
            raise ValueError(
                f"cutoff M = {M} exceeds the index range of the {n}-point axis"
            )
    bound = math.floor(M * M * lattice.norm_scale() + 1e-9)
    _guard_int64(4 * bound)
    cube = np.indices([2 * r + 1 for r in reach]).reshape(d, -1).T - np.array(reach)
    ball = cube[(_mode_data(lattice, cube)[0] <= bound) & np.any(cube != 0, axis=1)]
    modes = np.concatenate([ball, np.zeros((1, d), dtype=np.int64)])
    pairs = len(ball) * len(modes)
    if pairs * _BYTES_PER_PAIR > _MAX_ENUMERATION_BYTES:
        raise ValueError(
            f"cutoff M = {M} gives {pairs:,} (k, l) pairs, which need about "
            f"{pairs * _BYTES_PER_PAIR / 2**30:.1f} GiB (limit "
            f"{_MAX_ENUMERATION_BYTES / 2**30:g} GiB); use a smaller cutoff"
        )
    norm, sgn, vec, mod, box, idx = _mode_data(lattice, modes)

    # every (k, l) pair, k-major, as indices into modes
    ik = np.repeat(np.arange(len(ball)), len(modes))
    il = np.tile(np.arange(len(modes)), len(ball))
    mvec = modes[ik] + modes[il]
    keep = np.any(mvec != 0, axis=1)
    ik, il, mvec = ik[keep], il[keep], mvec[keep]
    m_norm, m_sgn, m_vec, m_mod, m_box, m_idx = _mode_data(lattice, mvec)
    m_out = np.where(m_box, m_idx, -1)

    # --- q1: resonant iff |k| = |m| and alpha*sg(k) = gamma*sg(m) ---------
    same = norm[ik] == m_norm
    gamma, alpha = _Q1_BRANCHES
    p, c = np.nonzero(
        ~(same[:, None] & (alpha * sgn[ik][:, None] == gamma * m_sgn[:, None]))
    )
    k, l = ik[p], il[p]
    g, a = gamma[c], alpha[c]
    sk, sm = sgn[k], m_sgn[p]
    lm_dot_k = np.sum((vec[l] + m_vec[p]) * vec[k], axis=1)
    nonres_q1 = {
        "m": m_out[p],
        "k": idx[k],
        "l": np.where(box, idx, -1)[l],
        "alpha": a,
        "gamma": g,
        "div": a * sk * mod[k] - g * sm * m_mod[p],
        "bracket": 1.0 + a * g * sk * sm * lm_dot_k / (mod[k] * m_mod[p]),
        "mn": mvec[p],
        "kn": modes[k],
        "ln": modes[l],
    }
    # the resonant gamma = 1 branch of each same-modulus pair, m and l in the box
    p = np.flatnonzero(same & m_box & box[il])
    k, l = ik[p], il[p]
    q1 = dict(
        q1_m=m_idx[p],
        q1_k=idx[k],
        q1_l=idx[l],
        q1_ss=(m_sgn[p] * sgn[k]).astype(np.int8),
        q1_weight=np.sum(vec[k] * m_vec[p], axis=1) / (mod[k] * m_mod[p]),
        q1_kvec=vec[k],
    )

    # --- q2: the exact three-root test on every pair with l != 0 ---------
    two = np.flatnonzero(il < len(ball))
    gamma, alpha, beta = _Q2_BRANCHES
    k, l = ik[two], il[two]
    resonant = _vec_three_term_zero(
        alpha * sgn[k][:, None], norm[k][:, None],
        beta * sgn[l][:, None], norm[l][:, None],
        -gamma * m_sgn[two][:, None], m_norm[two][:, None],
    )
    # equal-branch triples for the limit form: branch 0 (alpha = beta = gamma
    # = 1) selects the same pairs as gamma = -1, with m, k and l in the box
    eq = two[resonant[:, 0] & m_box[two] & box[k] & box[l]]
    q2_m, q2_k, q2_l = m_idx[eq], idx[ik[eq]], idx[il[eq]]
    q2_smod = m_sgn[eq] * m_mod[eq]
    p, c = np.nonzero(~resonant)
    p = two[p]
    k, l = ik[p], il[p]
    g, a, b = gamma[c], alpha[c], beta[c]
    sk, sl, sm = sgn[k], sgn[l], m_sgn[p]
    l_dot_m = np.sum(vec[l] * m_vec[p], axis=1)
    k_dot_l = np.sum(vec[k] * vec[l], axis=1)
    nonres_q2 = {
        "m": m_out[p],
        "k": idx[k],
        "l": idx[l],
        "alpha": a,
        "beta": b,
        "gamma": g,
        "div": a * sk * mod[k] + b * sl * mod[l] - g * sm * m_mod[p],
        "base": b * sl * sm * l_dot_m / (mod[l] * m_mod[p])
        + a * b * g / 2.0 * sk * sl * k_dot_l / (mod[k] * mod[l]),
        "smod": sm * m_mod[p],
        "mn": mvec[p],
        "kn": modes[k],
        "ln": modes[l],
    }

    return ResonanceTable(
        lattice=lattice,
        M=float(M),
        **q1,
        q2_m={1: q2_m, -1: q2_m},
        q2_k={1: q2_k, -1: q2_k},
        q2_l={1: q2_l, -1: q2_l},
        q2_smod={1: q2_smod, -1: q2_smod},
        nonres_q1=nonres_q1,
        nonres_q2=nonres_q2,
    )


# ---------------------------------------------------------------------------
# Limit forms
# ---------------------------------------------------------------------------


def limit_q1(u: SpectralField, B: AcousticCoeffs, table: ResonanceTable) -> AcousticCoeffs:
    """Averaged advection form: resonant sum over same-modulus pairs.

    ``u`` is divergence-free (its mean mode participates through the l = 0
    entries, which average trivially).
    """
    lattice = table.lattice
    out = AcousticCoeffs.zeros(lattice)
    if table.q1_m.size == 0:
        return out
    prefactor = 1j / math.sqrt(lattice.volume)
    uflat = [u.coeffs[c].reshape(-1) for c in range(lattice.d)]
    k_dot_u = sum(
        table.q1_kvec[:, c] * uflat[c][table.q1_l] for c in range(lattice.d)
    )
    acc = out.coeffs.reshape(2, -1)
    b_flat = B.coeffs.reshape(-1)
    for row, gather in enumerate(table.q1_gather):
        contrib = prefactor * b_flat[gather] * k_dot_u * table.q1_weight
        np.add.at(acc[row], table.q1_m, contrib)
    return out


def limit_q2(
    A: AcousticCoeffs, B: AcousticCoeffs, table: ResonanceTable, kappa: float = 0.0
) -> AcousticCoeffs:
    """Averaged symmetric form: equal-branch collinear resonances only."""
    lattice = table.lattice
    out = AcousticCoeffs.zeros(lattice)
    c_d = 1.0 / math.sqrt(2.0 * lattice.volume)
    front = -1j * c_d * (kappa + 3.0) / 4.0
    a_rows, b_rows = A.coeffs.reshape(2, -1), B.coeffs.reshape(2, -1)
    acc = out.coeffs.reshape(2, -1)
    for row, gamma in enumerate((1, -1)):
        m_idx = table.q2_m[gamma]
        if m_idx.size == 0:
            continue
        a_flat, b_flat = a_rows[row], b_rows[row]
        sym = 0.5 * (
            a_flat[table.q2_k[gamma]] * b_flat[table.q2_l[gamma]]
            + b_flat[table.q2_k[gamma]] * a_flat[table.q2_l[gamma]]
        )
        contrib = front * gamma * table.q2_smod[gamma] * sym
        np.add.at(acc[row], m_idx, contrib)
    return out


# ---------------------------------------------------------------------------
# Small divisors
# ---------------------------------------------------------------------------


@dataclass
class SmallDivisorReport:
    M: float
    c1: float
    c2: float
    attaining_q1: dict
    attaining_q2: dict
    c_combined: float

    def to_json(self) -> dict:
        return {
            "M": self.M,
            "C1": self.c1,
            "C2": self.c2,
            "C_combined": self.c_combined,
            "attaining_q1": self.attaining_q1,
            "attaining_q2": self.attaining_q2,
        }


def small_divisors(lattice: LatticeSpec, M: float, theta: float = 0.25) -> SmallDivisorReport:
    """Reciprocal worst non-resonant frequency mismatches up to cutoff M.

    ``c_combined`` aggregates the truncation powers used by the corrector
    error budget: max{M, M^((d/2+S-2*theta+1)/2), M^(d/2+S-1),
    (C1+C2)*M^(2+2*theta)} with generic constant 1 and the forcing
    regularity S = 1.
    """
    table = enumerate_resonance_sets(lattice, M)
    nq1, nq2 = table.nonres_q1, table.nonres_q2

    def attaining(entries, names):
        i = int(np.argmin(np.abs(entries["div"])))
        info = {"divisor": float(abs(entries["div"][i]))}
        for name in names:
            info[name] = (
                int(entries[name][i])
                if entries[name].ndim == 1
                else [int(v) for v in entries[name][i]]
            )
        return info

    c1 = float(1.0 / np.min(np.abs(nq1["div"]))) if nq1["div"].size else 0.0
    c2 = float(1.0 / np.min(np.abs(nq2["div"]))) if nq2["div"].size else 0.0
    att1 = attaining(nq1, ("alpha", "gamma", "kn", "ln", "mn")) if nq1["div"].size else {}
    att2 = (
        attaining(nq2, ("alpha", "beta", "gamma", "kn", "ln", "mn"))
        if nq2["div"].size
        else {}
    )
    d = lattice.d
    s_forcing = 1.0
    c_comb = max(
        M,
        M ** ((d / 2.0 + s_forcing - 2 * theta + 1) / 2.0),
        M ** (d / 2.0 + s_forcing - 1.0),
        (c1 + c2) * M ** (2.0 + 2.0 * theta),
    )
    return SmallDivisorReport(
        M=float(M), c1=c1, c2=c2, attaining_q1=att1, attaining_q2=att2, c_combined=c_comb
    )


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
    return V.coeffs.reshape(2, -1)[np.where(alpha == 1, 0, 1), idx]


# Each term helper returns the term's values at time t, phase included, and
# the rate omega at which each value oscillates as exp(i omega t/eps).  The
# grid terms R1 and S return (2, *resolution) arrays in the branch layout of
# their output; the triad terms R2 and R3 return one value per table entry.


def _r1_term(fml: AcousticCoeffs, low: np.ndarray, t: float, eps: float):
    """R1: (f - Lambda)^alpha on the low band, at rate -alpha*sg(k)|k|."""
    rate = _signed_modulus(fml.lattice)
    omega = np.stack([-rate, rate])
    return fml.coeffs * np.exp(1j * (t / eps) * omega) * low, omega


def _s_term(V: AcousticCoeffs, low: np.ndarray, t: float, eps: float, nu: float):
    """S: nu/2 |k|^2 V^alpha on the low band, landing on branch -alpha at rate
    2*alpha*sg(k)|k|."""
    lattice = V.lattice
    rate = 2.0 * _signed_modulus(lattice)
    omega = np.stack([-rate, rate])
    phase = np.exp(1j * (t / eps) * omega)
    return 0.5 * nu * lattice.k_squared() * V.coeffs[::-1] * phase * low, omega


def _r2_term(q1: dict, V: AcousticCoeffs, v: SpectralField, t: float, eps: float):
    """R2 on the q1 triads: V_k^alpha advected by v_l, at rate div."""
    lattice = V.lattice
    k, l = q1["k"], q1["l"]
    k_dot_v = sum(
        kc.reshape(-1)[k] * vc.reshape(-1)[l] for kc, vc in zip(lattice.wavevectors(), v.coeffs)
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
        fields.append(AcousticCoeffs(lattice, *values))
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


def _remainder_terms(V, v, f_ac, M, t, eps, kappa, nu, table, lam_ac):
    """The low-band weights and the q1 and q2 triads with m in the box and
    |k|, |l| <= M (the table is enumerated when missing), and the terms
    (R1, R2, R3, S) of the remainder at time t."""
    lattice = V.lattice
    if table is None or table.nonres_q1 is None:
        table = enumerate_resonance_sets(lattice, M)
    kmod = lattice.k_modulus()
    low = (kmod <= M + 1e-12).astype(np.float64)
    q1, q2 = (_triads(e, kmod.reshape(-1), M) for e in (table.nonres_q1, table.nonres_q2))
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
    table: ResonanceTable | None = None,
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
    table: ResonanceTable | None = None,
    lam_ac: AcousticCoeffs | None = None,
) -> AcousticCoeffs:
    """Low-band oscillatory remainder R_M = (R1 + R2 + R3 + S)_M at time t."""
    (_, q1, q2), terms = _remainder_terms(V, v, f_ac, M, t, eps, kappa, nu, table, lam_ac)
    return _term_set(V.lattice, q1, q2, terms, corrector=False).total()


def low_freq_split(form, M: float, *args, **kwargs):
    """Split a mode-sum bilinear form into (low, high) frequency parts.

    ``form`` must accept a ``band`` keyword ("low"/"high" with cutoff M); the
    two parts reconstruct the unrestricted sum exactly (disjoint partition of
    the interaction indices).
    """
    low = form(*args, band=("low", M), **kwargs)
    high = form(*args, band=("high", M), **kwargs)
    return low, high
