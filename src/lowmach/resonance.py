"""Exact resonance classification, limit forms, small divisors, correctors.

On lattices whose squared periods are rational, every frequency modulus is
``sqrt(N/D)`` with integers N and a common denominator D, so conditions like
``sg(k)|k| + sg(l)|l| = sg(m)|m|`` reduce to signed comparisons of integer
square roots and are decided exactly:

    sqrt(a) + sqrt(b) = sqrt(c)   iff   c >= a + b and (c - a - b)^2 = 4ab.

The resonant triples drive the averaged (limit) quadratic forms; the
non-resonant ones carry the small divisors and build the two-time-scale
correctors.  Tables are enumerated once per (lattice, cutoff).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import LatticeSpec, SpectralField
from .operators import (
    AcousticCoeffs,
    _safe_k_modulus,
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

    def __bool__(self):
        return self.resonant


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


def small_divisors(
    lattice: LatticeSpec,
    M: float,
    theta: float = 0.25,
    forcing_regularity: float = 1.0,
) -> SmallDivisorReport:
    """Reciprocal worst non-resonant frequency mismatches up to cutoff M.

    ``c_combined`` aggregates the truncation powers used by the corrector
    error budget: max{M, M^((d/2+S-2*theta+1)/2), M^(d/2+S-1),
    (C1+C2)*M^(2+2*theta)} with generic constant 1.
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
    s_forcing = forcing_regularity
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


def _accumulate(lattice, m_idx, branch_sign, values):
    """Scatter complex values into the two branches by branch sign."""
    size = int(np.prod(lattice.resolution))
    acc = np.zeros(2 * size, dtype=np.complex128)
    np.add.at(acc, np.where(branch_sign == 1, m_idx, m_idx + size), values)
    return AcousticCoeffs(lattice, *acc.reshape((2,) + lattice.resolution))


def _branch_gather(V: AcousticCoeffs, idx: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    return V.coeffs.reshape(2, -1)[np.where(alpha == 1, 0, 1), idx]


def _band_weights(lattice: LatticeSpec, M: float) -> np.ndarray:
    return (lattice.k_modulus() <= M + 1e-12).astype(np.float64)


def _s_corrector(V: AcousticCoeffs, M: float, t: float, eps: float, nu: float, tilde: bool):
    """Viscous corrector (tilde=True) or its driving remainder S^eps (low band)."""
    lattice = V.lattice
    rate = _signed_modulus(lattice)
    low = _band_weights(lattice, M)
    osc_plus = np.exp(2j * (t / eps) * rate)  # branch alpha = +1 oscillation
    if tilde:
        amp_p = -0.25j * nu * rate * V.plus * osc_plus * low
        amp_m = -0.25j * nu * (-rate) * V.minus * np.conj(osc_plus) * low
    else:
        ksq = lattice.k_squared()
        amp_p = 0.5 * nu * ksq * V.plus * osc_plus * low
        amp_m = 0.5 * nu * ksq * V.minus * np.conj(osc_plus) * low
    # source branch alpha lands on branch -alpha
    return AcousticCoeffs(lattice, amp_m, amp_p)


def _r1_corrector(f_minus_lam: AcousticCoeffs, M: float, t: float, eps: float, tilde: bool):
    lattice = f_minus_lam.lattice
    rate = _signed_modulus(lattice)
    kmod = _safe_k_modulus(lattice)
    low = _band_weights(lattice, M)
    phase_p = np.exp(-1j * (t / eps) * rate)  # alpha = +1
    if tilde:
        sgk = lattice.sign_grid()
        plus = 1j * sgk / kmod * f_minus_lam.plus * phase_p * low
        minus = -1j * sgk / kmod * f_minus_lam.minus * np.conj(phase_p) * low
    else:
        plus = f_minus_lam.plus * phase_p * low
        minus = f_minus_lam.minus * np.conj(phase_p) * low
    return AcousticCoeffs(lattice, plus, minus)


def _r2_sum(entries, V, v, t, eps, vol, tilde, dV=None, dv=None):
    keep = entries["m"] >= 0
    m_idx = entries["m"][keep]
    k_idx = entries["k"][keep]
    l_idx = entries["l"][keep]
    alpha = entries["alpha"][keep]
    gamma = entries["gamma"][keep]
    div = entries["div"][keep]
    bracket = entries["bracket"][keep]
    lattice = V.lattice
    d = lattice.d
    kvecs = [g.reshape(-1) for g in lattice.wavevectors()]

    def k_dot(vfield, li, ki):
        vals = 0.0
        for c in range(d):
            vflat = vfield.coeffs[c].reshape(-1)
            good = li >= 0
            arr = np.zeros(li.shape, dtype=np.complex128)
            arr[good] = vflat[li[good]]
            vals = vals + kvecs[c][ki] * arr
        return vals

    vk = _branch_gather(V, k_idx, alpha)
    kv = k_dot(v, l_idx, k_idx)
    if tilde:
        coeff = vk * kv / div
        if dV is not None:
            coeff = (_branch_gather(dV, k_idx, alpha) * kv + vk * k_dot(dv, l_idx, k_idx)) / div
        phase = np.exp(1j * (t / eps) * div)
        vals = -1.0 / (2.0 * math.sqrt(vol)) * coeff * bracket * phase
    else:
        phase = np.exp(1j * (t / eps) * div)
        vals = -1j / (2.0 * math.sqrt(vol)) * vk * kv * bracket * phase
    return _accumulate(V.lattice, m_idx, gamma, vals)


def _r3_sum(entries, V, t, eps, kappa, c_d, tilde, dV=None):
    keep = entries["m"] >= 0
    m_idx = entries["m"][keep]
    k_idx = entries["k"][keep]
    l_idx = entries["l"][keep]
    alpha = entries["alpha"][keep]
    beta = entries["beta"][keep]
    gamma = entries["gamma"][keep]
    div = entries["div"][keep]
    base = entries["base"][keep]
    smod = entries["smod"][keep]
    bracket = base + gamma * kappa / 2.0
    vk = _branch_gather(V, k_idx, alpha)
    vl = _branch_gather(V, l_idx, beta)
    prod = vk * vl
    if dV is not None:
        prod = _branch_gather(dV, k_idx, alpha) * vl + vk * _branch_gather(dV, l_idx, beta)
    phase = np.exp(1j * (t / eps) * div)
    if tilde:
        vals = c_d / 2.0 * prod / div * smod * bracket * phase
    else:
        vals = 1j * c_d / 2.0 * prod * smod * bracket * phase
    return _accumulate(V.lattice, m_idx, gamma, vals)


def _lambda_coeffs(v: SpectralField) -> AcousticCoeffs:
    """Acoustic coefficients of (0, Q(v.grad v))."""
    nonlin = helmholtz_project(advect(v, v), "Q")
    zero = SpectralField.zeros(v.lattice)
    return acoustic_transform(zero, nonlin, check=False)


def _corrector_inputs(V, v, f_ac, M, table, lam_ac):
    """Table (enumerated when missing), volume, c_d and f - Lambda of a corrector call."""
    lattice = V.lattice
    if table is None or table.nonres_q1 is None:
        table = enumerate_resonance_sets(lattice, M)
    vol = lattice.volume
    if lam_ac is None:
        lam_ac = _lambda_coeffs(v)
    if f_ac is None:
        f_ac = AcousticCoeffs.zeros(lattice)
    return table, vol, 1.0 / math.sqrt(2.0 * vol), f_ac - lam_ac


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

    ``f_ac`` holds the acoustic decomposition of (0, Qf); the advected-flow
    coefficients are derived from ``v`` unless ``lam_ac`` overrides them.
    When ``time_derivatives = (dV, dv, df_ac, dlam_ac)`` is given, the set of
    time-derivative correctors is returned as well, so that

        eps * d/dt corrector_total = low-band remainder + eps * derivative_total.
    """
    lattice = V.lattice
    table, vol, c_d, fml = _corrector_inputs(V, v, f_ac, M, table, lam_ac)
    base = CorrectorSet(
        r1=_r1_corrector(fml, M, t, eps, tilde=True),
        r2=_r2_sum(table.nonres_q1, V, v, t, eps, vol, tilde=True),
        r3=_r3_sum(table.nonres_q2, V, t, eps, kappa, c_d, tilde=True),
        s=_s_corrector(V, M, t, eps, nu, tilde=True),
    )
    if time_derivatives is None:
        return base, None
    dV, dv, df_ac, dlam_ac = time_derivatives
    if dlam_ac is None:
        # product rule on the derived advected-flow coefficients
        nonlin = helmholtz_project(advect(dv, v) + advect(v, dv), "Q")
        dlam_ac = acoustic_transform(SpectralField.zeros(lattice), nonlin, check=False)
    dfml = (df_ac if df_ac is not None else AcousticCoeffs.zeros(lattice)) - dlam_ac
    deriv = CorrectorSet(
        r1=_r1_corrector(dfml, M, t, eps, tilde=True),
        r2=_r2_sum(table.nonres_q1, V, v, t, eps, vol, tilde=True, dV=dV, dv=dv),
        r3=_r3_sum(table.nonres_q2, V, t, eps, kappa, c_d, tilde=True, dV=dV),
        s=_s_corrector(dV, M, t, eps, nu, tilde=True),
    )
    return base, deriv


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
    table, vol, c_d, fml = _corrector_inputs(V, v, f_ac, M, table, lam_ac)
    # restrict the bilinear sums to |k|, |l| <= M exactly as the corrector does
    kmod_flat = V.lattice.k_modulus().reshape(-1)

    def band_filter(entries):
        keep = (kmod_flat[entries["k"]] <= M + 1e-12)
        lk = entries["l"] >= 0
        lmod = np.full(entries["l"].shape, 0.0)
        lmod[lk] = kmod_flat[entries["l"][lk]]
        keep &= lmod <= M + 1e-12
        return {key: arr[keep] for key, arr in entries.items()}

    r1 = _r1_corrector(fml, M, t, eps, tilde=False)
    r2 = _r2_sum(band_filter(table.nonres_q1), V, v, t, eps, vol, tilde=False)
    r3 = _r3_sum(band_filter(table.nonres_q2), V, t, eps, kappa, c_d, tilde=False)
    s = _s_corrector(V, M, t, eps, nu, tilde=False)
    return r1 + r2 + r3 + s


def low_freq_split(form, M: float, *args, **kwargs):
    """Split a mode-sum bilinear form into (low, high) frequency parts.

    ``form`` must accept a ``band`` keyword ("low"/"high" with cutoff M); the
    two parts reconstruct the unrestricted sum exactly (disjoint partition of
    the interaction indices).
    """
    low = form(*args, band=("low", M), **kwargs)
    high = form(*args, band=("high", M), **kwargs)
    return low, high
