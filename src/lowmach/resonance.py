"""Exact resonance classification, limit forms and small divisors.

On lattices whose squared periods are rational, every frequency modulus is
``sqrt(N/D)`` with integers N and a common denominator D, so conditions like
``sg(k)|k| + sg(l)|l| = sg(m)|m|`` reduce to signed comparisons of integer
square roots and are decided exactly:

    sqrt(a) + sqrt(b) = sqrt(c)   iff   c >= a + b and (c - a - b)^2 = 4ab.

The triad tables need no roots.  A q1 triad resonates when the integers
D|k|^2 and D|m|^2 agree and alpha*sg(k) = gamma*sg(m).  A q2 triad
m = k + l (k, l, m nonzero) resonates only when k and l are parallel,
because +-|k| +- |l| +- |m| = 0 is the triangle equality.  On a line,
k = a*p and l = b*p with sg(p) = 1, the exponent alpha*a + beta*b -
gamma*(a + b) (times |p|) vanishes exactly when alpha = beta = gamma, so q2
is the collinear equal-branch pairs.

Each set of triads has one reader.  The resonant triples over the dealiased
box, a :class:`ResonanceTable`, drive the averaged (limit) quadratic forms;
the forms read its entries whose output lies in the half box
(:class:`HalfTable`, built once per lattice and cached with it by
``_limit_table``) and work on half spectra, as the steppers store real
fields, since each branch of the averaged state is the spectrum of a real
function.  The non-resonant triples with |k|, |l| <= M, a
:class:`NonResonantTriads` enumerated once per (lattice, cutoff), carry the
small divisors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSpec, _cached

__all__ = [
    "ResonanceResult",
    "resonance_test",
    "ResonanceTable",
    "HalfTable",
    "NonResonantTriads",
    "enumerate_resonance_sets",
    "build_limit_tables",
    "limit_q1",
    "limit_q2",
    "SmallDivisorReport",
    "small_divisors",
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


# ---------------------------------------------------------------------------
# Mode bookkeeping
# ---------------------------------------------------------------------------


def _mode_data(lattice: LatticeSpec, n: np.ndarray):
    """Per-mode data of integer index vectors ``n`` of shape (N, d).

    Returns the scaled norms D*|k|^2, the generalized signs sg(k) (0 at k = 0),
    the wavevectors and the moduli.  Everything is computed from ``n`` itself,
    so modes off the FFT grid (such as m = k + l) are handled too.
    Periods whose scaled norms of ``n`` would leave the int64 range raise
    ValueError.
    """
    scale = lattice.norm_scale()
    cols = n.T  # per-component loops: reductions over the short last axis are slow
    weights = [scale * (b * b).denominator // (b * b).numerator for b in lattice.periods]
    reach = [int(np.max(np.abs(col), initial=0)) for col in cols]
    if sum(w * r * r for w, r in zip(weights, reach)) >= 2**63:
        raise ValueError(
            "the scaled norms D*|k|^2 on the lattice with periods "
            f"({', '.join(str(b) for b in lattice.periods)}) exceed the int64 range"
        )
    # an axis that n does not reach adds nothing, however large its weight
    norms = sum(
        (w * col * col for col, w, r in zip(cols, weights, reach) if r),
        np.zeros(len(n), dtype=np.int64),
    )
    sgs = np.zeros(len(n), dtype=np.int64)
    for col in cols[::-1]:  # the first nonzero component decides
        sgs = np.where(col != 0, np.sign(col), sgs)
    kvecs = n / np.array([float(b) for b in lattice.periods])
    mods = np.sqrt(sum(kvecs[:, c] * kvecs[:, c] for c in range(lattice.d)))
    return norms, sgs, kvecs, mods


def _grid_index(lattice: LatticeSpec, n: np.ndarray) -> np.ndarray:
    """Flat FFT-grid indices of integer vectors n (N, d), taken modulo the grid."""
    res = lattice.resolution
    return np.ravel_multi_index(tuple(col % r for col, r in zip(n.T, res)), res)


# ---------------------------------------------------------------------------
# Resonance tables
# ---------------------------------------------------------------------------


@dataclass
class ResonanceTable:
    """The resonant triples over the dealiased box.  The limit forms read
    the entries whose output lies in the half box (:meth:`half`).

    All index arrays are flat indices into the lattice's FFT grid, and every
    mode m, k and l of an entry lies in the box.
    """

    lattice: LatticeSpec
    # q1: |k| = |m|, alpha = gamma*sg(m)*sg(k); l = m - k may be 0
    q1_m: np.ndarray
    q1_k: np.ndarray
    q1_l: np.ndarray
    q1_ss: np.ndarray
    q1_weight: np.ndarray
    q1_kvec: np.ndarray
    # q2, keyed by output branch gamma: the table holds one equal-branch set,
    # so its 1 and -1 keys share the same arrays
    q2_m: dict
    q2_k: dict
    q2_l: dict
    q2_smod: dict

    def counts(self) -> dict:
        # both gamma keys of q2_m hold the same equal-branch triples
        return {"q1_resonant": int(self.q1_m.size), "q2_resonant": int(self.q2_m[1].size)}

    def half(self) -> "HalfTable":
        """The entries whose output mode m lies in the half box, in this
        table's order, as the limit forms read them (:class:`HalfTable`).
        The other entries write the mirrors of these outputs, which a
        Hermitian result determines.  The q1 entries of weight exactly 0
        (k orthogonal to m on a shell) add nothing and are dropped."""
        lattice = self.lattice
        size = _half_size(lattice)
        q1_m, q2_m = (_half_position(lattice, m) for m in (self.q1_m, self.q2_m[1]))
        q1, q2 = (q1_m < size) & (self.q1_weight != 0), q2_m < size
        k, ss = _half_position(lattice, self.q1_k[q1]), self.q1_ss[q1]
        return HalfTable(
            lattice=lattice,
            q1_m=q1_m[q1],
            q1_l=_half_position(lattice, self.q1_l[q1]),
            q1_gather=np.stack([np.where(gamma * ss == 1, 0, 2 * size) + k for gamma in (1, -1)]),
            q1_weight=self.q1_weight[q1].astype(np.complex128),
            q1_kvec=self.q1_kvec[q1].T.astype(np.complex128, order="C"),
            q2_m=q2_m[q2],
            q2_k=_half_position(lattice, self.q2_k[1][q2]),
            q2_l=_half_position(lattice, self.q2_l[1][q2]),
            q2_smod=self.q2_smod[1][q2].astype(np.complex128),
        )


def _half_size(lattice: LatticeSpec) -> int:
    """The number of modes of a half spectrum, shape (*leading axes, cut + 1)."""
    return math.prod(lattice.resolution[:-1]) * (lattice.cutoffs[-1] + 1)


def _half_position(lattice: LatticeSpec, flat: np.ndarray) -> np.ndarray:
    """Positions in an extended half spectrum (:func:`_extend`) of the box
    modes with flat FFT-grid indices ``flat``: a mode with n_d >= 0 sits at
    its flat index in the half spectrum, one with n_d < 0 at the half
    spectrum's size plus that of its mirror -n."""
    res, cut = lattice.resolution, lattice.cutoffs[-1]
    index = np.unravel_index(flat, res)
    mirrored = index[-1] > cut
    index = [np.where(mirrored, -i % n, i) for i, n in zip(index, res)]
    return np.ravel_multi_index(index, res[:-1] + (cut + 1,)) + _half_size(lattice) * mirrored


@dataclass
class HalfTable:
    """The entries of a :class:`ResonanceTable` whose output mode m lies in
    the half box (n_d >= 0), in the table's order, less the q1 entries of
    weight 0: what the limit forms read on half spectra
    (``ResonanceTable.half``).

    ``q1_m`` and ``q2_m`` are flat indices into a half spectrum.  The input
    indices ``q1_l``, ``q2_k``, ``q2_l`` and the rows of ``q1_gather`` index
    the extended half spectrum of :func:`_extend`, which holds every box mode
    of a Hermitian field; ``q1_gather`` has one row per output branch
    gamma = 1, -1, reading the branch alpha = gamma*sg(m)*sg(k) of the
    extended pair of branches at k.  The multipliers ``q1_weight``,
    ``q1_kvec`` (one row per axis) and ``q2_smod`` are stored as complex, so
    that no product with the data casts them through a buffer.
    """

    lattice: LatticeSpec
    q1_m: np.ndarray
    q1_l: np.ndarray
    q1_gather: np.ndarray
    q1_weight: np.ndarray
    q1_kvec: np.ndarray
    q2_m: np.ndarray
    q2_k: np.ndarray
    q2_l: np.ndarray
    q2_smod: np.ndarray


def _group_pairs(label: np.ndarray):
    """Every ordered pair (i, j) of positions with label[i] == label[j], for
    labels in 0 .. G-1: groups in ascending label, then i, then j ascending."""
    order = np.argsort(label, kind="stable")
    counts = np.bincount(label)
    size = counts[label[order]]
    start = (np.cumsum(counts) - counts)[label[order]]
    first = np.repeat(order, size)
    offset = np.arange(first.size) - np.repeat(np.cumsum(size) - size, size)
    return first, order[np.repeat(start, size) + offset]


def build_limit_tables(lattice: LatticeSpec) -> ResonanceTable:
    """Resonant triples over the full dealiased box (for the limit solver).

    Modes are the nonzero box modes in FFT-grid order.  q1 lists every ordered
    pair of a same-modulus shell (shells in order of first appearance, modes
    ascending within a shell) whose difference lies in the box.  q2 lists, for
    k and then l ascending, every pair on one line through the origin with
    m = k + l a nonzero box mode.  These are all the equal-branch resonances:
    by the triangle equality, sg(k)|k| + sg(l)|l| = sg(m)|m| needs k and l
    parallel, and on a line k = a*p, l = b*p it reads a + b = a + b.
    """
    flat = np.flatnonzero(lattice.dealias_mask())
    flat = flat[flat != 0]  # the mean mode sits at flat index 0
    nvecs = np.stack([g.reshape(-1)[flat] for g in lattice.index_grids()], axis=1)
    norms, sgs, kvecs, mods = _mode_data(lattice, nvecs)
    cut = np.array(lattice.cutoffs)

    # --- q1: ordered pairs within each same-modulus shell ----------------
    _, first, shell = np.unique(norms, return_index=True, return_inverse=True)
    im, ik = _group_pairs(np.argsort(np.argsort(first))[shell])
    l = nvecs[im] - nvecs[ik]
    keep = np.all(np.abs(l) <= cut, axis=1)
    im, ik, l = im[keep], ik[keep], l[keep]

    # --- q2: ordered pairs on each line through the origin ---------------
    # a line's key is its primitive direction n/gcd(n), oriented to sg = 1;
    # the equal-branch pair set is the same for both output branches
    direction = nvecs // (np.gcd.reduce(nvecs, axis=1) * sgs)[:, None]
    jk, jl = _group_pairs(np.unique(direction, axis=0, return_inverse=True)[1].reshape(-1))
    mvec = nvecs[jk] + nvecs[jl]
    keep = np.any(mvec != 0, axis=1) & np.all(np.abs(mvec) <= cut, axis=1)
    order = np.lexsort((jl[keep], jk[keep]))
    jk, jl, mvec = jk[keep][order], jl[keep][order], mvec[keep][order]
    _, m_sgs, _, m_mods = _mode_data(lattice, mvec)
    q2_m, q2_k, q2_l = _grid_index(lattice, mvec), flat[jk], flat[jl]
    q2_smod = m_sgs * m_mods

    return ResonanceTable(
        lattice=lattice,
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


@_cached
def _limit_table(lattice: LatticeSpec) -> HalfTable:
    """The half-box entries of the lattice's limit table, which every limit
    stepper on the lattice reads; the whole table is dropped once they are
    taken."""
    return build_limit_tables(lattice).half()


# enumerate_resonance_sets holds every (k, l) pair times its branch columns at
# once: about 1.1 kB per pair at its peak (64^2, M = 6, 10 and 14).  Cutoffs
# whose pairs would need more than the limit below are rejected up front.
_BYTES_PER_PAIR = 2048
_MAX_ENUMERATION_BYTES = 1 << 30

# (gamma, alpha) and (gamma, alpha, beta) branch combinations, in entry order
_Q1_BRANCHES = np.array([(g, a) for g in (1, -1) for a in (1, -1)], dtype=np.int8).T
_Q2_BRANCHES = np.array(
    [(g, a, b) for g in (1, -1) for a in (1, -1) for b in (1, -1)], dtype=np.int8
).T


@dataclass
class NonResonantTriads:
    """The non-resonant triples with |k|, |l| <= M, which carry the small
    divisors.

    ``q1`` and ``q2`` map names to one array per entry: the branches, the
    divisor ``div`` and the integer index vectors ``mn``, ``kn`` and ``ln``
    of m = k + l, k and l, which is what :func:`small_divisors` reads.
    """

    lattice: LatticeSpec
    M: float
    q1: dict
    q2: dict


def enumerate_resonance_sets(lattice: LatticeSpec, M: float) -> NonResonantTriads:
    """Classify every triple with |k|, |l| <= M (paper-style modulus balls)
    and keep the non-resonant ones.

    Pairs run over k in the ball and, for each k, over l in the ball and then
    l = 0 (ball modes in ascending index order), skipping m = k + l = 0; each
    pair lists its non-resonant branches with gamma, then alpha, then beta
    running over (1, -1).  A q1 triple resonates when |k| = |m| and
    alpha*sg(k) = gamma*sg(m), a q2 triple when k and l are parallel and
    alpha = beta = gamma.  A cutoff whose pairs would need more than
    ``_MAX_ENUMERATION_BYTES`` raises ValueError before anything large is
    allocated, and so does a cutoff that is not a finite number >= 0.
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
    norm, sgn, _, mod = _mode_data(lattice, modes)

    # every (k, l) pair, k-major, as indices into modes
    ik = np.repeat(np.arange(len(ball)), len(modes))
    il = np.tile(np.arange(len(modes)), len(ball))
    mvec = modes[ik] + modes[il]
    keep = np.any(mvec != 0, axis=1)
    ik, il, mvec = ik[keep], il[keep], mvec[keep]
    m_norm, m_sgn, _, m_mod = _mode_data(lattice, mvec)

    # --- q1: resonant iff |k| = |m| and alpha*sg(k) = gamma*sg(m) ---------
    same = norm[ik] == m_norm
    gamma, alpha = _Q1_BRANCHES
    p, c = np.nonzero(
        ~(same[:, None] & (alpha * sgn[ik][:, None] == gamma * m_sgn[:, None]))
    )
    k, l = ik[p], il[p]
    g, a = gamma[c], alpha[c]
    q1 = {
        "alpha": a,
        "gamma": g,
        "div": a * sgn[k] * mod[k] - g * m_sgn[p] * m_mod[p],
        "mn": mvec[p],
        "kn": modes[k],
        "ln": modes[l],
    }

    # --- q2: resonant iff k and l are parallel and alpha = beta = gamma ----
    two = np.flatnonzero(il < len(ball))
    gamma, alpha, beta = _Q2_BRANCHES
    kn, ln = modes[ik[two]], modes[il[two]]
    parallel = np.ones(two.size, dtype=bool)
    for i, j in itertools.combinations(range(d), 2):
        parallel &= kn[:, i] * ln[:, j] == kn[:, j] * ln[:, i]
    p, c = np.nonzero(~(parallel[:, None] & (alpha == gamma) & (beta == gamma)))
    p = two[p]
    k, l = ik[p], il[p]
    g, a, b = gamma[c], alpha[c], beta[c]
    q2 = {
        "alpha": a,
        "beta": b,
        "gamma": g,
        "div": a * sgn[k] * mod[k] + b * sgn[l] * mod[l] - g * m_sgn[p] * m_mod[p],
        "mn": mvec[p],
        "kn": modes[k],
        "ln": modes[l],
    }

    return NonResonantTriads(lattice, float(M), q1, q2)


# ---------------------------------------------------------------------------
# Limit forms
# ---------------------------------------------------------------------------


def _gather(values: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``values[index]`` written into ``out``.  A table's indices are in
    range; the default mode "raise" would copy ``out`` through a buffer."""
    return np.take(values, index, out=out, mode="clip")


def _extend(half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Half spectra (components, *leading axes, cut + 1), flattened per
    component and followed by their conjugates, written into ``out`` of shape
    (components, 2 * size) and returned: for a Hermitian field, entry
    size + i holds the coefficient of the mirror of mode i, so that every box
    mode has a position (:func:`_half_position`).  The limit forms read their
    inputs so extended; each write is contiguous, so it needs no buffer."""
    size = half[0].size
    for component, row in zip(half, out):
        row[:size] = component.reshape(-1)
        np.conjugate(row[:size], out=row[size:])
    return out


def limit_q1(
    u: np.ndarray, B: np.ndarray, table: HalfTable, work: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Averaged advection form Q1(u, B): resonant sum over same-modulus
    pairs, on half spectra.

    ``u`` is a real divergence-free field (its mean mode participates
    through the l = 0 entries, which average trivially) and ``B`` the pair of
    branches, each the spectrum of a real function, both as extended half
    spectra (:func:`_extend`).  Writes the half spectra of the form's two
    branches into ``out`` (contiguous, of shape (2, *leading axes, cut + 1))
    and returns it.  ``work``, flat complex scratch of at least twice the
    table's q1 entries (a limit stepper's share of its workspace), is filled
    with the gathers and products, so that no call allocates them.
    """
    lattice = table.lattice
    out.fill(0.0)
    entries = table.q1_m.size
    k_dot_u, term = work[: 2 * entries].reshape(2, entries)
    prefactor = 1j / math.sqrt(lattice.volume)
    # k . u[l], one component at a time
    for c in range(lattice.d):
        _gather(u[c], table.q1_l, term)
        np.multiply(table.q1_kvec[c], term, out=k_dot_u if c == 0 else term)
        if c:
            k_dot_u += term
    acc = out.reshape(2, -1)
    b_flat = B.reshape(-1)
    for row, gather in enumerate(table.q1_gather):
        # prefactor * B[gather] * (k . u[l]) * weight
        np.multiply(prefactor, _gather(b_flat, gather, term), out=term)
        term *= k_dot_u
        term *= table.q1_weight
        np.add.at(acc[row], table.q1_m, term)
    return out


def limit_q2(
    B: np.ndarray, table: HalfTable, kappa: float, work: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Averaged quadratic form Q2(B, B): equal-branch collinear resonances
    only, on a pair of branches given as extended half spectra, as in
    :func:`limit_q1`, with ``work`` and ``out`` as there but ``work`` of at
    least twice the q2 entries.
    """
    lattice = table.lattice
    out.fill(0.0)
    c_d = 1.0 / math.sqrt(2.0 * lattice.volume)
    front = -1j * c_d * (kappa + 3.0) / 4.0
    acc = out.reshape(2, -1)
    entries = table.q2_m.size
    prod, term = work[: 2 * entries].reshape(2, entries)
    for row, gamma in enumerate((1, -1)):
        # prod = B[k] B[l] on branch gamma
        np.multiply(_gather(B[row], table.q2_k, prod), _gather(B[row], table.q2_l, term), out=prod)
        # front * gamma * |m|-weight * prod
        np.multiply(front * gamma, table.q2_smod, out=term)
        term *= prod
        np.add.at(acc[row], table.q2_m, term)
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
    triads = enumerate_resonance_sets(lattice, M)

    def worst(entries, names):
        """1/|div| at the first smallest |div| and that entry's triad; 0 and
        {} without entries."""
        if entries["div"].size == 0:
            return 0.0, {}
        i = int(np.argmin(np.abs(entries["div"])))
        info = {"divisor": float(abs(entries["div"][i]))}
        for name in names:
            value = entries[name][i]
            info[name] = int(value) if value.ndim == 0 else [int(v) for v in value]
        return float(1.0 / np.abs(entries["div"][i])), info

    c1, att1 = worst(triads.q1, ("alpha", "gamma", "kn", "ln", "mn"))
    c2, att2 = worst(triads.q2, ("alpha", "beta", "gamma", "kn", "ln", "mn"))
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
