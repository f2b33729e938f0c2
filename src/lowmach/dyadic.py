"""Dyadic frequency decomposition and Besov/Sobolev norms.

The decomposition uses a fixed smooth radial bump ``phi`` supported exactly in
``{3/4 <= r <= 8/3}`` with ``sum_j phi(2^-j r) = 1`` for ``r != 0``.  The
concrete profile is ``phi(r) = chi(r/2) - chi(r)`` where ``chi`` is a smooth
plateau equal to 1 on ``[0, 3/4]`` and 0 on ``[4/3, inf)``, built from the
standard ``exp(-1/s)`` partition.  All golden constants in the test-suite
(e.g. the Besov/Sobolev equivalence constant) are regenerated from this
profile.

Norms are addressable programmatically through :class:`NormSpec` and as
strings, e.g. ``"B:s=1:p=2:r=1:band=h:eta=32"``; see :func:`parse_norm_spec`
for the grammar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import LatticeSpec, SpectralField, _cached, _mode_power, inverse_transform

__all__ = [
    "BumpProfile",
    "DEFAULT_PROFILE",
    "NormSpec",
    "parse_norm_spec",
    "compute_jb",
    "block_range",
    "dyadic_block",
    "low_cut",
    "BlockEnergies",
    "block_energies",
    "norm",
    "time_norm",
    "chemin_lerner_norm",
]

_INF = float("inf")


def _smooth_step(s: np.ndarray) -> np.ndarray:
    """C-infinity step: exactly 0 for s<=0, exactly 1 for s>=1."""
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros_like(s)
    out[s >= 1.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    a = np.exp(-1.0 / sm)
    b = np.exp(-1.0 / (1.0 - sm))
    out[mid] = a / (a + b)
    return out


class BumpProfile:
    """Radial bump with support [3/4, 8/3] and dyadic partition of unity."""

    def plateau(self, r) -> np.ndarray:
        """chi: 1 on [0, 3/4], 0 on [4/3, inf), smooth in between."""
        r = np.abs(np.asarray(r, dtype=np.float64))
        return _smooth_step((4.0 / 3.0 - r) / (4.0 / 3.0 - 3.0 / 4.0))

    def __call__(self, r) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=np.float64))
        return self.plateau(r / 2.0) - self.plateau(r)


DEFAULT_PROFILE = BumpProfile()


def compute_jb(lattice: LatticeSpec) -> int:
    """Largest j for which every dyadic block of every lattice field vanishes.

    Blocks with index ``j <= jb`` are identically zero because the bump
    support misses all nonzero lattice frequencies.
    """
    bmax = max(lattice.periods)
    j = int(math.floor(-math.log2(8.0 / 3.0 * float(bmax))))
    while 8 * bmax * Fraction(2) ** j <= 3:
        j += 1
    while 8 * bmax * Fraction(2) ** j > 3:
        j -= 1
    return j


@_cached
def block_range(lattice: LatticeSpec) -> range:
    """Indices j of possibly non-vanishing blocks for fields on the lattice."""
    jmax = int(math.floor(math.log2(lattice.max_modulus() * 4.0 / 3.0) + 1e-12))
    return range(compute_jb(lattice) + 1, jmax + 1)


@_cached
def _block_weights(lattice: LatticeSpec, j: int) -> np.ndarray:
    return DEFAULT_PROFILE(np.ldexp(lattice.half(lattice.k_modulus()), -j))


def dyadic_block(field, j: int):
    """Frequency-localized piece at scale 2^j (mean mode always excluded)."""
    return field.scale_modes(_block_weights(field.lattice, j))


def low_cut(field, j: int):
    """Mean plus all blocks strictly below j."""
    lattice = field.lattice
    weights = np.zeros(lattice.half_shape)
    weights[(0,) * lattice.d] = 1.0
    for jp in block_range(lattice):
        if jp <= j - 1:
            weights = weights + _block_weights(lattice, jp)
    return field.scale_modes(weights)


# ---------------------------------------------------------------------------
# Norm specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormSpec:
    """Spatial norm description.

    kind "B": Besov with indices (s, p, r); kind "H": Sobolev with index s.
    ``band`` restricts a Besov sum: "full", "h" (2^j >= eta), "m" (zeta <=
    2^j < eta), or "l" (2^j < zeta), and takes only the thresholds it reads.
    The mean mode contributes to "full" and "l" norms unless ``underlined``
    drops it; "h"/"m" norms never see the mean.
    """

    kind: str = "B"
    s: float = 0.0
    p: float = 2
    r: float = 1
    band: str = "full"
    eta: float | None = None
    zeta: float | None = None
    underlined: bool = False

    def __post_init__(self):
        if self.kind not in ("B", "H"):
            raise ValueError("kind must be 'B' or 'H'")
        if self.kind == "B":
            if self.p not in (2, _INF):
                raise ValueError("p must be 2 or inf")
            if self.r not in (1, 2, _INF):
                raise ValueError("r must be 1, 2, or inf")
        elif (self.p, self.r) != (2, 1):
            raise ValueError(f"kind 'H' reads no p or r: got p={self.p:g}, r={self.r:g}")
        if self.band not in (("full", "h", "m", "l") if self.kind == "B" else ("full",)):
            raise ValueError(f"kind {self.kind!r} has no band {self.band!r}")
        reads = {"full": (), "h": ("eta",), "m": ("eta", "zeta"), "l": ("zeta",)}[self.band]
        for name in ("eta", "zeta"):
            if (getattr(self, name) is not None) != (name in reads):
                verb = "needs" if name in reads else "reads no"
                raise ValueError(f"band {self.band!r} {verb} {name}")
        if self.band == "m" and not (0 < self.zeta < self.eta):
            raise ValueError("medium band requires 0 < zeta < eta")

    @property
    def includes_mean(self) -> bool:
        return self.band in ("full", "l") and not self.underlined

    def block_active(self, j: int) -> bool:
        scale = 2.0**j
        if self.band == "h":
            return scale >= self.eta
        if self.band == "m":
            return self.zeta <= scale < self.eta
        if self.band == "l":
            return scale < self.zeta
        return True

    def key(self) -> str:
        parts = [self.kind, f"s={self.s:g}"]
        if self.kind == "B":
            parts += [
                f"p={'inf' if self.p == _INF else int(self.p)}",
                f"r={'inf' if self.r == _INF else int(self.r)}",
            ]
            if self.band != "full":
                parts.append(f"band={self.band}")
            if self.eta is not None:
                parts.append(f"eta={self.eta:g}")
            if self.zeta is not None:
                parts.append(f"zeta={self.zeta:g}")
        if self.underlined:
            parts.append("mean=excl")
        return ":".join(parts)


def parse_norm_spec(text: str) -> NormSpec:
    """Parse the documented string grammar for norm specs.

    Grammar (fields after the kind may appear in any order)::

        spec  := kind (":" field)*
        kind  := "B" | "H"
        field := "s=" float | "p=" ("2"|"inf") | "r=" ("1"|"2"|"inf")
               | "band=" ("full"|"h"|"m"|"l") | "eta=" float | "zeta=" float
               | "mean=" ("incl"|"excl")

    Kind "H" takes only s and mean; a field that would be ignored raises.
    """
    parts = text.strip().split(":")
    kind = parts[0].strip()
    kwargs: dict = {"kind": kind}
    for part in parts[1:]:
        if not part:
            continue
        name, _, value = part.partition("=")
        name = name.strip()
        value = value.strip()
        if kind == "H" and name in ("p", "r", "band", "eta", "zeta"):
            raise ValueError(f"norm-spec field {name!r} is Besov-only, in {text!r}")
        if name == "s":
            kwargs["s"] = float(value)
        elif name in ("p", "r"):
            kwargs[name] = _INF if value == "inf" else float(value)
        elif name == "band":
            kwargs["band"] = value
        elif name in ("eta", "zeta"):
            kwargs[name] = float(value)
        elif name == "mean":
            if value not in ("incl", "excl"):
                raise ValueError(f"mean must be incl or excl, got {value!r} in {text!r}")
            kwargs["underlined"] = value == "excl"
        else:
            raise ValueError(f"unknown norm-spec field {name!r} in {text!r}")
    return NormSpec(**kwargs)


# ---------------------------------------------------------------------------
# Norm evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BlockEnergies:
    """Energy row of a field (or, stacked, one row per sample).

    The last axis holds E[j] = sum_k w_j(k)^2 |c_k|^2 for each j of
    ``block_range(lattice)``, then the mean energy |c_0|^2, then for each s of
    ``h_orders`` the Sobolev sum over k != 0 of |k|^(2s) |c_k|^2.  Every p = 2
    norm is a function of one row; the sum of two rows is the row of the
    pair of fields (their bundle).
    """

    lattice: LatticeSpec
    h_orders: tuple
    values: np.ndarray

    def __add__(self, other: "BlockEnergies") -> "BlockEnergies":
        if (other.lattice, other.h_orders) != (self.lattice, self.h_orders):
            raise ValueError("block energies of different lattices or orders")
        return BlockEnergies(self.lattice, self.h_orders, self.values + other.values)


@_cached
def _energy_matrix(lattice: LatticeSpec, h_orders: tuple) -> np.ndarray:
    """The weights of a :class:`BlockEnergies` row on the dealiased modes of
    a half spectrum (``LatticeSpec.half_box``): one row per entry, one column
    per mode.  Modes with n_d > 0 count twice, once for their n_d-mirrors,
    which every weight, a function of |k| alone, treats alike."""
    index = lattice.half_box()[0]
    ksq = lattice.half(lattice.k_squared()).ravel()[index]
    kmod = lattice.half(lattice.k_modulus()).ravel()[index]
    rows = [DEFAULT_PROFILE(np.ldexp(kmod, -j)) ** 2 for j in block_range(lattice)]
    rows.append((ksq == 0).astype(np.float64))
    for s in h_orders:
        rows.append(np.zeros_like(ksq))
        rows[-1][ksq > 0] = ksq[ksq > 0] ** s
    return np.stack(rows) * np.where(index % (lattice.cutoffs[-1] + 1) == 0, 1.0, 2.0)


def block_energies(obj, h_orders=()) -> BlockEnergies:
    """Reduce a field to its energy row: the power of each dealiased mode of
    its half spectrum, averaged with that of the mode's n_d-mirror, against
    the weight matrix."""
    h_orders = tuple(float(s) for s in h_orders)
    lattice = obj.lattice
    coeffs = obj.coeffs.reshape(obj.components, -1)
    index, mirror = lattice.half_box()
    power = 0.5 * (_mode_power(np.take(coeffs, index, 1)) + _mode_power(np.take(coeffs, mirror, 1)))
    return BlockEnergies(lattice, h_orders, _energy_matrix(lattice, h_orders) @ power)


def _series_energies(fields, h_orders) -> BlockEnergies:
    """Stacked rows of a series of fields or rows; a series given stacked,
    as one :class:`BlockEnergies` with one row per sample, passes through."""
    if isinstance(fields, BlockEnergies):
        return fields
    rows = [f if isinstance(f, BlockEnergies) else block_energies(f, h_orders) for f in fields]
    return BlockEnergies(rows[0].lattice, rows[0].h_orders, np.stack([r.values for r in rows]))


def _block_linf(obj: SpectralField, j: int) -> float:
    block = dyadic_block(obj, j)
    grid = inverse_transform(block)
    mag = np.sqrt(np.sum(np.abs(grid) ** 2, axis=0))
    return float(np.max(mag))


def _ell_r(values, r: float):
    """ell^r over the last axis of nonnegative terms (0 when there are none)."""
    arr = np.asarray(values, dtype=np.float64)
    if r == _INF:
        return np.max(arr, axis=-1, initial=0.0)
    return np.sum(arr**r, axis=-1) ** (1.0 / r)


def _block_terms(energies: BlockEnergies, spec: NormSpec):
    """The 2^(js) weights and the L2 norms of a Besov spec's active blocks,
    row by row; the mean mode, when counted, is the last term (weight 1)."""
    js = block_range(energies.lattice)
    cols = [i for i, j in enumerate(js) if spec.block_active(j)]
    scale = [2.0 ** (js[i] * spec.s) for i in cols]
    if spec.includes_mean:
        cols.append(len(js))
        scale.append(1.0)
    return np.array(scale), np.sqrt(energies.values[..., cols])


def _spatial_norm(energies: BlockEnergies, spec: NormSpec):
    """p = 2 norm of every row of ``energies``."""
    if spec.kind == "B":
        scale, terms = _block_terms(energies, spec)
        return _ell_r(scale * terms, spec.r)
    if spec.s not in energies.h_orders:
        raise ValueError(f"block energies carry no Sobolev sum of order s = {spec.s:g}")
    mean = len(block_range(energies.lattice))
    total = energies.values[..., mean + 1 + energies.h_orders.index(spec.s)]
    return np.sqrt(total if spec.underlined else total + energies.values[..., mean])


def norm(obj, spec) -> float:
    """Besov or Sobolev norm of a field or, for p = 2, of a
    :class:`BlockEnergies` row."""
    if isinstance(spec, str):
        spec = parse_norm_spec(spec)
    if spec.kind == "H" or spec.p == 2:
        if not isinstance(obj, BlockEnergies):
            obj = block_energies(obj, (spec.s,) if spec.kind == "H" else ())
        return float(_spatial_norm(obj, spec))
    if type(obj) is not SpectralField:
        raise TypeError("p=inf norms require a plain spectral field")
    terms = [
        2.0 ** (j * spec.s) * _block_linf(obj, j)
        for j in block_range(obj.lattice)
        if spec.block_active(j)
    ]
    if spec.includes_mean:
        mean = obj.mean_coefficient()
        terms.append(float(np.sqrt(np.sum(np.abs(mean) ** 2)) / math.sqrt(obj.lattice.volume)))
    return float(_ell_r(terms, spec.r))


def _time_lq(times: np.ndarray, values: np.ndarray, q: float):
    """L^q in time over the first axis: trapezoid rule, or the max for q = inf."""
    if q == _INF:
        return np.max(values, axis=0, initial=0.0)
    return np.trapezoid(values**q, times, axis=0) ** (1.0 / q)


def time_norm(times, fields, q: float, spec):
    """L^q-in-time of the spatial norm along a sampled trajectory.

    ``fields`` holds one field per sample, or for p = 2 its
    :class:`BlockEnergies` row, or the rows stacked in one.
    """
    if isinstance(spec, str):
        spec = parse_norm_spec(spec)
    times = np.asarray(times, dtype=np.float64)
    if spec.kind == "B" and spec.p == _INF:
        values = np.array([norm(f, spec) for f in fields])
    else:
        h_orders = (spec.s,) if spec.kind == "H" else ()
        values = _spatial_norm(_series_energies(fields, h_orders), spec)
    return float(_time_lq(times, values, q))


def chemin_lerner_norm(times, fields, q: float, spec) -> float:
    """Time-inside norm: ell^r over blocks of the L^q-in-time block norms.

    Compared with :func:`time_norm` the order of the time integral and the
    block summation is swapped.  Time integrals use the trapezoid rule on the
    sample grid; q = inf takes the max over samples.  ``fields`` holds one
    field or :class:`BlockEnergies` row per sample, or the rows stacked in one.
    """
    if isinstance(spec, str):
        spec = parse_norm_spec(spec)
    if spec.kind == "H":
        spec = NormSpec(kind="B", s=spec.s, p=2, r=2, underlined=spec.underlined)
    if spec.p != 2:
        raise ValueError("time-inside norms are implemented for p = 2")
    times = np.asarray(times, dtype=np.float64)
    if len(fields.values if isinstance(fields, BlockEnergies) else fields) < 2:
        raise ValueError("trajectory norms need at least two samples")
    scale, terms = _block_terms(_series_energies(fields, ()), spec)
    return float(_ell_r(scale * _time_lq(times, terms, q), spec.r))
