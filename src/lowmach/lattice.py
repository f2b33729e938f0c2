"""Lattice and field representation for the rational-period torus.

Fields live on a uniform periodic grid with axis lengths ``2*pi*b_h`` and are
represented by a truncated table of Fourier coefficients
(:class:`SpectralField`).  Grid samples are plain arrays of shape
``(components, *resolution)``, the input of :func:`forward_transform` and the
output of :func:`inverse_transform`.  The coefficient convention is

    g(x) = sum_k  g_k  exp(i k.x) / sqrt(vol),
    g_k  = integral of g(x) exp(-i k.x) dx / sqrt(vol),

where ``vol`` is the torus volume and the wavevectors are ``k_h = n_h / b_h``
with integer ``n_h``.  With this normalization Parseval's identity holds with
constant one: ``integral |g|^2 = sum_k |g_k|^2``.  All norm code downstream
relies on that.

Coefficients are stored on the full FFT index grid with a sharp dealiasing
mask applied; the retained per-axis cutoff guarantees that quadratic products
evaluated on the grid agree exactly with the truncated Fourier convolution
(the classical 2/3 rule).

A field stands for a real function exactly when its coefficients are
Hermitian, c_{-k} = conj(c_k) (:meth:`SpectralField.is_reality_symmetric`).
The transforms of such a field use real-data FFTs on the retained half
spectrum: the inverse reads the columns 0..cut alone, and the forward
transform of real samples rebuilds the full, masked, Hermitian coefficient
grid from the half spectrum.  Any other field uses the complex FFTs.  The
half-spectrum primitives behind these transforms also serve the steppers,
which work on half spectra throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "LatticeSpec",
    "SpectralField",
    "forward_transform",
    "inverse_transform",
    "dealiased_product",
    "zero_mean_split",
]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        frac = Fraction(value).limit_denominator(10**6)
        if abs(float(frac) - value) > 1e-12 * max(1.0, abs(value)):
            raise ValueError(f"period {value!r} is not recognizably rational")
        return frac
    raise TypeError(f"cannot interpret period {value!r} as a rational number")


def _frozen(value):
    """``value`` made read-only: arrays lose their write flag, lists and
    tuples become tuples of frozen members, and the array fields of a
    dataclass are frozen in place."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (list, tuple)):
        value = tuple(_frozen(v) for v in value)
    elif is_dataclass(value):
        for field in fields(value):
            if isinstance(array := getattr(value, field.name), np.ndarray):
                array.flags.writeable = False
    return value


def _cached(build):
    """Decorator for tables derived from a lattice alone: the first call of
    ``build(lattice, *args)`` stores its value, frozen (see ``_frozen``), in
    the lattice's cache, and later calls with equal ``args`` return it.  The
    key holds the builder's qualified name, not the function, so that a
    lattice pickles with its cache."""
    name = f"{build.__module__}.{build.__qualname__}"

    @functools.wraps(build)
    def cached(lattice, *args):
        key = (name, args)
        try:
            return lattice._cache[key]
        except KeyError:
            value = lattice._cache[key] = _frozen(build(lattice, *args))
            return value

    return cached


@dataclass(frozen=True)
class LatticeSpec:
    """Discretization of the d-torus with periods ``2*pi*b_h``.

    Parameters
    ----------
    periods:
        Tuple of positive rationals ``b_h`` (wavevectors are ``n_h/b_h``).
    resolution:
        Even number of grid points per axis.  Each axis keeps the modes
        ``|n_h| <= (n - 1) // 3`` (the 2/3 rule), so products of retained
        fields are exact on retained modes.
    """

    periods: tuple[Fraction, ...]
    resolution: tuple[int, ...]

    def __post_init__(self):
        periods = tuple(_as_fraction(b) for b in self.periods)
        object.__setattr__(self, "periods", periods)
        resolution = tuple(int(n) for n in self.resolution)
        object.__setattr__(self, "resolution", resolution)
        if len(periods) != len(resolution) or not periods:
            raise ValueError("periods and resolution must have equal positive length")
        if any(b <= 0 for b in periods):
            raise ValueError("periods must be positive")
        if any(n < 4 or n % 2 for n in resolution):
            raise ValueError("resolution must be even and at least 4 per axis")
        object.__setattr__(self, "_cache", {})

    def __setstate__(self, state):
        # unpickled arrays are writeable again
        state["_cache"] = {key: _frozen(value) for key, value in state["_cache"].items()}
        self.__dict__.update(state)

    # -- basic geometry -------------------------------------------------

    @property
    def d(self) -> int:
        return len(self.periods)

    @property
    @_cached
    def volume(self) -> float:
        vol = 1.0
        for b in self.periods:
            vol *= 2.0 * math.pi * float(b)
        return vol

    @property
    @_cached
    def cutoffs(self) -> tuple[int, ...]:
        return tuple((n - 1) // 3 for n in self.resolution)

    # -- mode bookkeeping -----------------------------------------------

    @_cached
    def index_grids(self) -> tuple[np.ndarray, ...]:
        """Integer mode indices n_h on the full FFT grid, one array per axis."""
        axes = [np.fft.fftfreq(n, 1.0 / n).astype(np.int64) for n in self.resolution]
        return np.meshgrid(*axes, indexing="ij")

    @_cached
    def wavevectors(self) -> tuple[np.ndarray, ...]:
        """Wavevector components k_h = n_h/b_h on the full FFT grid."""
        return [g / float(b) for g, b in zip(self.index_grids(), self.periods)]

    @_cached
    def half_wavevectors(self) -> np.ndarray:
        """Wavevector components on the retained half spectrum (columns
        0..cut of the last axis), stacked: shape (d, *leading axes, cut + 1)."""
        cut = self.cutoffs[-1]
        return np.stack([k[..., : cut + 1] for k in self.wavevectors()])

    @_cached
    def half_box(self) -> np.ndarray:
        """Flat indices into the full FFT grid of the retained half box, the
        dealiased modes with n_d >= 0 in increasing order (row 0), and of
        their n_d-mirrors, the same modes with n_d negated (row 1).  A mode
        with n_d = 0 is its own n_d-mirror."""
        n = self.resolution[-1]
        index = np.flatnonzero(self.dealias_mask() & (self.index_grids()[-1] >= 0))
        column = index % n
        return np.stack((index, index - column + (-column) % n))

    @_cached
    def k_squared(self) -> np.ndarray:
        return sum(k * k for k in self.wavevectors())

    @_cached
    def k_modulus(self) -> np.ndarray:
        return np.sqrt(self.k_squared())

    @_cached
    def dealias_mask(self) -> np.ndarray:
        mask = np.ones(self.resolution, dtype=bool)
        for grid, cut in zip(self.index_grids(), self.cutoffs):
            mask &= np.abs(grid) <= cut
        return mask

    @_cached
    def norm_scale(self) -> int:
        """Integer D such that D*|k|^2 is an integer for every lattice mode."""
        scale = 1
        for b in self.periods:
            bsq = b * b
            scale = scale * bsq.numerator // math.gcd(scale, bsq.numerator)
        return scale

    @_cached
    def sign_grid(self) -> np.ndarray:
        """Generalized sign: +1 where the first nonzero index is positive."""
        sg = np.zeros(self.resolution, dtype=np.int8)
        undecided = np.ones(self.resolution, dtype=bool)
        for grid in self.index_grids():
            sg = np.where(undecided & (grid > 0), 1, sg)
            sg = np.where(undecided & (grid < 0), -1, sg)
            undecided &= grid == 0
        return sg

    def max_modulus(self) -> float:
        return math.sqrt(
            sum((c / float(b)) ** 2 for c, b in zip(self.cutoffs, self.periods))
        )

    def descriptor(self) -> dict:
        """JSON-ready description used for caching and file headers."""
        return {
            "d": self.d,
            "periods": [[b.numerator, b.denominator] for b in self.periods],
            "resolution": list(self.resolution),
            "dealias_fraction": [2, 3],
        }

    @classmethod
    def from_descriptor(
        cls, desc: dict, malformed: str = "the lattice descriptor is malformed"
    ) -> "LatticeSpec":
        """Inverse of :meth:`descriptor`.  A missing key raises ValueError, and
        so does an entry of the wrong form, with a message that starts with
        ``malformed`` and names the entry.  ``dealias_fraction`` must be
        [2, 3], the one cutoff rule of :attr:`cutoffs`."""
        if not isinstance(desc, dict):
            raise ValueError(f"{malformed}: {desc!r} is not a JSON object")
        for key in ("periods", "resolution", "dealias_fraction"):
            if key not in desc:
                raise ValueError(f"the lattice descriptor lacks {key!r}")

        def entry(name, value, ok, what):
            if not ok:
                raise ValueError(f"{malformed}: {name} is {value!r}, not {what}")
            return value

        def integers(value):
            return isinstance(value, (list, tuple)) and all(type(n) is int for n in value)

        def fraction(name, pair):
            ok = integers(pair) and len(pair) == 2 and pair[1] != 0
            return Fraction(*entry(name, pair, ok, "a fraction [p, q] of integers with q != 0"))

        periods, resolution = desc["periods"], desc["resolution"]
        entry("periods", periods, isinstance(periods, (list, tuple)), "a list")
        entry("resolution", resolution, integers(resolution), "a list of integers")
        d = desc.get("d", len(periods))
        entry("d", d, type(d) is int and d == len(periods), f"the number of periods, {len(periods)}")
        dealias = desc["dealias_fraction"]
        entry("dealias_fraction", dealias, integers(dealias) and list(dealias) == [2, 3], "[2, 3]")
        return cls(
            periods=tuple(fraction(f"periods[{i}]", b) for i, b in enumerate(periods)),
            resolution=tuple(resolution),
        )

    @classmethod
    def square(cls, d: int, resolution: int, period=1):
        """Isotropic lattice: d axes, identical period and resolution."""
        return cls(
            periods=tuple(_as_fraction(period) for _ in range(d)),
            resolution=tuple(resolution for _ in range(d)),
        )


class SpectralField:
    """Dealiased Fourier coefficient table of a scalar or vector field.

    Coefficients are stored over the full FFT index grid with zeros outside
    the dealiasing mask.  Instances are treated as immutable values: all
    operations return new fields.
    """

    __slots__ = ("lattice", "coeffs")

    def __init__(self, lattice: LatticeSpec, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim == lattice.d:
            coeffs = coeffs[None]
        if coeffs.shape[1:] != lattice.resolution:
            raise ValueError(
                f"coefficient shape {coeffs.shape[1:]} does not match lattice"
            )
        self.lattice = lattice
        self.coeffs = _masked(coeffs, lattice.dealias_mask())

    # -- constructors ----------------------------------------------------

    @classmethod
    def _in_box(cls, lattice: LatticeSpec, coeffs: np.ndarray):
        """Wrap a complex array that is already zero outside the dealiased box.

        Skips the re-mask and the checks of ``__init__``; for Fourier
        multipliers of fields, sums of fields, and the transforms' own output.
        """
        out = cls.__new__(cls)
        out.lattice = lattice
        out.coeffs = coeffs
        return out

    @classmethod
    def zeros(cls, lattice: LatticeSpec, components: int = 1):
        shape = (components,) + lattice.resolution
        return cls(lattice, np.zeros(shape, dtype=np.complex128))

    # -- basic properties --------------------------------------------------

    @property
    def components(self) -> int:
        return self.coeffs.shape[0]

    def mode(self, index: Sequence[int]) -> np.ndarray:
        idx = tuple(int(m) % n for m, n in zip(index, self.lattice.resolution))
        return self.coeffs[(slice(None),) + idx]

    def mean_coefficient(self) -> np.ndarray:
        return self.coeffs[(slice(None),) + (0,) * self.lattice.d]

    def mode_power(self) -> np.ndarray:
        """Per-mode squared magnitude summed over components."""
        return np.sum(np.abs(self.coeffs) ** 2, axis=0)

    def l2_norm(self) -> float:
        return math.sqrt(float(np.sum(self.mode_power())))

    def conjugate_symmetry_defect(self) -> float:
        """max |c_k - conj(c_-k)|; a pair whose two members are both
        non-finite counts as matching."""
        mirror = np.conj(_mirror(self.coeffs, range(1, self.lattice.d + 1)))
        pairs = np.isfinite(self.coeffs) | np.isfinite(mirror)
        # subtract within the pairs alone: inf - inf would warn
        defect = np.subtract(self.coeffs, mirror, where=pairs, out=np.zeros_like(mirror))
        return float(np.max(np.abs(defect), where=pairs, initial=0.0))

    def is_reality_symmetric(self) -> bool:
        """Whether each component stands for a real function: conjugate-symmetry
        defect at most 1e-12 times the largest finite |c_k|."""
        magnitude = np.abs(self.coeffs)
        scale = float(np.max(magnitude, where=np.isfinite(magnitude), initial=0.0))
        return self.conjugate_symmetry_defect() <= 1e-12 * scale

    # -- arithmetic --------------------------------------------------------

    def _like(self, coeffs):
        return self._in_box(self.lattice, coeffs)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return self._like(self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return self._like(self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return self._like(self.coeffs * scalar)

    __rmul__ = __mul__

    def component(self, c: int) -> "SpectralField":
        return self._like(self.coeffs[c : c + 1])

    def scale_modes(self, weights: np.ndarray) -> "SpectralField":
        """Multiply coefficients by a real, radially even mode-weight array."""
        return self._like(_scale_modes(self.coeffs, weights))

    def _check_compatible(self, other: "SpectralField"):
        if other.lattice is not self.lattice and other.lattice != self.lattice:
            raise ValueError("fields live on different lattices")
        if other.components != self.components:
            raise ValueError("component count mismatch")


def _masked(coeffs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``coeffs`` times a boolean ``mask``, as a new array, without a warning:
    a non-finite coefficient stays as given where the mask is set and becomes
    0 where it is not.  Finite coefficients take the product's bytes, signed
    zeros included."""
    with np.errstate(invalid="ignore"):
        out = coeffs * mask
    bad = ~np.isfinite(coeffs)
    out[bad] = np.where(np.broadcast_to(mask, coeffs.shape)[bad], coeffs[bad], 0)
    return out


def _scale_modes(coeffs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each component of ``coeffs`` times the per-mode ``weights``, as a new
    array.  One component at a time: a broadcast operand makes numpy allocate
    an iterator buffer as large as the result.  Weights stored as complex
    also spare it a cast buffer."""
    out = np.empty_like(coeffs)
    for component, scaled in zip(coeffs, out):
        np.multiply(component, weights, out=scaled)
    return out


def _dot(m: np.ndarray, y: np.ndarray, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """sum_c m[c] y[c] into ``out`` as :func:`_scale_modes`, ``term`` scratch."""
    np.multiply(m[0], y[0], out=out)
    for mc, yc in zip(m[1:], y[1:]):
        np.add(out, np.multiply(mc, yc, out=term), out=out)
    return out


def _mirror(x: np.ndarray, axes) -> np.ndarray:
    """``x`` at the mirrored index (-i) mod n along each of ``axes``.  On the
    mode axes, ``np.conj`` of it is conj(c_{-k}), which a real field equals."""
    for axis in axes:
        n = x.shape[axis]
        x = np.take(x, -np.arange(n) % n, axis=axis)
    return x


# Real fields on the retained half spectrum: arrays of shape
# (components, *leading axes, cut + 1) holding the columns 0..cut of the last
# axis, zero outside the dealiased box on the leading axes.  The columns
# -cut..-1 of a Hermitian field are the conjugates of the mirrored columns
# 1..cut, and the Nyquist column is never read, because ``3*cut < n``.  The
# half-spectrum transforms leave their scales (``_scales``) to the callers,
# which fold them into multipliers that they apply anyway.


@_cached
def _scales(lattice: LatticeSpec) -> tuple[float, float]:
    """The inverse scale 1/sqrt(vol) and the forward scale sqrt(vol)/prod(N)."""
    root = math.sqrt(lattice.volume)
    return 1.0 / root, root / math.prod(lattice.resolution)


def _half_forward(
    values: np.ndarray, lattice: LatticeSpec, spectrum: np.ndarray | None = None
) -> np.ndarray:
    """Half spectrum of real grid samples, divided by the forward scale.

    A real-data FFT along the last axis into ``spectrum`` (complex, of shape
    ``values.shape[:-1] + (n//2 + 1,)``; a new array without it), then
    complex FFTs along the others, in the order of ``fftn``, in place on its
    retained columns, which are returned: a view into the spectrum.
    """
    half = np.fft.rfft(values, axis=-1, out=spectrum)[..., : lattice.cutoffs[-1] + 1]
    for axis in range(lattice.d - 1, 0, -1):
        np.fft.fft(half, axis=axis, out=half)
    for axis, (c, m) in enumerate(zip(lattice.cutoffs, lattice.resolution[:-1]), start=1):
        half[(slice(None),) * axis + (slice(c + 1, m - c),)] = 0.0
    return half


def _half_inverse(
    half: np.ndarray, lattice: LatticeSpec, out: np.ndarray | None = None
) -> np.ndarray:
    """Real grid values of a half spectrum, times sqrt(vol).

    Complex inverse FFTs along the leading axes, in the order of ``ifftn``,
    in place on ``half``, which is lost; then a real-data inverse FFT along
    the last axis into ``out`` (a new array without it), which zero-pads the
    columns beyond cut and drops the imaginary part of the column-0 bins,
    the Hermitian part of that column.
    """
    for axis in range(lattice.d - 1, 0, -1):
        np.fft.ifft(half, axis=axis, norm="forward", out=half)
    return np.fft.irfft(half, n=lattice.resolution[-1], axis=-1, norm="forward", out=out)


def _half_to_full(half: np.ndarray, lattice: LatticeSpec) -> np.ndarray:
    """The full, masked, Hermitian coefficient grid of a half spectrum."""
    cut, n = lattice.cutoffs[-1], lattice.resolution[-1]
    out = np.zeros(half.shape[:-1] + (n,), dtype=np.complex128)
    out[..., : cut + 1] = half
    out[..., n - cut :] = np.conj(_mirror(half[..., cut:0:-1], range(1, lattice.d)))
    return out


def forward_transform(lattice: LatticeSpec, values: np.ndarray) -> SpectralField:
    """Grid samples to normalized, dealiased Fourier coefficients.

    ``values`` has shape ``(components, *resolution)``, or the lattice's
    shape for one component.  Real samples (or complex samples with zero
    imaginary part) give a Hermitian field through a real-data FFT.
    """
    values = np.asarray(values)
    if values.ndim == lattice.d:
        values = values[None]
    if values.shape[1:] != lattice.resolution:
        raise ValueError(
            f"grid shape {values.shape[1:]} does not match lattice {lattice.resolution}"
        )
    if np.iscomplexobj(values) and np.max(np.abs(values.imag), initial=0.0) == 0.0:
        values = values.real
    scale = _scales(lattice)[1]
    if not np.iscomplexobj(values):
        half = _half_forward(values, lattice)
        half *= scale
        return SpectralField._in_box(lattice, _half_to_full(half, lattice))
    coeffs = np.fft.fftn(values, axes=tuple(range(1, lattice.d + 1))) * scale
    return SpectralField(lattice, coeffs)


def inverse_transform(field: SpectralField) -> np.ndarray:
    """Fourier coefficients to grid samples of shape ``(components,
    *resolution)`` (exact inverse on retained modes).

    A field whose coefficients are Hermitian
    (:meth:`SpectralField.is_reality_symmetric`) gives real (float64) samples,
    the half inverse of its columns 0..cut.  Any other field gives complex
    samples.
    """
    lattice = field.lattice
    coeffs = field.coeffs
    # a non-finite coefficient gives non-finite samples, without a warning
    with np.errstate(invalid="ignore", over="ignore"):
        if field.is_reality_symmetric():
            half = coeffs[..., : lattice.cutoffs[-1] + 1] * _scales(lattice)[0]
            return _half_inverse(half, lattice)
        npoints = float(np.prod(lattice.resolution))
        return np.fft.ifftn(coeffs, axes=tuple(range(1, lattice.d + 1))) * (
            npoints / math.sqrt(lattice.volume)
        )


def dealiased_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product, exact on retained modes by the 2/3-rule cutoff.

    Operand component counts must match, or one operand must be scalar (which
    is then broadcast against the other).  Operands with Hermitian
    coefficients are multiplied as real grid values.
    """
    if f.lattice is not g.lattice and f.lattice != g.lattice:
        raise ValueError("fields live on different lattices")
    fvals = inverse_transform(f)
    gvals = inverse_transform(g)
    if f.components == g.components:
        prod = fvals * gvals
    elif f.components == 1:
        prod = fvals[0][None] * gvals
    elif g.components == 1:
        prod = fvals * gvals[0][None]
    else:
        raise ValueError("incompatible component counts for product")
    return forward_transform(f.lattice, prod)


def zero_mean_split(field: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Split into (mean part, zero-mean remainder); the parts sum to the field."""
    mean = np.zeros_like(field.coeffs)
    zero_idx = (slice(None),) + (0,) * field.lattice.d
    mean[zero_idx] = field.coeffs[zero_idx]
    rest = field.coeffs - mean
    return SpectralField(field.lattice, mean), SpectralField(field.lattice, rest)
