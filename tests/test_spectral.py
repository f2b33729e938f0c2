"""Transform, derivative, and product tests for the spectral core."""

import dataclasses
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest

from lowmach import dyadic, functionals, operators, resonance
from lowmach.lattice import (
    LatticeSpec,
    SpectralField,
    dealiased_product,
    forward_transform,
    inverse_transform,
    zero_mean_split,
)
from oracles import (
    _box_modes,
    convolution_product,
    field_from_modes,
    grid_points,
    sg,
    spectral_derivative,
)


def random_field(lattice, rng, components=1):
    """Hermitian random band-limited field."""
    shape = (components,) + lattice.resolution
    return forward_transform(lattice, rng.standard_normal(shape))


def test_a_field_holds_its_lattice_and_coefficients_alone():
    """Whether a field is real is read from its coefficients, not stored."""
    assert SpectralField.__slots__ == ("lattice", "coeffs")


def test_constant_field_transform():
    lat = LatticeSpec.square(2, 8)
    c = 2.5
    spec = forward_transform(lat, np.full(lat.resolution, c))
    assert spec.mean_coefficient()[0] == pytest.approx(c * math.sqrt(lat.volume))
    other = spec.coeffs.copy()
    other[(0,) + (0,) * lat.d] = 0.0
    assert np.max(np.abs(other)) < 1e-13


def test_cosine_coefficients():
    lat = LatticeSpec.square(2, 16)
    x = grid_points(lat)[0]
    spec = forward_transform(lat, np.cos(x))
    expected = 0.5 * math.sqrt(lat.volume)
    assert spec.mode((1, 0))[0] == pytest.approx(expected, rel=1e-13)
    assert spec.mode((-1, 0))[0] == pytest.approx(expected, rel=1e-13)


def test_round_trip_and_parseval(lat16):
    rng = np.random.default_rng(7)
    for _ in range(20):
        field = random_field(lat16, rng)
        grid = inverse_transform(field)
        back = forward_transform(lat16, grid)
        scale = np.max(np.abs(field.coeffs))
        assert np.max(np.abs(back.coeffs - field.coeffs)) <= 1e-12 * scale
        integral = np.sum(np.abs(grid) ** 2) * (
            lat16.volume / np.prod(lat16.resolution)
        )
        coeff_sum = float(np.sum(field.mode_power()))
        assert integral == pytest.approx(coeff_sum, rel=1e-12)


def test_single_mode_inverse():
    lat = LatticeSpec.square(2, 8)
    amp = math.sqrt(lat.volume)
    field = field_from_modes(lat, {(1, 0): amp})
    grid = inverse_transform(field)
    x = grid_points(lat)[0]
    assert np.allclose(grid[0], np.exp(1j * x), atol=1e-12)


def test_zero_coefficients_inverse(lat16):
    grid = inverse_transform(SpectralField.zeros(lat16))
    assert np.all(grid == 0)


def test_reality_symmetric_inverse_is_real(lat16):
    rng = np.random.default_rng(3)
    field = random_field(lat16, rng)
    assert inverse_transform(field).dtype == np.float64
    complex_view = complex_fft_values(lat16, field.coeffs)
    assert np.max(np.abs(complex_view.imag)) <= 1e-12


def test_forward_transform_checks_the_grid_shape(lat16):
    values = np.random.default_rng(4).standard_normal(lat16.resolution)
    # a grid of the lattice's shape is one component
    assert np.array_equal(
        forward_transform(lat16, values).coeffs, forward_transform(lat16, values[None]).coeffs
    )
    for shape in [(8, 8), (2, 16, 8), (3, 8, 16)]:
        with pytest.raises(ValueError) as info:
            forward_transform(lat16, np.zeros(shape))
        assert str(shape[-2:]) in str(info.value) and str((16, 16)) in str(info.value)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1.0, np.inf)], ids=repr)
def test_non_finite_coefficients_are_masked_without_warning(lat16, bad):
    """A non-finite coefficient is kept as given at a mode in the box and set
    to 0 outside it, in both field classes, with no RuntimeWarning (an error
    under the suite's filterwarnings); finite coefficients keep the bytes of
    the masked product, signed zeros included."""
    rng = np.random.default_rng(6)
    shape = (2,) + lat16.resolution
    finite = rng.standard_normal(shape) - 1j * rng.standard_normal(shape)
    inside, outside = (0, 1, 0), (1, 7, 0)  # lat16 keeps |n_h| <= 5
    coeffs = finite.copy()
    coeffs[inside] = coeffs[outside] = bad
    builds = [
        (lambda c: SpectralField(lat16, c), lat16.dealias_mask()),
        (lambda c: operators.AcousticCoeffs(lat16, *c), operators._acoustic_mask(lat16)),
    ]
    for build, mask in builds:
        got = build(coeffs).coeffs
        np.testing.assert_array_equal(got[inside], complex(bad))
        assert got[outside] == 0
        expected = finite * mask
        expected[inside] = expected[outside] = got[inside] = got[outside] = 0
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


TRANSFORM_LATTICES = [
    LatticeSpec.square(2, 16),
    LatticeSpec(periods=(1, Fraction(3, 2)), resolution=(16, 12)),
    LatticeSpec.square(3, 8),
    LatticeSpec(periods=(1, Fraction(1, 2), Fraction(2, 3)), resolution=(8, 8, 6)),
]


def complex_fft_coefficients(lattice, values):
    """Masked coefficients of grid values through the complex FFT."""
    axes = tuple(range(1, lattice.d + 1))
    scale = math.sqrt(lattice.volume) / np.prod(lattice.resolution)
    return np.fft.fftn(values, axes=axes) * scale * lattice.dealias_mask()


def complex_fft_values(lattice, coeffs):
    """Grid values of coefficients through the complex inverse FFT."""
    axes = tuple(range(1, lattice.d + 1))
    return np.fft.ifftn(coeffs, axes=axes) * (
        np.prod(lattice.resolution) / math.sqrt(lattice.volume)
    )


@pytest.mark.parametrize("lattice", TRANSFORM_LATTICES, ids=lambda lat: str(lat.resolution))
def test_real_transforms_match_complex_on_hermitian_fields(lattice):
    rng = np.random.default_rng(31)
    values = rng.standard_normal((3,) + lattice.resolution)
    field = forward_transform(lattice, values)
    ref = complex_fft_coefficients(lattice, values)
    scale = np.max(np.abs(ref))
    assert field.is_reality_symmetric()
    assert np.max(np.abs(field.coeffs - ref)) <= 1e-14 * scale
    assert field.conjugate_symmetry_defect() <= 1e-15 * scale
    # complex samples with zero imaginary part take the same path
    same = forward_transform(lattice, values.astype(np.complex128))
    assert np.array_equal(same.coeffs, field.coeffs)
    grid = inverse_transform(field)
    assert grid.dtype == np.float64
    full = complex_fft_values(lattice, field.coeffs)
    assert np.max(np.abs(grid - full.real)) <= 1e-13 * np.max(np.abs(full))
    assert np.max(np.abs(full.imag)) <= 1e-13 * np.max(np.abs(full))


@pytest.mark.parametrize("lattice", TRANSFORM_LATTICES, ids=lambda lat: str(lat.resolution))
def test_non_hermitian_fields_take_complex_transforms(lattice):
    """A field is real when its coefficients are Hermitian: a field that is
    not gives the complex inverse, and a product with it the product of the
    complex grid values."""
    rng = np.random.default_rng(32)
    shape = (2,) + lattice.resolution
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    field = SpectralField(lattice, coeffs)
    assert field.conjugate_symmetry_defect() > 0.1
    full = complex_fft_values(lattice, field.coeffs)
    assert np.array_equal(inverse_transform(field), full)
    real = random_field(lattice, rng)
    prod = dealiased_product(field.component(0), real)
    ref = complex_fft_coefficients(lattice, full[:1] * inverse_transform(real))
    assert np.max(np.abs(prod.coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_tiny_complex_mode_is_not_taken_for_a_real_field(lat16):
    """The Hermitian test scales with the field, with no floor of 1: one
    complex mode of amplitude 1e-14 is not real, and its inverse is the
    complex one."""
    field = field_from_modes(lat16, {(1, 2): 1e-14j})
    assert not field.is_reality_symmetric()
    grid = inverse_transform(field)
    assert np.array_equal(grid, complex_fft_values(lat16, field.coeffs))
    assert np.max(np.abs(grid.imag)) > 0
    # with its mirror it is real, at any amplitude
    real = field_from_modes(lat16, {(1, 2): 1e-14j, (-1, -2): -1e-14j})
    assert real.is_reality_symmetric()
    assert inverse_transform(real).dtype == np.float64


def test_non_finite_pair_keeps_the_real_inverse(lat16):
    """A pair whose two members are both non-finite matches, and the scale is
    the largest finite |c_k|: a real field with NaN at (1, 0) and (-1, 0)
    inverts to real samples.  NaN at (1, 0) alone is a mismatch, so the
    complex inverse spreads it to every sample."""
    field = forward_transform(lat16, np.random.default_rng(34).standard_normal((1, 16, 16)))
    pair, alone = field.coeffs.copy(), field.coeffs.copy()
    pair[:, 1, 0] = pair[:, -1, 0] = alone[:, 1, 0] = math.nan
    assert inverse_transform(SpectralField(lat16, pair)).dtype == np.float64
    grid = inverse_transform(SpectralField(lat16, alone))
    assert grid.dtype == np.complex128 and np.isnan(grid).all()


def test_infinite_pair_inverts_without_warning(lat16):
    """An infinite pair at (1, 0) and (-1, 0) matches as a NaN pair does:
    the defect subtracts within the pairs that count alone, since inf - inf
    would warn, and the real inverse gives float64 samples with no warning."""
    field = forward_transform(lat16, np.random.default_rng(34).standard_normal((1, 16, 16)))
    coeffs = field.coeffs.copy()
    coeffs[:, 1, 0] = coeffs[:, -1, 0] = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = inverse_transform(SpectralField(lat16, coeffs))
    assert grid.dtype == np.float64


@pytest.mark.parametrize("lattice", TRANSFORM_LATTICES, ids=lambda lat: str(lat.resolution))
def test_complex_fields_keep_complex_transforms(lattice):
    rng = np.random.default_rng(33)
    shape = (2,) + lattice.resolution
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    field = SpectralField(lattice, coeffs)
    grid = inverse_transform(field)
    assert grid.dtype == np.complex128
    assert np.array_equal(grid, complex_fft_values(lattice, field.coeffs))
    back = forward_transform(lattice, grid)
    assert not back.is_reality_symmetric()
    assert np.array_equal(back.coeffs, complex_fft_coefficients(lattice, grid))
    assert np.max(np.abs(back.coeffs - field.coeffs)) <= 1e-13 * np.max(np.abs(coeffs))


def test_laplacian_single_mode():
    lat = LatticeSpec.square(2, 8)
    field = field_from_modes(lat, {(1, 0): 1.0})
    lap = spectral_derivative(field, "laplacian")
    assert lap.mode((1, 0))[0] == pytest.approx(-1.0)


def test_div_grad_is_laplacian(lat16):
    rng = np.random.default_rng(11)
    field = random_field(lat16, rng)
    lap1 = spectral_derivative(spectral_derivative(field, "grad"), "div")
    lap2 = spectral_derivative(field, "laplacian")
    scale = max(1.0, np.max(np.abs(lap2.coeffs)))
    assert np.max(np.abs(lap1.coeffs - lap2.coeffs)) <= 1e-12 * scale


def test_grad_of_constant_is_zero():
    lat = LatticeSpec.square(2, 8)
    field = field_from_modes(lat, {(0, 0): 3.0})
    grad = spectral_derivative(field, "grad")
    assert np.max(np.abs(grad.coeffs)) == 0.0


def test_derivative_kind_errors(lat16):
    scalar = SpectralField.zeros(lat16, components=1)
    vector = SpectralField.zeros(lat16, components=2)
    with pytest.raises(ValueError):
        spectral_derivative(vector, "grad")
    with pytest.raises(ValueError):
        spectral_derivative(scalar, "div")


def test_product_single_modes():
    lat = LatticeSpec.square(2, 8)
    f = field_from_modes(lat, {(1, 0): 1.0})
    prod = dealiased_product(f, f)
    oracle = convolution_product(f, f)
    assert prod.mode((2, 0))[0] == pytest.approx(oracle.mode((2, 0))[0], rel=1e-12)
    # only the (2, 0) mode survives
    masked = prod.coeffs.copy()
    masked[0, 2, 0] = 0.0
    assert np.max(np.abs(masked)) < 1e-13


def test_product_with_constant(lat16):
    rng = np.random.default_rng(5)
    g = random_field(lat16, rng)
    c = field_from_modes(lat16, {(0, 0): 2.0 * math.sqrt(lat16.volume)})
    prod = dealiased_product(c, g)
    assert np.max(np.abs(prod.coeffs - 2.0 * g.coeffs)) <= 1e-12 * np.max(
        np.abs(g.coeffs)
    )


def test_product_matches_convolution_oracle(lat16):
    rng = np.random.default_rng(17)
    for _ in range(3):
        f = random_field(lat16, rng)
        g = random_field(lat16, rng)
        fast = dealiased_product(f, g)
        slow = convolution_product(f, g)
        scale = max(1.0, np.max(np.abs(slow.coeffs)))
        assert np.max(np.abs(fast.coeffs - slow.coeffs)) <= 1e-12 * scale


def test_product_lattice_mismatch():
    a = SpectralField.zeros(LatticeSpec.square(2, 8))
    b = SpectralField.zeros(LatticeSpec.square(2, 16))
    with pytest.raises(ValueError):
        dealiased_product(a, b)


def test_reality_preserved_by_products_and_derivatives(lat16):
    rng = np.random.default_rng(23)
    f = random_field(lat16, rng)
    g = random_field(lat16, rng)
    prod = dealiased_product(f, g)
    grad = spectral_derivative(f, "grad")
    assert prod.is_reality_symmetric()
    assert grad.is_reality_symmetric()


def test_zero_mean_split():
    lat = LatticeSpec.square(2, 8)
    x = grid_points(lat)[0]
    g = forward_transform(lat, 1.0 + np.cos(x))
    mean, rest = zero_mean_split(g)
    assert rest.mean_coefficient()[0] == 0.0
    total = mean + rest
    assert np.max(np.abs(total.coeffs - g.coeffs)) == 0.0
    # mean part is the constant 1
    back = inverse_transform(mean)
    assert np.allclose(back, 1.0, atol=1e-13)


def test_zero_mean_split_trivial_cases(lat16):
    const = field_from_modes(lat16, {(0, 0): 4.0})
    mean, rest = zero_mean_split(const)
    assert np.max(np.abs(rest.coeffs)) == 0.0
    assert np.max(np.abs(mean.coeffs - const.coeffs)) == 0.0

    wave = field_from_modes(lat16, {(1, 1): 1.0})
    mean2, rest2 = zero_mean_split(wave)
    assert np.max(np.abs(mean2.coeffs)) == 0.0
    assert np.max(np.abs(rest2.coeffs - wave.coeffs)) == 0.0


def test_lattice_validation():
    with pytest.raises(ValueError):
        LatticeSpec.square(2, 7)  # odd resolution
    with pytest.raises(ValueError):
        LatticeSpec(periods=(1,), resolution=(8, 8))


def test_cutoff_respects_fraction_bound():
    for n in (4, 8, 12, 16, 48, 64):
        lat = LatticeSpec.square(1, n)
        (cut,) = lat.cutoffs
        assert cut <= (2 / 3) * n / 2
        assert 3 * cut < n  # alias-free quadratic products


def test_cutoff_is_the_two_thirds_rule():
    """The one cutoff rule, (n - 1) // 3 per axis, multiples of 3 included;
    a lattice has no other setting, and its descriptor records the rule."""
    assert [f.name for f in dataclasses.fields(LatticeSpec)] == ["periods", "resolution"]
    for n in (6, 12, 24, 48, 64, 96):
        lat = LatticeSpec.square(1, n)
        assert lat.cutoffs == ((n - 1) // 3,)
        assert lat.descriptor()["dealias_fraction"] == [2, 3]


def test_anisotropic_wavevectors():
    lat = LatticeSpec(periods=(2, 1), resolution=(16, 8))
    kx = lat.wavevectors()[0]
    assert kx[1, 0] == pytest.approx(0.5)
    assert lat.norm_scale() == 4


@pytest.mark.parametrize(
    "lat",
    [
        LatticeSpec.square(1, 12),
        LatticeSpec((1, Fraction(3, 2)), (16, 12)),
        LatticeSpec((1, Fraction(1, 2), Fraction(2, 3)), (8, 8, 6)),
    ],
    ids=["1d", "2d-rational", "3d-rational"],
)
def test_half_box(lat):
    index, mirror = lat.half_box()
    last = lat.index_grids()[-1].ravel()
    assert np.all(np.diff(index) > 0) and np.all(last[index] >= 0)
    assert np.array_equal(last[mirror], -last[index])
    assert np.array_equal(lat.k_squared().ravel()[mirror], lat.k_squared().ravel()[index])
    # each dealiased mode is a half-box mode or the n_d-mirror of one, once
    covered = np.concatenate((index, mirror[last[index] > 0]))
    assert np.array_equal(np.sort(covered), np.flatnonzero(lat.dealias_mask()))


def test_sign_grid():
    lat = LatticeSpec.square(2, 8)
    signs = lat.sign_grid()
    assert signs[0, 3] == 1  # k = (0, 3)
    assert signs[-1, 5] == -1  # k = (-1, 5) -> wrapped index
    n1, n2 = lat.index_grids()
    nonzero = ((n1 != 0) | (n2 != 0)) & lat.dealias_mask()
    # sg(-k) = -sg(k) on retained modes (Nyquist rows are their own negation)
    flipped = np.roll(np.flip(np.flip(signs, 0), 1), (1, 1), axis=(0, 1))
    assert np.all(signs[nonzero] == -flipped[nonzero])
    assert signs[0, 0] == 0


# a square lattice and a 3D lattice with rational periods
LATTICES = [
    LatticeSpec.square(2, 16),
    LatticeSpec(periods=(1, Fraction(3, 2), Fraction(1, 2)), resolution=(8, 8, 6)),
]
LATTICE_IDS = ["2d", "3d-rational"]


@pytest.mark.parametrize("lat", LATTICES, ids=LATTICE_IDS)
def test_sign_grid_matches_sg(lat):
    # the grid the library uses against the scalar definition, mode by mode
    signs = lat.sign_grid()
    modes = _box_modes(lat, False)
    assert len(modes) == np.count_nonzero(lat.dealias_mask()) - 1
    for n, raw in modes:
        assert signs[raw] == sg(n), n


# every table derived from a lattice alone, each cached once per lattice
CACHED_TABLES = {
    "lowmach.lattice.LatticeSpec.cutoffs": lambda lat: lat.cutoffs,
    "lowmach.lattice.LatticeSpec.index_grids": lambda lat: lat.index_grids(),
    "lowmach.lattice.LatticeSpec.wavevectors": lambda lat: lat.wavevectors(),
    "lowmach.lattice.LatticeSpec.half_wavevectors": lambda lat: lat.half_wavevectors(),
    "lowmach.lattice.LatticeSpec.half_box": lambda lat: lat.half_box(),
    "lowmach.lattice.LatticeSpec.k_squared": lambda lat: lat.k_squared(),
    "lowmach.lattice.LatticeSpec.k_modulus": lambda lat: lat.k_modulus(),
    "lowmach.lattice.LatticeSpec.dealias_mask": lambda lat: lat.dealias_mask(),
    "lowmach.lattice.LatticeSpec.norm_scale": lambda lat: lat.norm_scale(),
    "lowmach.lattice.LatticeSpec.sign_grid": lambda lat: lat.sign_grid(),
    "lowmach.operators._signed_modulus": operators._signed_modulus,
    "lowmach.operators._safe_k_modulus": operators._safe_k_modulus,
    "lowmach.operators._safe_inv_ksq": operators._safe_inv_ksq,
    "lowmach.operators._acoustic_mask": operators._acoustic_mask,
    "lowmach.dyadic.block_range": dyadic.block_range,
    "lowmach.dyadic._block_weights": lambda lat: dyadic._block_weights(lat, 0),
    "lowmach.dyadic._energy_matrix": lambda lat: dyadic._energy_matrix(lat, (1.0,)),
    "lowmach.functionals._box_multipliers": functionals._box_multipliers,
    "lowmach.resonance._limit_table": resonance._limit_table,
}


def _members(value):
    """The members of a tuple or the fields of a dataclass."""
    if dataclasses.is_dataclass(value):
        return [getattr(value, field.name) for field in dataclasses.fields(value)]
    return list(value)


def _arrays(value):
    """The arrays in a cached value, tuple members and dataclass fields
    included."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple) or dataclasses.is_dataclass(value):
        return [a for v in _members(value) for a in _arrays(v)]
    return []


def _assert_equal_tables(a, b):
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    elif isinstance(a, tuple) or dataclasses.is_dataclass(a):
        assert len(_members(a)) == len(_members(b))
        for x, y in zip(_members(a), _members(b)):
            _assert_equal_tables(x, y)
    else:
        assert a == b


class TestLatticeCache:
    """The contract of ``lattice._cached``: each table is built once per
    lattice, is read-only, and survives pickling with the lattice."""

    @pytest.fixture(params=LATTICES, ids=LATTICE_IDS)
    def warm(self, request):
        lattice = LatticeSpec(request.param.periods, request.param.resolution)
        for table in CACHED_TABLES.values():
            table(lattice)
        return lattice

    def test_cached_set(self, warm):
        assert {name for name, _ in warm._cache} == set(CACHED_TABLES)

    def test_read_only(self, warm):
        for key, value in warm._cache.items():
            assert not isinstance(value, list), key
            for array in _arrays(value):
                assert not array.flags.writeable, key
                with pytest.raises(ValueError):
                    array[(0,) * array.ndim] = 0
        assert _arrays(warm._cache[("lowmach.dyadic._energy_matrix", ((1.0,),))])
        assert len(_arrays(warm._cache[("lowmach.resonance._limit_table", ())])) == 9

    def test_second_call_same_object(self, warm):
        cached = dict(warm._cache)
        for name, table in CACHED_TABLES.items():
            assert table(warm) is table(warm), name
        assert warm._cache.keys() == cached.keys()
        assert all(warm._cache[key] is value for key, value in cached.items())

    def test_pickled_warm_cache(self, warm):
        again = pickle.loads(pickle.dumps(warm))
        assert again == warm and again._cache.keys() == warm._cache.keys()
        for name, table in CACHED_TABLES.items():
            value = table(again)
            _assert_equal_tables(value, table(warm))
            assert all(not a.flags.writeable for a in _arrays(value)), name
        assert again._cache.keys() == warm._cache.keys()
