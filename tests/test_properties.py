"""Property tests over random rational-period lattices (hypothesis).

Each property is drawn on d = 2, 3 lattices with periods p/q, 1 <= p, q <= 3,
and small even resolutions; the examples are derandomized and capped so the
module runs in a few seconds.
"""

import math
import os
import tempfile
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lowmach.dyadic import NormSpec, norm
from lowmach.lattice import (
    LatticeSpec,
    _mirror,
    checkpoint_field,
    forward_transform,
    inverse_transform,
    zero_mean_split,
)
from lowmach.operators import acoustic_transform, helmholtz_project, wave_group
from lowmach.solvers import load_checkpoint, save_checkpoint
from oracles import from_full, full, spectral_derivative

PROPERTY = settings(max_examples=15, deadline=None, derandomize=True)


@st.composite
def lattices(draw):
    d = draw(st.sampled_from([2, 3]))
    periods = tuple(
        Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 3))) for _ in range(d)
    )
    sizes = [6, 8, 10, 12] if d == 2 else [6, 8]
    resolution = tuple(draw(st.sampled_from(sizes)) for _ in range(d))
    return LatticeSpec(periods, resolution)


@st.composite
def lattice_and_rng(draw):
    return draw(lattices()), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def real_field(lattice, rng, components=1):
    values = rng.standard_normal((components,) + lattice.resolution)
    return forward_transform(lattice, values)


def coefficient_field(lattice, rng, components=1):
    """A field drawn by its coefficients: the Hermitian part of complex
    normal coefficients on the dealiased box, as a half spectrum."""
    shape = (components,) + lattice.resolution
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs = 0.5 * (coeffs + np.conj(_mirror(coeffs, range(1, lattice.d + 1))))
    return from_full(lattice, coeffs * lattice.dealias_mask())


def max_abs(x) -> float:
    return float(np.max(np.abs(x)))


@PROPERTY
@given(lattice_and_rng())
def test_parseval(case):
    lattice, rng = case
    cell = lattice.volume / np.prod(lattice.resolution)
    for field in (real_field(lattice, rng, 2), coefficient_field(lattice, rng, 2)):
        values = inverse_transform(field)
        integral = float(np.sum(np.abs(values) ** 2)) * cell
        assert math.isclose(integral, field.l2_norm() ** 2, rel_tol=1e-12)


@PROPERTY
@given(lattice_and_rng())
def test_forward_inverse_identity_on_both_paths(case):
    """Fields built from grid samples and from coefficients."""
    lattice, rng = case
    for field in (real_field(lattice, rng, 3), coefficient_field(lattice, rng, 3)):
        back = forward_transform(lattice, inverse_transform(field))
        assert max_abs(back.coeffs - field.coeffs) <= 1e-13 * max_abs(field.coeffs)


@PROPERTY
@given(lattice_and_rng())
def test_helmholtz_identity(case):
    lattice, rng = case
    u = real_field(lattice, rng, lattice.d)
    pu, qu = helmholtz_project(u, "P"), helmholtz_project(u, "Q")
    scale = max_abs(u.coeffs)
    assert max_abs((pu + qu).coeffs - u.coeffs) <= 1e-13 * scale
    assert max_abs(spectral_derivative(pu, "div").coeffs) <= 1e-12 * scale
    assert max_abs(helmholtz_project(qu, "P").coeffs) <= 1e-12 * scale


@PROPERTY
@given(lattice_and_rng(), st.floats(-50.0, 50.0))
def test_wave_group_isometry(case, tau):
    lattice, rng = case
    _, a = zero_mean_split(real_field(lattice, rng))
    qu = helmholtz_project(real_field(lattice, rng, lattice.d), "Q")
    V = acoustic_transform(a, qu)
    W = wave_group(V, tau)
    assert math.isclose(W.l2_norm(), V.l2_norm(), rel_tol=1e-13)
    spec = NormSpec(kind="H", s=0.75)
    assert math.isclose(norm(W, spec), norm(V, spec), rel_tol=1e-12)


@PROPERTY
@given(lattice_and_rng(), st.floats(0.0, 1e3, allow_nan=False))
def test_checkpoint_round_trip(case, time):
    lattice, rng = case
    fields = {"a": real_field(lattice, rng), "u": coefficient_field(lattice, rng, lattice.d)}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.lmc")
        save_checkpoint(path, lattice, time, fields, meta={"kind": "property"})
        loaded, t, arrays, meta = load_checkpoint(path)
    assert loaded == lattice
    assert t == time
    assert meta == {"kind": "property"}
    for name, field in fields.items():
        assert np.array_equal(arrays[name], full(field))
        assert np.array_equal(checkpoint_field(lattice, name, arrays[name]).coeffs, field.coeffs)
