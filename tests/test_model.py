import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iondeco import model
from iondeco.errors import NumericalError, ValidationError

import oracles


def test_block_couplings_direct_substitution():
    block = model.build_hamiltonian(math.sqrt(15.0), 1.0, model.ModeIndices(1, 1))
    assert block.a == pytest.approx(1.0, abs=1e-12)
    assert block.mu == pytest.approx(4.0, abs=1e-12)
    assert block.mu / block.a == pytest.approx(4.0, abs=1e-12)


def test_block_couplings_consistency():
    block = model.build_hamiltonian(2.0, 1.5 * math.sqrt(6.0), model.ModeIndices(2, 3))
    assert block.mu >= max(block.a, 2.0)
    assert block.mu**2 == pytest.approx(block.a**2 + 2.0**2, rel=1e-15)
    assert block.mu / block.a >= 1.0


def test_build_hamiltonian_pattern():
    block = model.build_hamiltonian(2.0, 1.0, model.ModeIndices(1, 1))
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = 2.0
    expected[2, 3] = expected[3, 2] = 2.0
    expected[0, 3] = expected[3, 0] = 2.0
    np.testing.assert_allclose(block.entries, expected)


def test_build_hamiltonian_decoupled_block():
    block = model.build_hamiltonian(1.0, 0.0, model.ModeIndices(0, 3))
    assert block.entries[0, 3] == 0.0
    assert block.entries[0, 1] == 1.0


def test_build_hamiltonian_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        omega, a = rng.uniform(0, 5, size=2)
        m, n = rng.integers(0, 4, size=2)
        block = model.build_hamiltonian(omega, a, model.ModeIndices(int(m), int(n)))
        np.testing.assert_array_equal(block.entries, block.entries.T)


def test_mode_indices_reject_negative():
    with pytest.raises(ValidationError):
        model.ModeIndices(-1, 0)


def test_build_hamiltonian_rejects_bad_couplings():
    for name in ("omega", "a"):
        for bad in (-1.0, -5e-324, -math.inf, math.nan, math.inf):
            couplings = {"omega": 1.0, "a": 1.0, name: bad}
            with pytest.raises(ValidationError, match=f"{name} must be finite and nonnegative"):
                model.build_hamiltonian(couplings["omega"], couplings["a"], model.ModeIndices(1, 1))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(omega=st.floats(0.0, allow_subnormal=True, allow_infinity=False),
       a=st.floats(0.0, sys.float_info.max / 2.0, allow_subnormal=True),
       m=st.integers(0, 50), n=st.integers(0, 50))
@example(omega=5e-324, a=sys.float_info.max / 2.0, m=0, n=0)
@example(omega=sys.float_info.max, a=5e-324, m=1, n=3)
def test_build_hamiltonian_reads_its_couplings_back(omega, a, m, n):
    """omega and a come back bit for bit, whatever m and n: 2a and its half are exact below the overflow."""
    block = model.build_hamiltonian(omega, a, model.ModeIndices(m, n))
    assert (block.omega.hex(), block.a.hex()) == (omega.hex(), a.hex())


def spectra_for(omega, a):
    modes = model.ModeIndices(1, 1)
    block = model.build_hamiltonian(omega, a, modes)
    return block, model.spectrum_analytic(block), oracles.spectrum_numeric(block)


def assert_spectrum_bits_equal(block):
    got, want = model.spectrum_analytic(block), oracles.spectrum_per_vector(block)
    assert got.eigenvectors.flags.c_contiguous  # the layout the engines' BLAS products read
    # shared by experiments.scaled_system's memo, the mu = 0 branch too
    assert not any(x.flags.writeable for x in (block.entries, got.eigenvalues, got.eigenvectors))
    for x, y in ((got.eigenvalues, want.eigenvalues), (got.eigenvectors, want.eigenvectors)):
        assert x.view(np.uint64).tolist() == y.view(np.uint64).tolist()


@settings(derandomize=True, max_examples=500, deadline=None)
@given(alpha=st.floats(-15.0, 9.0).map(lambda e: 1.0 + 10.0**e), m=st.integers(1, 5), n=st.integers(1, 5))
@example(alpha=1.0 + 2.0**-52, m=1, n=1)
@example(alpha=9e153, m=5, n=5)
def test_spectrum_analytic_bits_equal_per_vector_norms(alpha, m, n):
    """The one-array closed form has the bits of the per-vector np.linalg.norm form, signed zeros included."""
    assert_spectrum_bits_equal(model.build_hamiltonian(math.sqrt(alpha * alpha - 1.0), 1.0, model.ModeIndices(m, n)))


@pytest.mark.parametrize("omega,a", [(0.0, 1.7), (5e-324, 1.0), (0.3, 0.0), (0.0, 0.0)])
def test_spectrum_analytic_bits_at_the_degenerate_limits(omega, a):
    assert_spectrum_bits_equal(model.build_hamiltonian(omega, a, model.ModeIndices(1, 1)))


@pytest.mark.parametrize("omega,a", [(0.0, 1e-170), (1e-170, 0.0), (5e-324, 5e-324), (1e-155, 1e-155)])
def test_spectrum_analytic_refuses_couplings_whose_norms_square_below_the_least_normal_float(omega, a):
    """Such a squared eigenvector norm is 0 or subnormal: it divided by zero with a warning, then failed
    validation with NumericalError.  A square just above the bound, 1.6e-154 squared, is a spectrum."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="below the least normal float"):
            model.spectrum_analytic(model.build_hamiltonian(omega, a, model.ModeIndices(1, 1)))
    assert_spectrum_bits_equal(model.build_hamiltonian(0.0, 1.6e-154, model.ModeIndices(1, 1)))


def test_spectrum_analytic_convention_order():
    _, spec, _ = spectra_for(math.sqrt(15.0), 1.0)
    np.testing.assert_allclose(spec.eigenvalues, [3.0, -5.0, 5.0, -3.0], atol=1e-12)


def test_spectrum_degenerate_rabi_doublets():
    _, spec, num = spectra_for(1.0, 0.0)
    np.testing.assert_allclose(np.sort(spec.eigenvalues), [-1.0, -1.0, 1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(np.sort(num.eigenvalues), [-1.0, -1.0, 1.0, 1.0], atol=1e-12)


def test_spectrum_degenerate_zero_omega():
    _, spec, num = spectra_for(0.0, 1.0)
    np.testing.assert_allclose(np.sort(spec.eigenvalues), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(np.sort(num.eigenvalues), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_spectrum_numeric_zero_block():
    block = model.build_hamiltonian(0.0, 0.0, model.ModeIndices(1, 1))
    spec = oracles.spectrum_numeric(block)
    np.testing.assert_array_equal(spec.eigenvalues, np.zeros(4))


@pytest.mark.parametrize("omega,a", [(math.sqrt(15.0), 1.0), (2.0, 3.0), (8.95e6, 2.31e6), (0.3, 0.0), (0.0, 1.7)])
def test_spectral_invariants(omega, a):
    block, ana, num = spectra_for(omega, a)
    h = block.entries
    mu = math.hypot(omega, a)
    scale = max(np.abs(ana.eigenvalues).max(), 1.0)
    for spec in (ana, num):
        # residual and reconstruction
        assert np.abs(h @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues).max() <= 1e-10 * scale
        recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
        assert np.abs(recon - h).max() <= 1e-10 * scale
        assert np.abs(spec.eigenvectors.T @ spec.eigenvectors - np.eye(4)).max() <= 1e-12
        assert not np.isnan(spec.eigenvectors).any()
        # eigenvalue sum = trace(H) = 0
        assert abs(spec.eigenvalues.sum()) <= 1e-10 * max(mu, 1.0)
    assert np.abs(ana.eigenvalues - num.eigenvalues).max() <= 1e-10 * max(mu, 1.0)


@pytest.mark.parametrize("omega,a", [(math.sqrt(15.0), 1.0), (2.0, 3.0), (1.3, 0.4)])
def test_analytic_numeric_projectors_agree(omega, a):
    _, ana, num = spectra_for(omega, a)
    for p in range(4):
        proj_a = np.outer(ana.eigenvectors[:, p], ana.eigenvectors[:, p])
        proj_n = np.outer(num.eigenvectors[:, p], num.eigenvectors[:, p])
        assert np.abs(proj_a - proj_n).max() <= 1e-8


def test_eigenvector_sign_convention():
    rng = np.random.default_rng(11)
    for _ in range(10):
        omega, a = rng.uniform(0.1, 5.0, size=2)
        _, ana, num = spectra_for(omega, a)
        for spec in (ana, num):
            for p in range(4):
                col = spec.eigenvectors[:, p]
                first = col[np.abs(col) > 1e-8 * np.abs(col).max()][0]
                assert first >= 0


# zeros of both signs, entries at and below the 1e-8 significance threshold, subnormals
SIGN_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1e-8, -1e-8, 1e-9, -1e-9, 5e-324, -5e-324, 1.0, -1.0]),
                         st.floats(-1e3, 1e3, allow_subnormal=True))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(columns=st.lists(st.lists(SIGN_ENTRIES, min_size=4, max_size=4), min_size=1, max_size=4),
       scale=st.sampled_from([1.0, 1e-300, 1e300, 3.7]))
@example(columns=[[0.0, -0.0, 0.0, -0.0], [-0.0, -1e-9, 1.0, -2.0], [1e-9, -1.0, 0.0, 0.0], [-0.0, -0.5, 0.5, 0.0]],
         scale=1.0)
def test_fix_signs_equals_the_column_loop(columns, scale):
    vectors = np.array(columns).T * scale
    loop = oracles.loop_fix_signs(vectors)
    assert model._fix_signs(vectors).view(np.uint64).tolist() == loop.view(np.uint64).tolist()


def test_overflowing_block_is_a_numerical_error():
    """2a overflows to inf: the NaN spectrum fails validation."""
    block = model.build_hamiltonian(1.0, 1e308, model.ModeIndices(100, 100))
    assert math.isinf(block.a)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="eigen residual nan"):
        model.spectrum_analytic(block)

