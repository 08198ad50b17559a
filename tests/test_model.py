import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iondeco import model
from iondeco.errors import NumericalError, ValidationError

import oracles


def params_for(omega, g_eta_c, eta_c=0.1):
    return model.SystemParams(omega=omega, g=g_eta_c / eta_c, eta_c=eta_c, eta_l=0.1)


def block_for(omega, g_eta_c, modes):
    return model.build_hamiltonian(params_for(omega, g_eta_c), modes)


def test_block_couplings_direct_substitution():
    block = block_for(math.sqrt(15.0), 2.0, model.ModeIndices(1, 1))
    assert block.a == pytest.approx(1.0, abs=1e-12)
    assert block.mu == pytest.approx(4.0, abs=1e-12)
    assert block.mu / block.a == pytest.approx(4.0, abs=1e-12)


def test_block_couplings_zero_mode_index():
    block = block_for(2.5, 2.0, model.ModeIndices(0, 5))
    assert block.a == 0.0
    assert block.mu == pytest.approx(2.5)


def test_block_couplings_sqrt_mn():
    block = block_for(1.0, 1.0, model.ModeIndices(4, 9))
    assert block.a == pytest.approx(3.0, abs=1e-12)


def test_block_couplings_consistency():
    block = block_for(2.0, 3.0, model.ModeIndices(2, 3))
    assert block.mu >= max(block.a, 2.0)
    assert block.mu**2 == pytest.approx(block.a**2 + 2.0**2, rel=1e-15)
    assert block.mu / block.a >= 1.0


def test_build_hamiltonian_pattern():
    block = model.build_hamiltonian(params_for(2.0, 2.0), model.ModeIndices(1, 1))
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = 2.0
    expected[2, 3] = expected[3, 2] = 2.0
    expected[0, 3] = expected[3, 0] = 2.0
    np.testing.assert_allclose(block.entries, expected)


def test_build_hamiltonian_decoupled_block():
    block = model.build_hamiltonian(params_for(1.0, 2.0), model.ModeIndices(0, 3))
    assert block.entries[0, 3] == 0.0
    assert block.entries[0, 1] == 1.0


def test_build_hamiltonian_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        omega, ge = rng.uniform(0, 5, size=2)
        m, n = rng.integers(0, 4, size=2)
        block = model.build_hamiltonian(params_for(omega, ge), model.ModeIndices(int(m), int(n)))
        np.testing.assert_array_equal(block.entries, block.entries.T)


def test_mode_indices_reject_negative():
    with pytest.raises(ValidationError):
        model.ModeIndices(-1, 0)


def test_system_params_reject_negative():
    with pytest.raises(ValidationError):
        model.SystemParams(omega=-1.0, g=1.0, eta_c=0.1, eta_l=0.1)
    for name in ("omega", "g", "eta_c", "eta_l"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match=f"{name} must be finite"):
                model.SystemParams(**{"omega": 1.0, "g": 1.0, "eta_c": 0.1, "eta_l": 0.1, name: bad})


def spectra_for(omega, a):
    params = params_for(omega, 2.0 * a) if a > 0 else model.SystemParams(omega=omega, g=0.0, eta_c=0.1, eta_l=0.1)
    modes = model.ModeIndices(1, 1)
    block = model.build_hamiltonian(params, modes)
    return block, model.spectrum_analytic(block), oracles.spectrum_numeric(block)


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
    block = model.build_hamiltonian(model.SystemParams(0.0, 0.0, 0.1, 0.1), model.ModeIndices(1, 1))
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
    """g * eta_c * sqrt(mn) overflows to inf: the NaN spectrum fails validation."""
    block = model.build_hamiltonian(model.SystemParams(1.0, 1e308, 0.2, 0.1), model.ModeIndices(100, 100))
    assert math.isinf(block.sideband)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="eigen residual nan"):
        model.spectrum_analytic(block)


def test_lamb_dicke_warnings():
    quiet = model.SystemParams(1.0, 1.0, eta_c=0.05, eta_l=0.05)
    assert model.validate_lamb_dicke(quiet) == []
    with pytest.warns(UserWarning, match="eta_c"):
        loud = model.SystemParams(1.0, 1.0, eta_c=0.5, eta_l=0.05)
    assert any("eta_c" in msg for msg in model.validate_lamb_dicke(loud))
    with pytest.warns(UserWarning):
        boundary = model.SystemParams(1.0, 1.0, eta_c=0.3, eta_l=0.05)
    assert model.validate_lamb_dicke(boundary)  # bound is inclusive
