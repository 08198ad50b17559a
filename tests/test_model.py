import math

import numpy as np
import pytest

from iondeco import model
from iondeco.errors import NumericalError, ValidationError


def params_for(omega, g_eta_c, eta_c=0.1):
    return model.SystemParams(omega=omega, g=g_eta_c / eta_c, eta_c=eta_c, eta_l=0.1)


def test_derived_couplings_direct_substitution():
    c = model.derived_couplings(params_for(math.sqrt(15.0), 2.0), model.ModeIndices(1, 1))
    assert c.a == pytest.approx(1.0, abs=1e-12)
    assert c.mu == pytest.approx(4.0, abs=1e-12)
    assert c.alpha == pytest.approx(4.0, abs=1e-12)


def test_derived_couplings_zero_mode_index():
    c = model.derived_couplings(params_for(2.5, 2.0), model.ModeIndices(0, 5))
    assert c.a == 0.0
    assert c.mu == pytest.approx(2.5)
    assert c.alpha is None


def test_derived_couplings_sqrt_mn():
    c = model.derived_couplings(params_for(1.0, 1.0), model.ModeIndices(4, 9))
    assert c.a == pytest.approx(3.0, abs=1e-12)


def test_derived_couplings_consistency():
    c = model.derived_couplings(params_for(2.0, 3.0), model.ModeIndices(2, 3))
    assert c.mu >= max(c.a, 2.0)
    assert c.mu**2 == pytest.approx(c.a**2 + 2.0**2, rel=1e-15)
    assert c.alpha >= 1.0


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
    couplings = model.derived_couplings(params, modes)
    return block, model.spectrum_analytic(block, couplings), model.spectrum_numeric(block)


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
    spec = model.spectrum_numeric(block)
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


def test_spectrum_analytic_rejects_mismatched_couplings():
    block, _, _ = spectra_for(2.0, 1.0)
    bad = model.DerivedCouplings(a=0.5, mu=2.0, alpha=4.0)
    with pytest.raises(ValidationError):
        model.spectrum_analytic(block, bad)


def test_jacobi_recovers_known_construction():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    d = np.array([3.0, -1.5, 0.25, 7.0])
    evals, evecs = model.jacobi_eigh(q @ np.diag(d) @ q.T)
    np.testing.assert_allclose(np.sort(evals), np.sort(d), atol=1e-10)
    a = q @ np.diag(d) @ q.T
    assert np.abs(a @ evecs - evecs * evals).max() <= 1e-10 * np.abs(d).max()


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(ValidationError):
        model.jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_jacobi_nonconvergence_on_malformed_input():
    with pytest.raises(NumericalError):
        model.jacobi_eigh(np.full((4, 4), np.nan))


def test_lamb_dicke_warnings():
    quiet = model.SystemParams(1.0, 1.0, eta_c=0.05, eta_l=0.05)
    assert model.validate_lamb_dicke(quiet) == []
    with pytest.warns(UserWarning, match="eta_c"):
        loud = model.SystemParams(1.0, 1.0, eta_c=0.5, eta_l=0.05)
    assert any("eta_c" in msg for msg in model.validate_lamb_dicke(loud))
    with pytest.warns(UserWarning):
        boundary = model.SystemParams(1.0, 1.0, eta_c=0.3, eta_l=0.05)
    assert model.validate_lamb_dicke(boundary)  # bound is inclusive
