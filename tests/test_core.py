import warnings

import numpy as np
import pytest
import scipy.linalg

import spintomo
from spintomo import (DegenerateTransitionError, all_labels, build_design_matrix,
                      build_spin_system, coefficients_to_density,
                      default_acquisition, density_to_coefficients,
                      diagonal_labels, fid_coordinates,
                      format_label, offdiagonal_labels, parse_label,
                      product_operator, rotation_pulse, run_sequence_A,
                      run_sequence_B, tomograph_state, transition_table)
from spintomo.core import (energies, monomial_table, operator_norm_squared,
                           single_quantum_transitions)

from conftest import DEMO_COEFFS, random_hermitian_traceless

# Matrix of the demonstration state, from the coefficient expansion.
DEMO_MATRIX = np.array([
    [3.325, 1.8625 - 5.13825j, 3.0 - 3.375j, 2.625 - 2.1625j],
    [1.8625 + 5.13825j, -2.325, 3.875 - 1.4375j, -2.0 - 1.625j],
    [3.0 + 3.375j, 3.875 + 1.4375j, -1.025, 0.1375 - 1.76175j],
    [2.625 + 2.1625j, -2.0 + 1.625j, 0.1375 + 1.76175j, 0.025],
])


def test_public_names_resolve():
    assert len(set(spintomo.__all__)) == len(spintomo.__all__)
    assert [name for name in spintomo.__all__ if not hasattr(spintomo, name)] == []


class TestBuildSpinSystem:
    def test_two_spin_demo(self, two_spin_system):
        assert two_spin_system.n == 2
        assert two_spin_system.dim == 4
        assert two_spin_system.couplings_hz == ((1, 2, 200.0),)

    def test_four_spin_demo(self, four_spin_system):
        assert four_spin_system.dim == 16
        assert len(four_spin_system.couplings_hz) == 6

    def test_single_spin(self):
        system = build_spin_system(1, [500.0], {}, 0.010)
        assert system.dim == 2
        assert system.couplings_hz == ()

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            build_spin_system(2, [1200.0], {}, 0.010)

    def test_nonpositive_t2(self):
        with pytest.raises(ValueError, match="t2_s"):
            build_spin_system(1, [500.0], {}, 0.0)

    def test_bad_coupling_key(self):
        with pytest.raises(ValueError, match="coupling key"):
            build_spin_system(2, [100.0, 200.0], {(2, 1): 5.0}, 0.010)

    @pytest.mark.parametrize("n, larmor, couplings, match", [
        pytest.param(0, [], {}, "need at least one spin", id="no-spins"),
        pytest.param(1, [np.nan], {}, "larmor_hz entries must be finite", id="larmor-nan"),
        pytest.param(2, [100.0, 200.0], {(1, 2): np.inf}, r"coupling \(1,2\) must be finite",
                     id="coupling-inf"),
        pytest.param(2, [100.0, 200.0], {(1, 2): 5.0, ("1", "2"): 6.0},
                     "duplicate coupling keys", id="coupling-duplicate"),
    ])
    def test_invalid_register_rejected(self, n, larmor, couplings, match):
        with pytest.raises(ValueError, match=match):
            build_spin_system(n, larmor, couplings, 0.010)

    def test_degenerate_transitions_build_silently(self):
        # the transition table is the one refusal of coinciding lines
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            system = build_spin_system(2, [1200.0, 1800.0], {}, 0.010)
        with pytest.raises(DegenerateTransitionError, match="2 degenerate transition pair"):
            transition_table(system)

    def test_rebuilt_system_matches(self, two_spin_system):
        # a signal names its register by to_dict() in its metadata; the fit
        # compares that with the design's, so an equal rebuild is accepted
        rebuilt = build_spin_system(2, [1200.0, 1800.0], {(1, 2): 200.0}, 0.010)
        assert rebuilt.to_dict() == two_spin_system.to_dict()
        params = default_acquisition(two_spin_system, n_t1=32, n_t2=64)
        design = build_design_matrix(two_spin_system, params)
        rho0 = coefficients_to_density(rebuilt, DEMO_COEFFS)
        signal = fid_coordinates(run_sequence_A(rebuilt, rho0, params), design.basis)
        assert signal.meta["system"] == rebuilt.to_dict()
        fit = tomograph_state(design, signal, run_sequence_B(rebuilt, rho0, params))
        for label, value in DEMO_COEFFS.items():
            if label in fit.coefficients:
                assert fit.coefficients[label] == pytest.approx(value, abs=1e-9)


class TestHamiltonian:
    def test_two_spin_eigenvalues(self, two_spin_system):
        level = energies(two_spin_system)
        assert np.allclose(level, [1550.0, -350.0, 250.0, -1450.0])
        assert abs(np.sum(level)) < 1e-9

    def test_spin_one_transition_frequencies(self, two_spin_system):
        level = energies(two_spin_system)
        assert level[0] - level[2] == pytest.approx(1300.0)
        assert level[1] - level[3] == pytest.approx(1100.0)

    def test_zero_system(self):
        system = build_spin_system(2, [0.0, 0.0], {(1, 2): 0.0}, 0.010)
        assert np.allclose(energies(system), 0.0)

    def test_transition_listing(self, two_spin_system):
        transitions = single_quantum_transitions(two_spin_system)
        freqs = sorted(f for _, _, _, f in transitions)
        assert freqs == pytest.approx([1100.0, 1300.0, 1700.0, 1900.0])
        assert len(transitions) == 4


class TestLabels:
    def test_counts(self):
        assert len(all_labels(2)) == 15
        assert len(diagonal_labels(2)) == 3
        assert len(offdiagonal_labels(2)) == 12
        assert len(all_labels(4)) == 255
        assert len(diagonal_labels(4)) == 15
        assert len(offdiagonal_labels(4)) == 240

    def test_parse_and_format(self):
        assert parse_label("x z") == "xz"
        assert parse_label("XZ") == "xz"
        assert format_label("xz") == "x z"

    def test_all_identity_rejected(self):
        with pytest.raises(ValueError, match="all-identity"):
            parse_label("oo")

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError, match="invalid axes"):
            parse_label("xq")

    def test_length_checked(self):
        with pytest.raises(ValueError, match="axes"):
            parse_label("x", n=2)


class TestProductOperator:
    def test_z_identity(self, two_spin_system):
        op = product_operator(two_spin_system, "zo")
        assert np.allclose(op, np.diag([0.5, 0.5, -0.5, -0.5]))

    def test_xz_entries(self, two_spin_system):
        op = product_operator(two_spin_system, "xz")
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = expected[2, 0] = 0.25
        expected[1, 3] = expected[3, 1] = -0.25
        assert np.allclose(op, expected)

    def test_all_identity_rejected(self, two_spin_system):
        with pytest.raises(ValueError):
            product_operator(two_spin_system, "oo")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orthogonality_and_norms(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            system = build_spin_system(
                n, [100.0 * (j + 1) for j in range(n)],
                {(j, j + 1): 10.0 for j in range(1, n)}, 0.010)
        labels = all_labels(n)
        stack = np.array([product_operator(system, label) for label in labels])
        gram = np.einsum("aij,bji->ab", stack, stack).real
        expected = np.diag([operator_norm_squared(label) for label in labels])
        assert np.max(np.abs(gram - expected)) < 1e-12

    def test_hermitian(self, two_spin_system):
        for label in all_labels(2):
            op = product_operator(two_spin_system, label)
            assert np.allclose(op, op.conj().T)


class TestMonomialTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_product_operator_bit_for_bit(self, n):
        with warnings.catch_warnings():
            # uncoupled spins are degenerate, which does not matter here
            warnings.simplefilter("ignore")
            system = build_spin_system(n, [100.0 * (j + 1) for j in range(n)], {}, 0.01)
        labels = all_labels(n)
        columns, values = monomial_table(n, labels)
        rows = np.arange(2 ** n)
        for label, cols, vals in zip(labels, columns, values):
            dense = product_operator(system, label)
            assert np.array_equal(dense[rows, cols].view(np.uint64), vals.view(np.uint64)), label
            off_support = np.ones(dense.shape, dtype=bool)
            off_support[rows, cols] = False
            assert not np.any(dense[off_support]), label

    def test_flip_mask_from_transverse_spins(self):
        columns, _ = monomial_table(3, ["xoz", "oyo", "zzz"])
        assert list(columns[:, 0]) == [0b100, 0b010, 0]

    def test_density_matches_running_kron_sum(self, two_spin_system):
        # the scatter adds each position in label order, exactly as the
        # running sum of dense products does
        expected = np.zeros((4, 4), dtype=complex)
        for label, value in DEMO_COEFFS.items():
            expected += value * product_operator(two_spin_system, label)
        rho = coefficients_to_density(two_spin_system, DEMO_COEFFS)
        assert np.array_equal(rho.view(np.uint64), expected.view(np.uint64))


class TestCoefficientConversion:
    def test_demo_state_matrix(self, two_spin_system):
        rho = coefficients_to_density(two_spin_system, DEMO_COEFFS)
        assert np.max(np.abs(rho - DEMO_MATRIX)) < 1e-12
        assert rho[0, 0] == pytest.approx(3.325, abs=1e-12)
        # published display rounds the imaginary part to -5.1383
        assert rho[0, 1] == pytest.approx(1.8625 - 5.1383j, abs=1e-4)

    def test_empty_is_zero(self, two_spin_system):
        assert np.allclose(coefficients_to_density(two_spin_system, {}), 0.0)

    def test_single_term(self, two_spin_system):
        rho = coefficients_to_density(two_spin_system, {"zo": 1.0})
        assert np.allclose(rho, np.diag([0.5, 0.5, -0.5, -0.5]))

    @pytest.mark.parametrize("coefficients, match", [
        pytest.param({"xo": 1.0, "x o": 2.0}, "duplicate coefficient for label 'x o'",
                     id="duplicate-label"),
        pytest.param({"xo": np.inf}, "coefficient for 'x o' must be finite", id="inf"),
    ])
    def test_invalid_coefficients_rejected(self, two_spin_system, coefficients, match):
        with pytest.raises(ValueError, match=match):
            coefficients_to_density(two_spin_system, coefficients)

    def test_spaced_labels_accepted(self, two_spin_system):
        rho = coefficients_to_density(two_spin_system, {"z o": 2.0})
        assert np.allclose(rho, np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_extraction_of_demo_state(self, two_spin_system):
        coeffs = density_to_coefficients(two_spin_system, DEMO_MATRIX)
        assert coeffs["zz"] == pytest.approx(6.7, abs=1e-10)
        assert coeffs["xx"] == pytest.approx(13.0, abs=1e-10)
        assert coeffs["yx"] == pytest.approx(7.2, abs=1e-10)

    def test_zero_matrix(self, two_spin_system):
        coeffs = density_to_coefficients(two_spin_system, np.zeros((4, 4)))
        assert all(value == 0.0 for value in coeffs.values())

    def test_round_trip_random(self, two_spin_system):
        rng = np.random.default_rng(7)
        for _ in range(5):
            rho = random_hermitian_traceless(rng, 4)
            coeffs = density_to_coefficients(two_spin_system, rho)
            back = coefficients_to_density(two_spin_system, coeffs)
            assert np.max(np.abs(back - rho)) < 1e-10

    def test_non_hermitian_rejected(self, two_spin_system):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            density_to_coefficients(two_spin_system, bad)

    def test_wrong_shape_rejected(self, two_spin_system):
        with pytest.raises(ValueError, match=r"matrix shape \(2, 2\) does not match dim 4"):
            density_to_coefficients(two_spin_system, np.zeros((2, 2)))


class TestRotationPulse:
    def test_zero_angle_is_identity(self, two_spin_system):
        u = rotation_pulse(two_spin_system, 0.0, 0.3)
        assert np.allclose(u, np.eye(4))

    def test_unitarity(self, two_spin_system):
        rng = np.random.default_rng(3)
        for _ in range(10):
            theta, phase = rng.uniform(0, 2 * np.pi, size=2)
            u = rotation_pulse(two_spin_system, theta, phase)
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-12

    def test_half_pi_y_creates_transverse(self, two_spin_system):
        u = rotation_pulse(two_spin_system, np.pi / 2, 0.0)
        rho = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)
        rotated = u @ rho @ u.conj().T
        off = rotated - np.diag(np.diag(rotated))
        assert np.max(np.abs(off)) > 0.1

    def test_matches_matrix_exponential(self, two_spin_system):
        theta, phase = np.random.default_rng(11).uniform(-np.pi, np.pi, size=2)
        generator = np.zeros((4, 4), dtype=complex)
        for label_x, label_y in (("xo", "yo"), ("ox", "oy")):
            generator += (np.sin(phase) * product_operator(two_spin_system, label_x)
                          + np.cos(phase) * product_operator(two_spin_system, label_y))
        expected = scipy.linalg.expm(-1j * theta * generator)
        actual = rotation_pulse(two_spin_system, theta, phase)
        assert np.max(np.abs(actual - expected)) < 1e-12
