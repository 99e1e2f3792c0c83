import json
from pathlib import Path
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spintomo import (AcquisitionParams, DegenerateTransitionError,
                      NyquistError, RankDeficiencyError,
                      build_design_matrix, build_spin_system,
                      coefficients_to_density,
                      default_acquisition, dft_t2, product_operator,
                      run_sequence_A, run_sequence_B,
                      transition_table)
from spintomo.core import single_quantum_transitions
from spintomo.cli import _write_array
from spintomo.cli import config_from_dict, resolve_params
from spintomo.dynamics import evolution_rates
from spintomo.experiment import T2_BLOCK_ROWS, t1_blocks
from spintomo.spectral import cross_sections

from conftest import (DEMO_COEFFS, FOUR_SPIN_STATE, clustered_systems, fit_t1_trace,
                      loop_pairs, noiseless_tomography, random_hermitian_traceless,
                      reference_sequence_a, reference_sequence_b)


def small_params(alpha_rad=np.pi / 4, beta_rad=np.radians(10.0), n_t1=16, n_t2=16):
    return AcquisitionParams(n_t1=n_t1, n_t2=n_t2, dwell_t1_s=1.0 / 7600.0,
                             dwell_t2_s=1.0 / 7600.0, alpha_rad=alpha_rad,
                             beta_rad=beta_rad)


class TestTransitionTable:
    def test_two_spin_frequencies(self, two_spin_system):
        table = transition_table(two_spin_system)
        by_qubit = {1: set(), 2: set()}
        for t in table:
            by_qubit[t.qubit].add(round(t.frequency_hz, 6))
        assert by_qubit[1] == {1300.0, 1100.0}
        assert by_qubit[2] == {1900.0, 1700.0}
        assert len(table) == 4

    def test_uncoupled_degenerate(self):
        system = build_spin_system(2, [1200.0, 1800.0], {}, 0.010)
        with pytest.raises(DegenerateTransitionError) as info:
            transition_table(system)
        assert info.value.pairs

    def test_four_spin_all_distinct(self, four_spin_system):
        table = transition_table(four_spin_system)
        assert len(table) == 4 * 8
        freqs = np.sort([t.frequency_hz for t in table])
        assert np.min(np.diff(freqs)) > 3.9

    def test_four_spin_against_kron_oracle(self, four_spin_system):
        # assemble the Hamiltonian independently from Kronecker products and
        # check each listed frequency is an eigenvalue difference
        sz = 0.5 * np.diag([1.0, -1.0])
        eye = np.eye(2)
        def embedded(j):
            op = np.array([[1.0]])
            for k in range(1, 5):
                op = np.kron(op, sz if k == j else eye)
            return op
        h = sum(w * embedded(j + 1) for j, w in enumerate(four_spin_system.larmor_hz))
        for j, k, coupling in four_spin_system.couplings_hz:
            h = h + coupling * embedded(j) @ embedded(k)
        eigenvalues = np.linalg.eigvalsh(h)
        differences = (eigenvalues[:, None] - eigenvalues[None, :]).ravel()
        for t in transition_table(four_spin_system):
            assert np.min(np.abs(differences - t.frequency_hz)) < 1e-9


    @settings(max_examples=200, deadline=None)
    @given(clustered_systems(), st.sampled_from([1e-6, 1e-5, 5.0, 20.0]))
    def test_collisions_match_pairwise_loop(self, system, tol_hz):
        transitions = single_quantum_transitions(system)
        expected = loop_pairs([f for *_, f in transitions], lambda gap: gap <= tol_hz)
        if not expected:
            assert len(transition_table(system, tol_hz)) == len(transitions)
            return
        with pytest.raises(DegenerateTransitionError) as info:
            transition_table(system, tol_hz)
        got = [(a.upper, a.lower, b.upper, b.lower) for a, b in info.value.pairs]
        assert got == [(transitions[i][1], transitions[i][2],
                        transitions[k][1], transitions[k][2]) for i, k in expected]


class TestAcquisitionParams:
    def test_defaults_respect_nyquist(self, two_spin_system):
        params = default_acquisition(two_spin_system)
        assert 1.0 / params.dwell_t2_s == pytest.approx(4 * 1900.0)
        assert params.n_t1 == 512

    def test_four_spin_default_increments(self, four_spin_system):
        assert default_acquisition(four_spin_system).n_t1 == 2048

    def test_nyquist_violation(self, two_spin_system):
        params = AcquisitionParams(n_t1=8, n_t2=8, dwell_t1_s=1e-3, dwell_t2_s=1e-3)
        rho = product_operator(two_spin_system, "xo")
        with pytest.raises(NyquistError, match="spectral width"):
            run_sequence_A(two_spin_system, rho, params)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            AcquisitionParams(n_t1=0, n_t2=8, dwell_t1_s=1e-4, dwell_t2_s=1e-4)
        with pytest.raises(ValueError):
            AcquisitionParams(n_t1=8, n_t2=8, dwell_t1_s=0.0, dwell_t2_s=1e-4)


class TestSequenceA:
    def test_matches_stepwise_reference(self, two_spin_system):
        rng = np.random.default_rng(21)
        rho0 = random_hermitian_traceless(rng, 4)
        params = small_params()
        signal = run_sequence_A(two_spin_system, rho0, params)
        expected = reference_sequence_a(two_spin_system, rho0, params)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(signal.grid - expected)) < 1e-12 * max(scale, 1.0)

    @pytest.mark.parametrize("gradient", ["ideal", "realistic"])
    def test_four_spin_matches_stepwise_reference(self, four_spin_system, gradient):
        # a last t1 block shorter than the rest; drawn delays check the
        # weighted zero-quantum support against the per-delay average
        rng = np.random.default_rng(24)
        rho0 = random_hermitian_traceless(rng, four_spin_system.dim)
        params = default_acquisition(four_spin_system, n_t1=T2_BLOCK_ROWS + 5, n_t2=32)
        delays = None if gradient == "ideal" else rng.uniform(0.0, 0.02, size=16)
        signal = run_sequence_A(four_spin_system, rho0, params, gradient_delays_s=delays)
        expected = reference_sequence_a(four_spin_system, rho0, params, delays)
        assert np.max(np.abs(signal.grid - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_memory_bounded(self, four_spin_system):
        # propagating the whole t1 axis held (n_t1, dim, dim) state batches,
        # so the peak less the grid grew with n_t1
        rho0 = coefficients_to_density(four_spin_system, FOUR_SPIN_STATE)
        extra = {}
        for n_t1 in (256, 1024):
            params = default_acquisition(four_spin_system, n_t1=n_t1, n_t2=64)
            tracemalloc.start()
            try:
                signal = run_sequence_A(four_spin_system, rho0, params)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra[n_t1] = peak - signal.grid.nbytes
        # the slack covers the t1 times themselves, 8 bytes a row
        assert extra[1024] <= extra[256] + 2 ** 14

    def test_block_phases_match_one_exp(self):
        # exp(r t1[j]) exp(r t1[s]) differs from exp(r t1[s + j]) only by the
        # rounding of the phase, which reaches 1e4 rad on the 5-qubit demo
        config = Path(__file__).resolve().parent.parent / "configs" / "demo_5qubit.json"
        cfg = config_from_dict(json.loads(config.read_text()))
        params = resolve_params(cfg)
        rates, t1_times = evolution_rates(cfg.system).ravel(), params.t1_times
        direct = np.exp(np.outer(t1_times, rates))
        blocked = np.concatenate([factors.copy() for _, factors in t1_blocks(rates, t1_times)])
        largest_phase = float(np.max(np.abs(np.outer(t1_times, rates))))
        assert largest_phase > 1e3
        error = np.max(np.abs(blocked - direct) / np.abs(direct))
        assert error <= 16 * np.finfo(float).eps * largest_phase
        assert np.array_equal(blocked[:T2_BLOCK_ROWS], direct[:T2_BLOCK_ROWS])

    def test_diagonal_state_silent(self, two_spin_system):
        rho0 = np.diag([2.0, -1.0, 0.5, -1.5]).astype(complex)
        signal = run_sequence_A(two_spin_system, rho0, small_params())
        assert np.max(np.abs(signal.grid)) <= 1e-10

    def test_invariant_under_diagonal_shift(self, two_spin_system):
        rng = np.random.default_rng(22)
        rho0 = coefficients_to_density(two_spin_system, DEMO_COEFFS)
        params = small_params()
        base = run_sequence_A(two_spin_system, rho0, params).grid
        shifted = rho0 + np.diag(rng.uniform(-5, 5, size=4))
        again = run_sequence_A(two_spin_system, shifted, params).grid
        assert np.max(np.abs(base - again)) <= 1e-10 * max(1.0, np.max(np.abs(base)))

    def test_non_hermitian_rejected(self, two_spin_system):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            run_sequence_A(two_spin_system, bad, small_params())

    def test_wrong_shape_rejected(self, two_spin_system):
        with pytest.raises(ValueError, match=r"state shape \(2, 2\) does not match dim 4"):
            run_sequence_A(two_spin_system, np.zeros((2, 2)), small_params())

    def test_single_x_cross_section_structure(self, two_spin_system):
        # a lone transverse operator on spin 1 contributes equal cosine
        # amplitudes at its two transition frequencies and nothing else
        params = default_acquisition(two_spin_system, n_t1=256, n_t2=256)
        rho0 = product_operator(two_spin_system, "xo")
        signal = run_sequence_A(two_spin_system, rho0, params)
        hybrid = dft_t2(signal)
        (b,), _ = cross_sections(signal, [1300.0])
        frequencies = [1300.0, 1100.0, 1900.0, 1700.0, 3000.0, 600.0]
        amplitudes, residual = fit_t1_trace(hybrid.grid[:, b], params.t1_times,
                                            frequencies, two_spin_system.t2_s)
        assert residual < 1e-9
        top = abs(amplitudes[("cos", 1300.0)])
        assert abs(amplitudes[("cos", 1100.0)]) == pytest.approx(top, rel=1e-9)
        for key, value in amplitudes.items():
            if key in (("cos", 1300.0), ("cos", 1100.0), ("const", 0.0)):
                continue
            assert abs(value) < 1e-9 * top

    def test_single_quantum_amplitude_scales_as_sin_alpha(self, two_spin_system):
        rho0 = product_operator(two_spin_system, "xo")
        norms = {}
        for alpha in (np.radians(2.5), np.radians(5.0)):
            signal = run_sequence_A(two_spin_system, rho0,
                                    small_params(alpha_rad=alpha, n_t1=32, n_t2=32))
            norms[alpha] = np.linalg.norm(signal.grid)
        ratio = norms[np.radians(5.0)] / norms[np.radians(2.5)]
        assert abs(ratio / 2.0 - 1.0) < 0.01

    def test_two_quantum_amplitude_scales_as_sin_two_alpha(self, two_spin_system):
        rho0 = product_operator(two_spin_system, "xx")
        norms = {}
        for alpha in (np.radians(2.5), np.radians(5.0)):
            signal = run_sequence_A(two_spin_system, rho0,
                                    small_params(alpha_rad=alpha, n_t1=32, n_t2=32))
            norms[alpha] = np.linalg.norm(signal.grid)
        expected = np.sin(np.radians(10.0)) / np.sin(np.radians(5.0))
        ratio = norms[np.radians(5.0)] / norms[np.radians(2.5)]
        assert abs(ratio / expected - 1.0) < 0.01

    def test_realistic_gradient_runs(self, two_spin_system):
        rho0 = coefficients_to_density(two_spin_system, DEMO_COEFFS)
        delays = np.random.default_rng(5).uniform(0.0, 0.02, size=4)
        signal = run_sequence_A(two_spin_system, rho0, small_params(),
                                gradient_delays_s=delays)
        assert np.all(np.isfinite(signal.grid))
        assert signal.meta["gradient"] == "realistic"


class TestSequenceB:
    @pytest.mark.parametrize("gradient", [None, (16, 0.02), (128, 2.0)],
                             ids=["ideal", "16-draws-over-0.02s", "128-draws-over-2s"])
    @pytest.mark.parametrize("register", ["two_spin_system", "four_spin_system"])
    def test_matches_stepwise_reference_under_each_gradient(self, request, register,
                                                            gradient):
        system = request.getfixturevalue(register)
        rng = np.random.default_rng(25)
        rho0 = random_hermitian_traceless(rng, system.dim)
        params = default_acquisition(system, n_t1=4, n_t2=64)
        delays = None if gradient is None else rng.uniform(0.0, gradient[1], size=gradient[0])
        signal = run_sequence_B(system, rho0, params, gradient_delays_s=delays)
        expected = reference_sequence_b(system, rho0, params, delays)
        assert np.max(np.abs(signal.samples - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_matches_stepwise_reference(self, two_spin_system):
        rng = np.random.default_rng(23)
        rho0 = random_hermitian_traceless(rng, 4)
        params = small_params(n_t2=32)
        signal = run_sequence_B(two_spin_system, rho0, params)
        expected = reference_sequence_b(two_spin_system, rho0, params)
        assert np.max(np.abs(signal.samples - expected)) < 1e-12 * max(
            1.0, np.max(np.abs(expected)))

    def test_zero_diagonal_silent(self, two_spin_system):
        rho0 = product_operator(two_spin_system, "xx")
        signal = run_sequence_B(two_spin_system, rho0, small_params())
        assert np.max(np.abs(signal.samples)) <= 1e-12

    def test_invariant_under_offdiagonal_shift(self, two_spin_system):
        rho0 = coefficients_to_density(two_spin_system, DEMO_COEFFS)
        params = small_params(n_t2=32)
        base = run_sequence_B(two_spin_system, rho0, params).samples
        shifted = rho0 + 3.0 * product_operator(two_spin_system, "xy")
        again = run_sequence_B(two_spin_system, shifted, params).samples
        assert np.max(np.abs(base - again)) <= 1e-10 * max(1.0, np.max(np.abs(base)))

    def test_linear_in_diagonal_coefficients(self, two_spin_system):
        params = small_params(beta_rad=np.radians(1.0), n_t2=32)
        coeffs = {"zo": 1.0, "oz": 2.3, "zz": 6.7}
        single = run_sequence_B(
            two_spin_system, coefficients_to_density(two_spin_system, coeffs),
            params).samples
        doubled = run_sequence_B(
            two_spin_system,
            coefficients_to_density(two_spin_system,
                                    {k: 2 * v for k, v in coeffs.items()}),
            params).samples
        assert np.max(np.abs(doubled - 2.0 * single)) < 1e-12 * max(
            1.0, np.max(np.abs(single)))

    def test_large_beta_recovers_coefficients(self, two_spin_system):
        # the design models the beta pulse exactly, so a large angle
        # costs nothing and nothing warns
        params = default_acquisition(two_spin_system, beta_rad=np.radians(30.0))
        rho0 = coefficients_to_density(two_spin_system, DEMO_COEFFS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = noiseless_tomography(build_design_matrix(two_spin_system, params), rho0)
        assert result.max_coefficient_error <= 1e-10

    def test_right_angle_beta_leaves_zz_undetermined(self, two_spin_system):
        # the two-spin-order term reaches the lines with cos(beta), which is
        # zero at 90 degrees: the design names zz alone
        params = default_acquisition(two_spin_system, beta_rad=np.radians(90.0))
        rho0 = coefficients_to_density(two_spin_system, DEMO_COEFFS)
        with pytest.raises(RankDeficiencyError, match=r"\['z z'\]") as info:
            noiseless_tomography(build_design_matrix(two_spin_system, params), rho0)
        assert info.value.labels == ("zz",)

    def test_finite_beta_line_amplitudes(self, two_spin_system):
        # exact finite-angle line amplitudes carry a cos(beta) on the
        # two-spin-order term: sin(b)/2 * (q_z +- (q_zz / 2) cos(b))
        beta = np.radians(10.0)
        coeffs = {"zo": 1.0, "oz": 2.3, "zz": 6.7}
        rho0 = coefficients_to_density(two_spin_system, coeffs)
        params = AcquisitionParams(n_t1=4, n_t2=512, dwell_t1_s=1 / 7600.0,
                                   dwell_t2_s=1 / 7600.0, beta_rad=beta)
        signal = run_sequence_B(two_spin_system, rho0, params)
        table = transition_table(two_spin_system)
        t2 = params.t2_times
        freqs = [t.frequency_hz for t in table]
        basis = np.column_stack([
            np.exp((2j * np.pi * f - 1.0 / two_spin_system.t2_s) * t2) for f in freqs
        ])
        fitted, _, _, _ = np.linalg.lstsq(basis, signal.samples, rcond=None)
        expected = {
            1300.0: np.sin(beta) / 2 * (1.0 + 3.35 * np.cos(beta)),
            1100.0: np.sin(beta) / 2 * (1.0 - 3.35 * np.cos(beta)),
            1900.0: np.sin(beta) / 2 * (2.3 + 3.35 * np.cos(beta)),
            1700.0: np.sin(beta) / 2 * (2.3 - 3.35 * np.cos(beta)),
        }
        for f, amplitude in zip(freqs, fitted):
            assert amplitude.real == pytest.approx(expected[f], rel=1e-9)
            assert abs(amplitude.imag) < 1e-12


class TestExports:
    def test_signal2d_npy_bit_exact(self, two_spin_system, tmp_path):
        rho0 = coefficients_to_density(two_spin_system, DEMO_COEFFS)
        params = small_params(n_t2=24)  # n_t2 != n_t1: a transposed grid fails
        signal = run_sequence_A(two_spin_system, rho0, params)
        # a name without the .npy suffix is kept as given
        _write_array(tmp_path, "signal.tmp", signal.grid, ["t1", "t2"], "signal.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["signal.json", "signal.tmp"]
        grid = np.load(tmp_path / "signal.tmp", allow_pickle=False)
        assert grid.dtype == np.complex128
        assert grid.shape == (params.n_t1, params.n_t2)
        assert grid.tobytes() == signal.grid.tobytes()
        layout = json.loads((tmp_path / "signal.json").read_text())["array"]
        assert layout == {"file": "signal.tmp", "dtype": grid.dtype.name,
                          "shape": list(grid.shape), "axes": ["t1", "t2"]}

    def test_signal1d_npy_bit_exact(self, two_spin_system, tmp_path):
        rho0 = coefficients_to_density(two_spin_system, DEMO_COEFFS)
        signal = run_sequence_B(two_spin_system, rho0, small_params(n_t2=24))
        _write_array(tmp_path, "fid.tmp", signal.samples, ["t2"], "fid.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fid.json", "fid.tmp"]
        samples = np.load(tmp_path / "fid.tmp", allow_pickle=False)
        assert samples.dtype == np.complex128 and samples.shape == (24,)
        assert samples.tobytes() == signal.samples.tobytes()
        layout = json.loads((tmp_path / "fid.json").read_text())["array"]
        assert layout == {"file": "fid.tmp", "dtype": samples.dtype.name,
                          "shape": list(samples.shape), "axes": ["t2"]}
