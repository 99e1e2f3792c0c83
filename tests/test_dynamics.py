import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from spintomo import (AcquisitionParams, coefficients_to_density,
                      evolution_rates, product_operator, rotation_pulse,
                      run_sequence_B)
from spintomo.core import energies
from spintomo.dynamics import (GRADIENT_DELAY_BLOCK, delay_average,
                               detection_elements)
from spintomo.experiment import gradient_support

from conftest import (DEMO_COEFFS, apply_unitary, clustered_systems,
                      detect_signal, evolve, local_maxima_above,
                      nonzero_detection_elements, random_hermitian_traceless,
                      reference_sequence_b)


class TestEvolutionRates:
    def test_rotation_and_decay_match_oracle(self, two_spin_system):
        rates = evolution_rates(two_spin_system)
        off = ~np.eye(4, dtype=bool)
        assert np.all(np.diag(rates) == 0)
        assert np.all(rates.real[off] == -1.0 / two_spin_system.t2_s)
        assert np.array_equal(rates.imag, -rates.imag.T)
        # element (0, 2) rotates at the 1300 Hz transition of spin 1
        assert rates[0, 2].imag == pytest.approx(-2 * np.pi * 1300.0, rel=1e-12)
        rho = random_hermitian_traceless(np.random.default_rng(0), 4)
        for t in (0.0, 3.3e-3, 0.2):
            assert np.allclose(rho * np.exp(rates * t), evolve(rho, two_spin_system, t),
                               rtol=1e-13, atol=1e-13)


class TestEvolve:
    def test_zero_time_identity(self, two_spin_system):
        rng = np.random.default_rng(0)
        rho = random_hermitian_traceless(rng, 4)
        assert np.allclose(evolve(rho, two_spin_system, 0.0), rho)

    def test_single_element_phase(self, two_spin_system):
        # element (0, 2) connects the two states whose energy difference
        # is 1300 Hz; its phase must advance at exactly that rate
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 2] = 1.0
        rho[2, 0] = 1.0
        t = 1.7e-4
        evolved = evolve(rho, two_spin_system, t, with_decay=False)
        assert evolved[0, 2] == pytest.approx(np.exp(-2j * np.pi * 1300.0 * t), abs=1e-12)
        assert evolved[2, 0] == pytest.approx(np.exp(+2j * np.pi * 1300.0 * t), abs=1e-12)

    def test_decay_at_t2(self, two_spin_system):
        rho = product_operator(two_spin_system, "xo")
        evolved = evolve(rho, two_spin_system, two_spin_system.t2_s, with_decay=True)
        ratio = np.abs(evolved[0, 2]) / np.abs(rho[0, 2])
        assert ratio == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_magnitudes_conserved_without_decay(self, two_spin_system):
        rng = np.random.default_rng(1)
        rho = random_hermitian_traceless(rng, 4)
        evolved = evolve(rho, two_spin_system, 3.3e-3, with_decay=False)
        assert np.allclose(np.abs(evolved), np.abs(rho))

    def test_diagonal_always_conserved(self, two_spin_system):
        rng = np.random.default_rng(2)
        rho = random_hermitian_traceless(rng, 4)
        evolved = evolve(rho, two_spin_system, 5e-3, with_decay=True)
        assert np.allclose(np.diag(evolved), np.diag(rho))


class TestApplyUnitary:
    def test_identity(self, two_spin_system):
        rng = np.random.default_rng(3)
        rho = random_hermitian_traceless(rng, 4)
        assert np.allclose(apply_unitary(rho, np.eye(4)), rho)

    def test_z_to_x_rotation(self, two_spin_system):
        pulse = rotation_pulse(two_spin_system, np.pi / 2, 0.0)
        rho = coefficients_to_density(two_spin_system, {"zo": 2.0, "oz": 3.0})
        rotated = apply_unitary(rho, pulse)
        expected = coefficients_to_density(two_spin_system, {"xo": 2.0, "ox": 3.0})
        assert np.max(np.abs(rotated - expected)) < 1e-12

    def test_spectrum_preserved(self, two_spin_system):
        rng = np.random.default_rng(4)
        rho = random_hermitian_traceless(rng, 4)
        unitary = rotation_pulse(two_spin_system, 0.9, 1.3)
        rotated = apply_unitary(rho, unitary)
        assert abs(np.trace(rotated) - np.trace(rho)) < 1e-10
        assert np.allclose(np.linalg.eigvalsh(rotated), np.linalg.eigvalsh(rho),
                           atol=1e-10)
        assert np.max(np.abs(rotated - rotated.conj().T)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply_unitary(np.zeros((4, 4)), np.eye(2))


class TestGradientProject:
    """The ideal gradient keeps the diagonal of the state, weight 1."""

    def test_transverse_killed(self, two_spin_system):
        rho = product_operator(two_spin_system, "xo")
        a, b, _ = gradient_support(two_spin_system)
        assert np.all(rho[a, b] == 0.0)
        signal = run_sequence_B(two_spin_system, rho, small_params())
        assert np.max(np.abs(signal.samples)) <= 1e-12

    def test_demo_state_diagonal(self, two_spin_system):
        a, b, weights = gradient_support(two_spin_system)
        assert np.array_equal(a, np.arange(4)) and np.array_equal(b, a)
        assert np.all(weights == 1.0)
        rho = coefficients_to_density(two_spin_system, DEMO_COEFFS)
        assert np.allclose(rho[a, b], [3.325, -2.325, -1.025, 0.025])

    def test_idempotent(self, two_spin_system):
        # sequence B reads only the kept support: a state already reduced to
        # it gives the same FID, bit for bit
        rho = random_hermitian_traceless(np.random.default_rng(5), 4)
        a, b, _ = gradient_support(two_spin_system)
        once = np.zeros_like(rho)
        once[a, b] = rho[a, b]
        params = small_params()
        assert np.array_equal(run_sequence_B(two_spin_system, once, params).samples,
                              run_sequence_B(two_spin_system, rho, params).samples)


def draw_delays(seed, draws, tau_max_s=0.02):
    """``draws`` delays uniform in [0, tau_max_s], as the CLI draws them."""
    return np.random.default_rng(seed).uniform(0.0, tau_max_s, size=draws)


def zero_quantum_weight(system, delays):
    """The gradient's weight on element (1, 2), the two-spin zero quantum."""
    a, b, weights = gradient_support(system, delays)
    return weights[(a == 1) & (b == 2)].item()


def small_params(n_t2=16):
    return AcquisitionParams(n_t1=4, n_t2=n_t2, dwell_t1_s=1.0 / 7600.0,
                             dwell_t2_s=1.0 / 7600.0)


class TestRealisticGradient:
    """The realistic gradient keeps the zero-quantum block, each element
    times the :func:`delay_average` of the drawn delays."""

    def test_diagonal_untouched(self, two_spin_system):
        a, b, weights = gradient_support(two_spin_system, draw_delays(6, 8))
        assert np.array_equal(a[a == b], np.arange(4))
        assert np.all(weights[a == b] == 1.0)

    def test_zero_quantum_survives_single_draw(self, two_spin_system):
        assert zero_quantum_weight(two_spin_system, [0.0]) == 1.0
        # IxIx + IyIy is purely zero quantum plus its conjugate: silent under
        # the ideal gradient, read in full after one delay of 0
        rho = (product_operator(two_spin_system, "xx")
               + product_operator(two_spin_system, "yy"))
        params = small_params(n_t2=32)
        signal = run_sequence_B(two_spin_system, rho, params, gradient_delays_s=[0.0])
        expected = reference_sequence_b(two_spin_system, rho, params, [0.0])
        assert np.max(np.abs(expected)) > 0.1
        assert np.max(np.abs(signal.samples - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_averaging_suppresses_zero_quantum(self, two_spin_system):
        single = abs(zero_quantum_weight(two_spin_system, draw_delays(8, 1)))
        averaged = abs(zero_quantum_weight(two_spin_system, draw_delays(8, 64)))
        assert averaged < 0.5 * single
        assert averaged < 0.35

    def test_higher_orders_removed(self, two_spin_system, four_spin_system):
        # the support is every pair of equal down-spin count and nothing else
        a, b, _ = gradient_support(four_spin_system, draw_delays(6, 8))
        down = [bin(r).count("1") for r in range(16)]
        kept = {(r, s) for r in range(16) for s in range(16) if down[r] == down[s]}
        assert set(zip(a.tolist(), b.tolist())) == kept and len(a) == 70
        rho = product_operator(two_spin_system, "xo")
        signal = run_sequence_B(two_spin_system, rho, small_params(),
                                gradient_delays_s=draw_delays(9, 4))
        assert np.max(np.abs(signal.samples)) <= 1e-12

    def test_empty_delays_rejected(self, two_spin_system):
        with pytest.raises(ValueError, match="at least one delay"):
            delay_average(two_spin_system, np.empty(0))

    @pytest.mark.parametrize("bad", [-1e-3, np.nan])
    def test_negative_delay_rejected(self, two_spin_system, bad):
        delays = np.append(draw_delays(7, 2 * GRADIENT_DELAY_BLOCK), bad)
        with pytest.raises(ValueError, match="non-negative"):
            delay_average(two_spin_system, delays)

    @pytest.mark.parametrize("draws", [1, 2 * GRADIENT_DELAY_BLOCK,
                                       32 * GRADIENT_DELAY_BLOCK + 1])
    def test_blocks_match_one_shot_mean(self, four_spin_system, draws):
        delays = draw_delays(15, draws, tau_max_s=2.0)
        rates = evolution_rates(four_spin_system)
        one_shot = np.exp(delays[:, None, None] * rates).mean(axis=0)
        blocked = delay_average(four_spin_system, delays)
        assert blocked.tobytes() == one_shot.tobytes()

    def test_memory_independent_of_draws(self, four_spin_system):
        # all factors at once peaked at 1.4 MB for 128 draws, 80 MB for 8192
        peaks = {}
        for draws in (128, 8192):
            delays = draw_delays(17, draws)
            tracemalloc.start()
            try:
                delay_average(four_spin_system, delays)
                _, peaks[draws] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[8192] < 2 * peaks[128]


class TestDetectSignal:
    def test_diagonal_silent(self, two_spin_system):
        rho = np.diag([1.0, 2.0, -1.0, -2.0]).astype(complex)
        assert detect_signal(rho, two_spin_system) == pytest.approx(0.0, abs=1e-14)

    def test_x_gives_real_unit(self, two_spin_system):
        rho = product_operator(two_spin_system, "xo")
        assert detect_signal(rho, two_spin_system) == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_y_gives_imaginary_unit(self, two_spin_system):
        rho = product_operator(two_spin_system, "yo")
        assert detect_signal(rho, two_spin_system) == pytest.approx(0.0 + 1.0j, abs=1e-14)

    def test_linearity(self, two_spin_system):
        rng = np.random.default_rng(12)
        rho_a = random_hermitian_traceless(rng, 4)
        rho_b = random_hermitian_traceless(rng, 4)
        a, b = rng.uniform(-2, 2, size=2)
        combined = detect_signal(a * rho_a + b * rho_b, two_spin_system)
        split = a * detect_signal(rho_a, two_spin_system) + b * detect_signal(rho_b, two_spin_system)
        assert combined == pytest.approx(split, abs=1e-12)


class TestDetectionElements:
    @settings(max_examples=100, deadline=None)
    @given(clustered_systems())
    def test_matches_raising_operator_nonzeros(self, system):
        # bit for bit and in the same order, degenerate registers included
        for got, expected in zip(detection_elements(system),
                                 nonzero_detection_elements(system)):
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()


class TestSpectralSupport:
    def test_fid_peaks_at_cache_frequencies(self, two_spin_system):
        # detected spectrum of a freely evolving operator may only contain
        # eigenvalue-difference frequencies
        level = energies(two_spin_system)
        rho = product_operator(two_spin_system, "xo")
        n, dwell = 512, 1.0 / 7600.0
        fid = np.array([
            detect_signal(evolve(rho, two_spin_system, k * dwell), two_spin_system)
            for k in range(n)
        ])
        spectrum = np.fft.fftshift(np.fft.fft(fid))
        freqs = np.fft.fftshift(np.fft.fftfreq(n, dwell))
        bin_width = freqs[1] - freqs[0]
        magnitude = np.abs(spectrum)
        peaks = local_maxima_above(magnitude, 1e-6 * magnitude.max())
        allowed = np.unique(level[:, None] - level[None, :])
        for index in peaks:
            assert np.min(np.abs(allowed - freqs[index])) <= bin_width
