import io
import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from spintomo import (Signal1D, Signal2D, coefficients_to_density, cross_sections,
                      default_acquisition, dft_fid, dft_t1, dft_t2,
                      hybrid_omega2_axis, run_sequence_A,
                      transition_table)
from spintomo.cli import _write_array
from spintomo.spectral import (T1_BLOCK_COLUMNS, T2_BLOCK_ROWS, HybridSpectrum,
                               _axis_bin, _dft, dft_t1_magnitude)

from conftest import DEMO_COEFFS, local_maxima_above


def oscillator_fid(n, dwell, frequency, decay_s=None, amplitude=1.0):
    t = np.arange(n) * dwell
    samples = amplitude * np.exp(2j * np.pi * frequency * t)
    if decay_s is not None:
        samples *= np.exp(-t / decay_s)
    return Signal1D(samples=samples, dwell_s=dwell, meta={})


class TestDftCore:
    def test_oscillator_lands_exactly_on_its_bin(self):
        n, dwell = 256, 1e-3
        axis = np.fft.fftshift(np.fft.fftfreq(n, dwell))
        target = 170
        signal = oscillator_fid(n, dwell, axis[target])
        spectrum = dft_fid(signal, apodization=None, zero_fill=1,
                           first_point_half=False)
        assert np.argmax(np.abs(spectrum.values)) == target
        assert spectrum.omega_hz[target] == axis[target]

    def test_parseval(self):
        rng = np.random.default_rng(31)
        samples = rng.normal(size=128) + 1j * rng.normal(size=128)
        signal = Signal1D(samples=samples, dwell_s=1e-3, meta={})
        for zero_fill in (1, 2):
            spectrum = dft_fid(signal, apodization=None, zero_fill=zero_fill,
                               first_point_half=False)
            energy_time = np.sum(np.abs(samples) ** 2)
            energy_freq = np.sum(np.abs(spectrum.values) ** 2) / len(spectrum.values)
            assert abs(energy_freq / energy_time - 1.0) < 1e-9

    def test_first_point_halving(self):
        samples = np.ones(16, dtype=complex)
        signal = Signal1D(samples=samples, dwell_s=1e-3, meta={})
        full = dft_fid(signal, apodization=None, zero_fill=1, first_point_half=False)
        halved = dft_fid(signal, apodization=None, zero_fill=1, first_point_half=True)
        assert np.allclose(full.values - halved.values, 0.5)

    def test_matched_apodization_needs_t2(self):
        signal = Signal1D(samples=np.ones(8, dtype=complex), dwell_s=1e-3, meta={})
        with pytest.raises(ValueError, match="t2_s"):
            dft_fid(signal)

    @pytest.mark.parametrize("apodization", ["lorentzian", 20.0, 0.0])
    def test_unknown_apodization(self, apodization):
        # None and "matched" are the only values; a rate is not one
        signal = Signal1D(samples=np.ones(8, dtype=complex), dwell_s=1e-3,
                          meta={"t2_s": 0.05})
        with pytest.raises(ValueError, match="unknown apodization"):
            dft_fid(signal, apodization=apodization)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 100])
    @pytest.mark.parametrize("zero_fill", [1, 2, 4])
    def test_one_zero_fill_rule(self, n, zero_fill):
        # every transform's axis is hybrid_omega2_axis: fftfreq of zero_fill
        # times the next power of two, bit for bit
        dwell = 1e-3
        expected = np.fft.fftshift(np.fft.fftfreq(zero_fill * 2 ** int(np.ceil(np.log2(n))),
                                                  dwell))
        assert hybrid_omega2_axis(n, dwell, zero_fill).tobytes() == expected.tobytes()
        spectrum = dft_fid(Signal1D(samples=np.ones(n, dtype=complex), dwell_s=dwell),
                           apodization=None, zero_fill=zero_fill)
        assert spectrum.omega_hz.tobytes() == expected.tobytes()
        assert len(spectrum.values) == len(expected)

    @staticmethod
    def random_signal(n_t1, n_t2):
        rng = np.random.default_rng(34)
        grid = rng.normal(size=(n_t1, n_t2)) + 1j * rng.normal(size=(n_t1, n_t2))
        return Signal2D(grid=grid, dwell_t1_s=1e-3, dwell_t2_s=2e-4,
                        meta={"t2_s": 0.05})

    @pytest.mark.parametrize("n_t1", [3 * T2_BLOCK_ROWS + 5, T2_BLOCK_ROWS - 3])
    def test_t2_row_blocks_bit_exact(self, n_t1):
        # a last block shorter than the rest, and a grid shorter than a block
        signal = self.random_signal(n_t1, 100)
        hybrid = dft_t2(signal)
        freqs, expected = _dft(signal.grid, signal.dwell_t2_s, signal.meta,
                               "matched", 2, True, axis=1)
        assert hybrid.grid.dtype == expected.dtype and hybrid.grid.shape == expected.shape
        assert hybrid.grid.tobytes() == expected.tobytes()
        assert hybrid.omega2_hz.tobytes() == freqs.tobytes()

    def test_t2_kept_columns_bit_exact(self):
        # a slice of bins written into a given buffer, and a list of bins in
        # any order and with repeats, are copies of those hybrid columns
        signal = self.random_signal(T2_BLOCK_ROWS + 5, 100)
        whole = dft_t2(signal)
        out = np.empty((signal.grid.shape[0], 40), dtype=complex)
        for columns, buffer in ((slice(200, 240), out), ([255, 3, 3, 128], None)):
            part = dft_t2(signal, columns=columns, out=buffer)
            assert buffer is None or part.grid is buffer
            assert part.grid.tobytes() == whole.grid[:, columns].tobytes()
            assert part.omega2_hz.tobytes() == whole.omega2_hz[columns].tobytes()
            assert part.meta == whole.meta

    def test_t2_transform_memory_bounded(self):
        # the whole-array transform held its complex copy, the zero-filled
        # output and the shifted copy at once: 2.53x the hybrid's bytes
        signal = self.random_signal(32 * T2_BLOCK_ROWS + 32, 128)
        tracemalloc.start()
        try:
            hybrid = dft_t2(signal)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * hybrid.grid.nbytes

    def test_hybrid_axis_helper_matches_dft(self, two_spin_system):
        rho0 = coefficients_to_density(two_spin_system, DEMO_COEFFS)
        params = default_acquisition(two_spin_system, n_t1=8, n_t2=64)
        hybrid = dft_t2(run_sequence_A(two_spin_system, rho0, params))
        assert np.allclose(hybrid.omega2_hz,
                           hybrid_omega2_axis(params.n_t2, params.dwell_t2_s))


class TestLineShapes:
    def test_cosine_rows_give_symmetric_absorptive_pairs(self):
        n, dwell, f, tau = 256, 1e-3, 62.5, 0.05
        t = np.arange(n) * dwell
        trace = np.cos(2 * np.pi * f * t) * np.exp(-t / tau)
        hybrid = HybridSpectrum(grid=trace[:, None].astype(complex),
                                dwell_t1_s=dwell, omega2_hz=np.array([0.0]),
                                meta={"t2_s": tau})
        spectrum = dft_t1(hybrid, apodization=None, zero_fill=1,
                          first_point_half=True)
        real = spectrum.grid[:, 0].real
        axis = spectrum.omega1_hz
        plus = _axis_bin(axis, +f)
        minus = _axis_bin(axis, -f)
        assert real[plus] == pytest.approx(real.max(), rel=1e-6)
        assert real[minus] == pytest.approx(real[plus], rel=1e-6)

    def test_sine_rows_give_antisymmetric_dispersive_pairs(self):
        n, dwell, f, tau = 256, 1e-3, 62.5, 0.05
        t = np.arange(n) * dwell
        trace = np.sin(2 * np.pi * f * t) * np.exp(-t / tau)
        hybrid = HybridSpectrum(grid=trace[:, None].astype(complex),
                                dwell_t1_s=dwell, omega2_hz=np.array([0.0]),
                                meta={"t2_s": tau})
        spectrum = dft_t1(hybrid, apodization=None, zero_fill=1,
                          first_point_half=True)
        real = spectrum.grid[:, 0].real
        axis = spectrum.omega1_hz
        plus = _axis_bin(axis, +f)
        minus = _axis_bin(axis, -f)
        scale = np.max(np.abs(real))
        # dispersive shape: near-zero crossing at each line center with
        # opposite-signed lobes on either side
        assert abs(real[plus]) < 0.05 * scale
        lobe = np.max(np.abs(real[plus - 4:plus + 5]))
        assert lobe > 0.3 * scale
        # opposite-line tails bias the lobes a little, hence the loose bound
        for k in (2, 3):
            assert np.sign(real[plus + k]) == -np.sign(real[plus - k])
            assert real[plus + k] == pytest.approx(-real[plus - k], rel=0.25)
        # the time samples are real, so the real part is mirror symmetric
        assert np.allclose(real[minus - 4:minus + 5], real[plus + 4:plus - 5:-1],
                           atol=1e-9 * scale)

    def test_apodization_does_not_shift_peak_center(self):
        n, dwell, tau = 512, 1e-3, 0.04
        axis_plain = np.fft.fftshift(np.fft.fftfreq(2 * n, dwell))
        f = axis_plain[len(axis_plain) // 2 + 101] + 0.2 * (axis_plain[1] - axis_plain[0])
        signal = oscillator_fid(n, dwell, f, decay_s=tau)
        signal.meta["t2_s"] = tau
        centers = {}
        for apod in (None, "matched"):
            spectrum = dft_fid(signal, apodization=apod)
            power = np.abs(spectrum.values) ** 2
            window = 40
            b = _axis_bin(spectrum.omega_hz, f)
            sl = slice(b - window, b + window + 1)
            centers[apod] = (np.sum(spectrum.omega_hz[sl] * power[sl])
                             / np.sum(power[sl]))
        bin_width = axis_plain[1] - axis_plain[0]
        assert abs(centers[None] - f) < 0.5 * bin_width
        assert abs(centers["matched"] - f) < 0.5 * bin_width


@pytest.fixture(scope="module")
def demo_hybrid():
    import spintomo
    system = spintomo.build_spin_system(2, [1200.0, 1800.0], {(1, 2): 200.0}, 0.010)
    rho0 = coefficients_to_density(system, DEMO_COEFFS)
    params = default_acquisition(system)
    hybrid = dft_t2(run_sequence_A(system, rho0, params))
    return system, hybrid


class TestDemoSpectra:

    def test_t2_peaks_only_at_transitions(self, demo_hybrid):
        system, hybrid = demo_hybrid
        profile = np.max(np.abs(hybrid.grid), axis=0)
        bin_width = hybrid.omega2_hz[1] - hybrid.omega2_hz[0]
        table_freqs = np.array([t.frequency_hz for t in transition_table(system)])
        peaks = local_maxima_above(profile, 1e-6 * profile.max())
        assert peaks
        for index in peaks:
            assert np.min(np.abs(table_freqs - hybrid.omega2_hz[index])) <= bin_width

    def test_omega1_support_set(self, demo_hybrid):
        system, hybrid = demo_hybrid
        spectrum = dft_t1(hybrid)
        profile = np.max(np.abs(spectrum.grid), axis=1)
        expected = []
        for f in (1100.0, 1300.0, 1700.0, 1900.0, 600.0, 3000.0):
            expected += [f, -f]
        expected = np.array(expected)
        bin_width = spectrum.omega1_hz[1] - spectrum.omega1_hz[0]
        peaks = local_maxima_above(profile, 1e-6 * profile.max())
        assert peaks
        found = {spectrum.omega1_hz[i] for i in peaks}
        # mixed absorptive/dispersive lineshapes shift magnitude maxima by up
        # to about one bin, hence the two-bin bound
        for index in peaks:
            assert np.min(np.abs(expected - spectrum.omega1_hz[index])) <= 2 * bin_width
        # spectrum resolves at least the single-quantum and double/zero
        # quantum groups on both sides of the axis
        assert any(f > 0 for f in found) and any(f < 0 for f in found)


class TestCrossSection:
    def make_signal(self, n_t1=64, n_t2=16, seed=32):
        # 1 ms dwells: a 1000 Hz wide Omega2 axis, of 2 * n_t2 bins for a power of two
        rng = np.random.default_rng(seed)
        grid = rng.normal(size=(n_t1, n_t2)) + 1j * rng.normal(size=(n_t1, n_t2))
        return Signal2D(grid=grid, dwell_t1_s=1e-3, dwell_t2_s=1e-3, meta={"t2_s": 0.05})

    @staticmethod
    def axis(signal):
        return hybrid_omega2_axis(signal.grid.shape[1], signal.dwell_t2_s)

    def test_nearest_bin_column(self):
        signal = self.make_signal()
        axis = self.axis(signal)
        request = float(axis[12]) + 0.5
        bins, sections = cross_sections(signal, [request])
        nearest = int(np.argmin(np.abs(axis - request)))
        assert bins == [nearest] == [12]
        assert sections.omega2_hz[0] == axis[12]

    def test_linearity(self):
        signal_a, signal_b = self.make_signal(), self.make_signal(seed=33)
        summed = replace(signal_a, grid=signal_a.grid + signal_b.grid)
        anchor = float(self.axis(signal_a)[20])
        (_, a), (_, b), (_, s) = (cross_sections(signal, [anchor])
                                  for signal in (signal_a, signal_b, summed))
        assert np.allclose(s.grid, a.grid + b.grid)

    def test_far_request_reads_alias_bin(self):
        # the 1000 Hz wide axis repeats every 1000 Hz: 1e4 Hz is read at 0 Hz
        # and -10062.5 Hz at -62.5 Hz
        signal = self.make_signal()
        axis = self.axis(signal)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bins, sections = cross_sections(signal, [1e4, -1e4 - 62.5])
        assert bins == [16, 14]
        assert list(sections.omega2_hz) == [0.0, -62.5] == list(axis[bins])

    def test_half_bin_beyond_axis_end_reads_end_bin(self):
        # within half a bin of an end the end bin is nearest; beyond it the
        # other end is, in circular distance
        signal = self.make_signal()
        axis = self.axis(signal)
        half_bin = 0.5 * (axis[1] - axis[0])
        last = len(axis) - 1
        for request, end in ((axis[-1] + 0.99 * half_bin, last),
                             (axis[0] - 0.99 * half_bin, 0),
                             (axis[-1] + 1.01 * half_bin, 0),
                             (axis[0] - 1.01 * half_bin, last)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # 15.5 Hz off a 6.4 Hz wide line
                bins, sections = cross_sections(signal, [request])
            assert bins == [end]
            assert sections.omega2_hz[0] == axis[end]

    def test_axis_bin_is_argmin_within_half_a_bin(self):
        # every request at most half a bin beyond the ends, ties included,
        # reads the bin argmin(|axis - f|) gives
        for axis in (self.axis(self.make_signal()), hybrid_omega2_axis(1, 1.791e-4),
                     hybrid_omega2_axis(512, 1.0 / 3801.0)):
            half_bin = 0.5 * (axis[1] - axis[0])
            requests = np.concatenate([axis, axis + half_bin, axis - half_bin,
                                       axis + 0.3 * half_bin,
                                       [axis[0] - half_bin, axis[-1] + half_bin]])
            for f in requests:
                assert _axis_bin(axis, f) == int(np.argmin(np.abs(axis - f)))

    def four_bin_signal(self):
        # n_t2 = 2 at 1.25 ms: the Omega2 bins are -400, -200, 0 and 200 Hz
        signal = self.make_signal(n_t2=2)
        signal.dwell_t2_s = 1.25e-3
        assert np.allclose(self.axis(signal), [-400.0, -200.0, 0.0, 200.0])
        return signal

    def test_far_bin_read_silently(self):
        # 90 Hz lies far more than half a linewidth (3.2 Hz) from its bin;
        # the section is read there without a warning
        signal = self.four_bin_signal()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bins, sections = cross_sections(signal, [90.0])
        assert bins == [2]
        spectrum = dft_t1(dft_t2(signal))
        assert sections.grid[:, 0].tobytes() == spectrum.grid[:, 2].tobytes()

    def test_each_far_section_read_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bins, _ = cross_sections(self.four_bin_signal(),
                                     [90.0, 0.5, -110.0, 200.0, 90.0])
        assert bins == [2, 2, 1, 3, 2]

    def test_sections_are_spectrum_columns(self):
        # one transform of the gathered columns, in request order and with
        # repeats, equals those columns of the whole 2D spectrum bit for bit
        signal = self.make_signal(n_t1=100, n_t2=20)
        spectrum = dft_t1(dft_t2(signal))
        requests = spectrum.omega2_hz[[30, 3, 30, 17, 39, 0]] + 1.0
        bins, sections = cross_sections(signal, requests)
        assert bins == [30, 3, 30, 17, 39, 0]
        assert sections.grid.shape == (len(spectrum.omega1_hz), len(requests))
        assert sections.omega1_hz.tobytes() == spectrum.omega1_hz.tobytes()
        assert sections.omega2_hz.tobytes() == spectrum.omega2_hz[bins].tobytes()
        for k, b in enumerate(bins):
            assert sections.grid[:, k].tobytes() == spectrum.grid[:, b].tobytes()

    def test_time_and_frequency_forms_consistent(self):
        signal = self.make_signal()
        (b,), sections = cross_sections(signal, [62.5])
        trace = Signal1D(samples=dft_t2(signal).grid[:, b],
                         dwell_s=signal.dwell_t1_s,
                         meta={"t2_s": signal.meta["t2_s"]})
        again = dft_fid(trace, apodization="matched", zero_fill=2,
                        first_point_half=True)
        assert np.max(np.abs(again.values - sections.grid[:, 0])) < 1e-10

    @pytest.mark.parametrize("n_t2", [3 * T1_BLOCK_COLUMNS + 5, T1_BLOCK_COLUMNS - 3])
    def test_streamed_magnitude_bit_exact(self, n_t2, tmp_path):
        # an n_t2 that is no whole number of blocks, and one narrower than a
        # block: two hybrid slabs of 32 and of 8 columns
        signal = TestDftCore.random_signal(100, n_t2)
        spectrum = dft_t1(dft_t2(signal))
        omega1_hz, blocks = dft_t1_magnitude(signal)
        magnitude = np.concatenate(list(blocks), axis=1)
        expected = np.abs(spectrum.grid)
        assert magnitude.dtype == expected.dtype and magnitude.shape == expected.shape
        assert magnitude.tobytes() == expected.tobytes()
        assert omega1_hz.tobytes() == spectrum.omega1_hz.tobytes()
        # written as they come, the blocks make the file np.save writes of the
        # column-major grid, and the sidecar describes that file
        _, blocks = dft_t1_magnitude(signal)
        _write_array(tmp_path, "m.npy", blocks, ["omega1", "omega2"], "m.json",
                     shape=expected.shape)
        saved = io.BytesIO()
        np.save(saved, np.asfortranarray(expected))
        assert (tmp_path / "m.npy").read_bytes() == saved.getvalue()
        layout = json.loads((tmp_path / "m.json").read_text())["array"]
        grid = np.load(tmp_path / "m.npy", allow_pickle=False)
        assert layout["dtype"] == grid.dtype.name == "float64"
        assert layout["shape"] == list(grid.shape) == list(expected.shape)

    @pytest.mark.parametrize("n_t2", [100, 2])
    def test_streamed_magnitude_from_signal_bit_exact(self, n_t2, tmp_path):
        # a 256-bin axis whose last hybrid slab is narrower than the rest, and
        # a 4-bin axis narrower than one block
        self.test_streamed_magnitude_bit_exact(n_t2, tmp_path)

    def test_non_power_of_two_lengths_zero_filled(self):
        signal = Signal1D(samples=np.ones(100, dtype=complex), dwell_s=1e-3,
                          meta={})
        spectrum = dft_fid(signal, apodization=None, zero_fill=2)
        assert len(spectrum.values) == 256
        assert len(spectrum.omega_hz) == 256

    def test_peakless_trace_near_zero(self):
        # every row is weighted by the inverse of the default t2 processing
        # (matched apodization, halved first point), so the processed rows are
        # a noiseless oscillator without decay: off-line columns are empty
        n_t1, n_t2 = 16, 128
        dwell, t2_s = 1e-3, 0.05
        axis = hybrid_omega2_axis(n_t2, dwell)
        f = axis[192]
        t2 = np.arange(n_t2) * dwell
        row = np.exp(2j * np.pi * f * t2) * np.exp(t2 / t2_s)
        row[0] *= 2.0
        signal = Signal2D(grid=np.tile(row, (n_t1, 1)), dwell_t1_s=1e-3, dwell_t2_s=dwell,
                          meta={"t2_s": t2_s})
        # an even number of zero-filled bins off the line: a node of its sinc
        (on_peak, off_peak), sections = cross_sections(signal, [f, axis[80]])
        assert (on_peak, off_peak) == (192, 80)
        assert (np.max(np.abs(sections.grid[:, 1]))
                <= 1e-9 * np.max(np.abs(sections.grid[:, 0])))
