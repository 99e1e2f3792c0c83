"""Fourier processing: apodized, zero-filled DFTs and cross-sections.

Frequency axes run negative to positive with zero at the center (fftshift
layout), in Hz, and are periodic in 1/dwell.  Detected coherences rotate as
exp(+2i*pi*f*t), so a line at frequency f lands at +f or at an alias of it.

Default processing is a matched exponential apodization (rate 1/T2), two-fold
zero fill, and halving of the first time-domain point.  Each can be switched
off; the Parseval identity holds exactly when apodization and the first-point
correction are disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .experiment import T2_BLOCK_ROWS, Signal1D, Signal2D


@dataclass(eq=False)
class HybridSpectrum:
    """Signal transformed along t2 only: rows are t1 samples ``dwell_t1_s``
    apart, columns are Omega2 bins."""

    grid: np.ndarray
    dwell_t1_s: float
    omega2_hz: np.ndarray
    meta: dict = field(default_factory=dict)


@dataclass(eq=False)
class Spectrum2D:
    """Fully transformed spectrum S(Omega1, Omega2)."""

    grid: np.ndarray
    omega1_hz: np.ndarray
    omega2_hz: np.ndarray
    meta: dict = field(default_factory=dict)


@dataclass(eq=False)
class Spectrum1D:
    values: np.ndarray
    omega_hz: np.ndarray
    meta: dict = field(default_factory=dict)


def _resolve_rate(apodization, meta: dict) -> float:
    """Decay rate in 1/s of ``apodization``: 0 for None, 1/T2 for "matched"."""
    if apodization is None:
        return 0.0
    if apodization != "matched":
        raise ValueError(f"unknown apodization {apodization!r}")
    t2_s = meta.get("t2_s")
    if not t2_s:
        raise ValueError("matched apodization needs t2_s in the signal metadata")
    return 1.0 / float(t2_s)


def _dft(data, dwell_s: float, meta: dict, apodization, zero_fill: int,
         first_point_half: bool, axis: int = -1):
    """(frequency axis, spectrum): apodize, halve the first point, zero-fill
    and FFT ``data`` along ``axis``, in fftshift layout."""
    rate = _resolve_rate(apodization, meta)
    x = np.array(data, dtype=complex)
    n = x.shape[axis]
    if rate:
        shape = [1] * x.ndim
        shape[axis] = n
        x *= np.exp(-rate * np.arange(n) * dwell_s).reshape(shape)
    if first_point_half:
        np.moveaxis(x, axis, 0)[0] *= 0.5
    freqs = hybrid_omega2_axis(n, dwell_s, zero_fill)
    return freqs, np.fft.fftshift(np.fft.fft(x, n=len(freqs), axis=axis), axes=axis)


def dft_t2(signal: Signal2D, apodization="matched", zero_fill: int = 2,
           first_point_half: bool = True, columns=slice(None), out=None) -> HybridSpectrum:
    """Transform along t2 for every t1 row, keeping the Omega2 bins
    ``columns`` (a slice or a list of bin indices; every bin by default).

    Each block of :data:`T2_BLOCK_ROWS` rows goes through :func:`_dft` on its
    own, and the kept bins are copied into ``out`` (n_t1 rows, one column
    per kept bin) when given, else into a new grid.  The transform acts on
    every row alone, so each kept cell is bit for bit that cell of the
    transform of the whole array.
    """
    n_t1 = signal.grid.shape[0]
    grid = out
    for start in range(0, n_t1, T2_BLOCK_ROWS):
        rows = slice(start, start + T2_BLOCK_ROWS)
        freqs, block = _dft(signal.grid[rows], signal.dwell_t2_s, signal.meta,
                            apodization, zero_fill, first_point_half, axis=1)
        block = block[:, columns]
        if grid is None:
            grid = np.empty((n_t1, block.shape[1]), dtype=complex)
        grid[rows] = block
    return HybridSpectrum(grid=grid, dwell_t1_s=signal.dwell_t1_s, omega2_hz=freqs[columns],
                          meta=signal.meta)


def dft_t1(hybrid: HybridSpectrum, apodization="matched", zero_fill: int = 2,
           first_point_half: bool = True) -> Spectrum2D:
    """Transform the hybrid data along t1, completing the 2D spectrum.

    Cosine-modulated t1 content produces symmetric absorptive pairs at
    +-Omega1, sine-modulated content antisymmetric dispersive pairs.
    """
    freqs, spec = _dft(hybrid.grid, hybrid.dwell_t1_s, hybrid.meta,
                       apodization, zero_fill, first_point_half, axis=0)
    return Spectrum2D(grid=spec, omega1_hz=freqs, omega2_hz=hybrid.omega2_hz,
                      meta=hybrid.meta)


# Omega2 columns per dft_t1 call when the magnitude is streamed or the
# cross-sections are taken, so the complex temporaries of one block stay a
# small part of the time grid.  The hybrid slabs of dft_t1_magnitude are a
# whole number of blocks wide, so each block is the one the whole hybrid
# would give.
T1_BLOCK_COLUMNS = 8


def dft_t1_magnitude(signal: Signal2D):
    """``(omega1_hz, blocks)``: the Omega1 axis of ``dft_t1(dft_t2(signal))``
    (default processing) and a generator of its magnitude in blocks of
    :data:`T1_BLOCK_COLUMNS` Omega2 columns, left to right.

    The hybrid is made by :func:`dft_t2` one slab of Omega2 columns at a
    time, each written into one reused buffer: n_t2 rounded up to a whole
    number of blocks wide and never past the axis end.  A power-of-two n_t2
    of 8 or more thus takes ``zero_fill`` (2) passes, and beside the time
    grid only one slab, about its size, is ever held.  Each block goes
    through :func:`dft_t1` on its own.  The transforms act on every row and
    column alone, so the float64 blocks side by side are bit for bit the
    magnitude of the whole transform, which is never held.
    """
    def slabs():
        n_t1, n_t2 = signal.grid.shape
        n_fft = len(hybrid_omega2_axis(n_t2, signal.dwell_t2_s))
        width = min(-(-n_t2 // T1_BLOCK_COLUMNS) * T1_BLOCK_COLUMNS, n_fft)
        buffer = np.empty((n_t1, width), dtype=complex)
        for start in range(0, n_fft, width):
            stop = min(start + width, n_fft)
            yield dft_t2(signal, columns=slice(start, stop), out=buffer[:, :stop - start])

    def blocks():
        for hybrid in slabs():
            for first in range(0, hybrid.grid.shape[1], T1_BLOCK_COLUMNS):
                columns = slice(first, first + T1_BLOCK_COLUMNS)
                yield np.abs(dft_t1(replace(hybrid, grid=hybrid.grid[:, columns],
                                            omega2_hz=hybrid.omega2_hz[columns])).grid)

    return hybrid_omega2_axis(signal.grid.shape[0], signal.dwell_t1_s), blocks()


def dft_fid(signal: Signal1D, apodization="matched", zero_fill: int = 2,
            first_point_half: bool = True) -> Spectrum1D:
    """Transform a one-dimensional FID."""
    freqs, spec = _dft(signal.samples, signal.dwell_s, signal.meta,
                       apodization, zero_fill, first_point_half)
    return Spectrum1D(values=spec, omega_hz=freqs, meta=signal.meta)


def _axis_bin(axis_hz: np.ndarray, frequency_hz: float) -> int:
    """The bin of the periodic DFT axis ``axis_hz`` nearest ``frequency_hz``:
    ``argmin(|axis_hz - frequency_hz|)`` within half a bin of the axis ends,
    and beyond that the bin of the alias that lies within."""
    half_bin = 0.5 * float(axis_hz[1] - axis_hz[0])
    low = axis_hz[0] - half_bin
    if not (low <= frequency_hz <= axis_hz[-1] + half_bin):
        frequency_hz = low + (frequency_hz - low) % (2 * half_bin * len(axis_hz))
    return int(np.argmin(np.abs(axis_hz - frequency_hz)))


def hybrid_omega2_axis(n_t2: int, dwell_t2_s: float, zero_fill: int = 2) -> np.ndarray:
    """The Omega2 axis :func:`dft_t2` would produce, without the transform.

    It is the one zero-fill rule: :func:`_dft` takes every frequency axis,
    and with it the transform length, from here.
    """
    # zero_fill times the next power of two at or above n_t2
    n_fft = int(zero_fill) << (int(n_t2) - 1).bit_length()
    return np.fft.fftshift(np.fft.fftfreq(n_fft, dwell_t2_s))


def cross_sections(signal: Signal2D, omega2_hz) -> tuple[list, Spectrum2D]:
    """``(bins, sections)``: the Omega2 bin nearest each of ``omega2_hz`` and
    the traces parallel to Omega1 there, column ``k`` for request ``k``, of
    the 2D spectrum ``dft_t1(dft_t2(signal))`` (default processing).

    :func:`dft_t2` keeps the requested bins' hybrid columns alone.
    ``sections`` holds the :func:`dft_t1` of those columns, its
    ``omega2_hz`` the bin frequencies.  They are transformed
    :data:`T1_BLOCK_COLUMNS` at a time into one section-major array, whose
    transpose is ``sections.grid``.  The transforms act on every row and
    column alone, so each trace equals that column of the whole 2D spectrum.
    A request beyond the axis ends reads the bin of its alias (:func:`_axis_bin`).
    """
    axis = hybrid_omega2_axis(signal.grid.shape[1], signal.dwell_t2_s)
    bins = [_axis_bin(axis, f) for f in omega2_hz]
    hybrid = dft_t2(signal, columns=bins)
    rows = None
    for start in range(0, max(len(bins), 1), T1_BLOCK_COLUMNS):
        block = slice(start, start + T1_BLOCK_COLUMNS)
        spectrum = dft_t1(replace(hybrid, grid=hybrid.grid[:, block],
                                  omega2_hz=hybrid.omega2_hz[block]))
        if rows is None:
            rows = np.empty((len(bins), len(spectrum.omega1_hz)), dtype=complex)
        rows[block] = spectrum.grid.T
    return bins, replace(spectrum, grid=rows.T, omega2_hz=hybrid.omega2_hz)
