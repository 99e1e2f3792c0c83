"""Pulse-sequence execution over sampled t1/t2 grids.

Sequence A (two-dimensional, reads out all off-diagonal content):

    t1 evolution -> (pi/2) about +y -> gradient -> alpha about -y -> detect(t2)

Sequence B (one-dimensional, reads out the diagonal):

    gradient -> beta about +y -> detect(t2)

Every step is linear in the density matrix, and free evolution is an
element-wise factor, so both sequences are linear maps written with one
formula: a pulse carries element (a, b) onto element (r, c) with weight
P[r, a] conj(P[c, b]).  The gradient keeps a support of elements
(:func:`gradient_support`), and the detector reads the single-quantum
elements, whose unit FIDs make the t2 samples.  Sequence A after t1
(:func:`sequence_A_map`) carries the evolved state onto the support, then
onto the detected elements; sequence B (:func:`sequence_B_map`) carries the
input state's support onto the detected elements.  The grid of sequence A is
filled :data:`T2_BLOCK_ROWS` t1 rows at a time, so no state is held for the
whole t1 axis; each block's evolution is the first block's times one phase
(:func:`t1_blocks`), shared with signal A's part of the design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (DEGENERACY_TOL_HZ, SpinSystem, _close_pairs, down_counts,
                   is_hermitian, rotation_pulse, single_quantum_transitions)
from .dynamics import delay_average, detection_elements, evolution_rates
from .errors import DegenerateTransitionError, NyquistError

# t1 rows made or transformed at once wherever a (t1, t2) grid is filled: the
# temporaries of one block stay a small part of the grid.
T2_BLOCK_ROWS = 64


def t1_factors(rates: np.ndarray, t1_times: np.ndarray, stride: int = 1) -> np.ndarray:
    """exp(t1 * rates) at every ``stride``-th sample of ``t1_times``: one row
    per sample, one column per rate."""
    return np.exp(np.outer(t1_times[::stride], rates))


def t1_blocks(rates: np.ndarray, t1_times: np.ndarray, head=None, blocks: int = 1):
    """Yield ``(rows, factors)``, free evolution over ``t1_times``, for
    ``blocks`` blocks of :data:`T2_BLOCK_ROWS` samples at a time.

    Row j of the block that starts at sample s evolves by
    exp(rates t1[j]) exp(rates t1[s]), ``head`` (computed when not given)
    times the block's phase.  The simulator and the design both take their
    factors from here, so they agree to the bit: one exp of the summed phase
    differs from the product by 1e-12 relative at 1e4 rad.  Every block is
    written into one buffer, so ``factors`` holds only until the next one
    is made: copy it to keep it.
    """
    if head is None:
        head = t1_factors(rates, t1_times[:T2_BLOCK_ROWS])
    buffer = np.empty((blocks, len(head), len(rates)), dtype=complex)
    for start in range(0, len(t1_times), blocks * T2_BLOCK_ROWS):
        rows = slice(start, start + blocks * T2_BLOCK_ROWS)
        times = t1_times[rows]
        phases = t1_factors(rates, times, T2_BLOCK_ROWS)
        factors = np.multiply(head, phases[:, None, :], out=buffer[:len(phases)])
        yield rows, factors.reshape(-1, len(rates))[:len(times)]


@dataclass(frozen=True)
class AcquisitionParams:
    """Sampling grid and pulse angles for one experiment pair.

    ``n_t1`` counts indirect-dimension increments starting at t1 = 0;
    ``n_t2`` counts FID samples starting at t2 = 0.  Powers of two keep the
    transforms simple; other lengths are zero-filled by the spectral module.
    """

    n_t1: int
    n_t2: int
    dwell_t1_s: float
    dwell_t2_s: float
    alpha_rad: float = np.pi / 4
    beta_rad: float = np.radians(10.0)

    def __post_init__(self):
        if self.n_t1 < 1 or self.n_t2 < 1:
            raise ValueError("n_t1 and n_t2 must be positive")
        if self.dwell_t1_s <= 0 or self.dwell_t2_s <= 0:
            raise ValueError("dwell times must be positive")

    @property
    def t1_times(self) -> np.ndarray:
        return np.arange(self.n_t1) * self.dwell_t1_s

    @property
    def t2_times(self) -> np.ndarray:
        return np.arange(self.n_t2) * self.dwell_t2_s

    def to_dict(self) -> dict:
        return {
            "n_t1": self.n_t1,
            "n_t2": self.n_t2,
            "dwell_t1_s": self.dwell_t1_s,
            "dwell_t2_s": self.dwell_t2_s,
            "alpha_rad": self.alpha_rad,
            "beta_rad": self.beta_rad,
        }


def transition_table(system: SpinSystem, tol_hz: float = DEGENERACY_TOL_HZ) -> tuple:
    """The :func:`~spintomo.core.single_quantum_transitions` of ``system``,
    refusing degenerate sets.

    Raises
    ------
    DegenerateTransitionError
        If any two transitions coincide within ``tol_hz``; the message names
        each line of a colliding pair by qubit, upper and lower eigenstate
        (kets, qubit 1 leftmost, 0 for up) and frequency.  Uncoupled spins
        always trip this (2^(n-1) lines on each bare Larmor frequency).

    Notes
    -----
    This is the one check that the lines can be told apart: every command
    and pipeline stage calls it before any work.
    """
    table = single_quantum_transitions(system)
    collisions = [(table[i], table[k]) for i, k in
                  _close_pairs([t.frequency_hz for t in table], tol_hz)]
    if collisions:
        desc = "; ".join(" vs ".join(
            f"qubit {t.qubit} |{t.upper:0{system.n}b}>-|{t.lower:0{system.n}b}> "
            f"({t.frequency_hz:.6g} Hz)" for t in pair) for pair in collisions[:8])
        raise DegenerateTransitionError(
            f"{len(collisions)} degenerate transition pair(s): {desc}",
            pairs=collisions,
        )
    return table


# Default spectral width of both dimensions, in units of the largest
# transition frequency.
SPECTRAL_WIDTH_FACTOR = 4.0


def default_acquisition(system: SpinSystem, n_t1: int | None = None,
                        n_t2: int = 512,
                        alpha_rad: float = AcquisitionParams.alpha_rad,
                        beta_rad: float = AcquisitionParams.beta_rad,
                        dwell_t1_s: float | None = None,
                        dwell_t2_s: float | None = None) -> AcquisitionParams:
    """Sensible defaults: spectral width :data:`SPECTRAL_WIDTH_FACTOR` times
    the largest transition.

    The t1 increment count grows with the register size to keep resolution as
    the number of lines grows.
    """
    sw = SPECTRAL_WIDTH_FACTOR * max(abs(t.frequency_hz) for t in transition_table(system))
    if not sw > 0 and (dwell_t1_s is None or dwell_t2_s is None):
        raise ValueError("every transition is at 0 Hz, so no default dwell "
                         "follows from it; set dwell_t1_s and dwell_t2_s")
    if n_t1 is None:
        n_t1 = 512 if system.n <= 2 else (1024 if system.n == 3 else 2048)
    return AcquisitionParams(
        n_t1=n_t1,
        n_t2=n_t2,
        dwell_t1_s=dwell_t1_s if dwell_t1_s is not None else 1.0 / sw,
        dwell_t2_s=dwell_t2_s if dwell_t2_s is not None else 1.0 / sw,
        alpha_rad=alpha_rad,
        beta_rad=beta_rad,
    )


def check_nyquist(table, params: AcquisitionParams) -> None:
    """Both spectral widths, 1/dwell, must exceed twice the largest frequency
    of the :func:`transition_table` ``table``."""
    fmax = max(abs(t.frequency_hz) for t in table)
    for name, sw in (("t1", 1.0 / params.dwell_t1_s), ("t2", 1.0 / params.dwell_t2_s)):
        if sw <= 2.0 * fmax:
            raise NyquistError(
                f"{name} spectral width {sw:.6g} Hz does not exceed twice the "
                f"largest transition frequency ({fmax:.6g} Hz)"
            )


@dataclass(eq=False)
class Signal2D:
    """Complex time-domain grid s(t1, t2) with sampling metadata."""

    grid: np.ndarray
    dwell_t1_s: float
    dwell_t2_s: float
    meta: dict = field(default_factory=dict)


@dataclass(eq=False)
class Signal1D:
    """Complex FID s(t2) with sampling metadata."""

    samples: np.ndarray
    dwell_s: float
    meta: dict = field(default_factory=dict)


def _validate_state(rho: np.ndarray, system: SpinSystem) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (system.dim, system.dim):
        raise ValueError(f"state shape {rho.shape} does not match dim {system.dim}")
    if not is_hermitian(rho):
        raise ValueError("state matrix is not Hermitian")
    return rho


def detection_fids(system: SpinSystem, t2_times: np.ndarray) -> np.ndarray:
    """Unit FIDs of the detected elements, one row per element.

    Row p is exp(rate_p * t2), with rate_p = 2i*pi*f_p - 1/T2 the
    :func:`~spintomo.dynamics.evolution_rates` entry of element p of
    :func:`~spintomo.dynamics.detection_elements`.
    """
    rows, cols, _ = detection_elements(system)
    return np.exp(np.outer(evolution_rates(system)[rows, cols], t2_times))


def _meta(sequence: str, system: SpinSystem, params: AcquisitionParams,
          **extra) -> dict:
    """A signal's metadata: the sequence, the system and the acquisition."""
    return {"sequence": sequence, "system": system.to_dict(), "t2_s": system.t2_s,
            "params": params.to_dict(), **extra}


def _gradient_meta(delays_s) -> dict:
    """The gradient entries of a signal's metadata.  A realistic gradient
    records its drawn delays in seconds, so the signal can be rerun exactly."""
    if delays_s is None:
        return {"gradient": "ideal"}
    return {"gradient": "realistic",
            "gradient_delays_s": [float(d) for d in np.ravel(delays_s)]}


def gradient_support(system: SpinSystem, gradient_delays_s=None):
    """``(a, b, w)``: the elements (a_k, b_k) the gradient keeps, weight w_k.

    The ideal gradient keeps the diagonal, a_k = b_k = k, with w_k = 1.  A
    realistic one keeps the zero-quantum block (equal down-spin counts), with
    w the :func:`~spintomo.dynamics.delay_average` of ``gradient_delays_s``.
    """
    if gradient_delays_s is None:
        a = np.arange(system.dim)
        return a, a, np.ones(system.dim)
    down = down_counts(system.n)
    a, b = np.nonzero(down[:, None] == down[None, :])
    return a, b, delay_average(system, gradient_delays_s)[a, b]


def _pulse_transfer(pulse: np.ndarray, rows, cols, a, b) -> np.ndarray:
    """W[p, k] = pulse[rows_p, a_k] conj(pulse[cols_p, b_k]): the weight
    with which ``pulse`` carries element (a_k, b_k) onto (rows_p, cols_p)."""
    return pulse[rows][:, a] * pulse[cols][:, b].conj()


def sequence_A_map(system: SpinSystem, params: AcquisitionParams, left, right,
                   gradient_delays_s=None):
    """``(to_support, to_detected)``: sequence A after t1 evolution as two
    matrices over the positions (left[j], right[j]) of the evolved state.

    The (pi/2) pulse P about +y and the gradient carry position j onto the
    :func:`gradient_support` (a_k, b_k, w_k), and the alpha read pulse R
    about -y carries the support onto the detected elements (rows_p, cols_p)
    of :func:`~spintomo.dynamics.detection_elements`:

        to_support[k, j] = w_k P[a_k, left_j] conj(P[b_k, right_j])
        to_detected[p, k] = R[rows_p, a_k] conj(R[cols_p, b_k])
    """
    a, b, weights = gradient_support(system, gradient_delays_s)
    rows, cols, _ = detection_elements(system)
    to_support = _pulse_transfer(rotation_pulse(system, np.pi / 2.0, 0.0),
                                 a, b, left, right)
    to_support *= weights[:, None]
    to_detected = _pulse_transfer(rotation_pulse(system, params.alpha_rad, np.pi),
                                  rows, cols, a, b)
    return to_support, to_detected


def sequence_B_map(system: SpinSystem, params: AcquisitionParams,
                   gradient_delays_s=None):
    """``(a, b, to_detected)``: sequence B as one matrix over the
    :func:`gradient_support` (a_k, b_k, w_k) of the input state.

    The beta pulse P about +y carries the support onto the detected elements
    (rows_p, cols_p) of :func:`~spintomo.dynamics.detection_elements`:

        to_detected[p, k] = w_k P[rows_p, a_k] conj(P[cols_p, b_k])
    """
    a, b, weights = gradient_support(system, gradient_delays_s)
    rows, cols, _ = detection_elements(system)
    to_detected = _pulse_transfer(rotation_pulse(system, params.beta_rad, 0.0),
                                  rows, cols, a, b)
    to_detected *= weights
    return a, b, to_detected


def run_sequence_A(system: SpinSystem, rho0: np.ndarray, params: AcquisitionParams,
                   gradient_delays_s=None) -> Signal2D:
    """Two-dimensional experiment over the full t1 x t2 grid.

    For each t1 increment: evolve the input state with decay, apply a hard
    (pi/2) pulse about +y, project through the gradient, apply the read pulse
    of angle alpha about -y, then record the FID.  The gradient is ideal
    unless ``gradient_delays_s`` holds the drawn delays of a realistic one.
    The rows are filled :data:`T2_BLOCK_ROWS` at a time, evolved by
    :func:`t1_blocks` and carried through :func:`sequence_A_map`.  Purely
    diagonal input produces a zero grid, to rounding.
    """
    rho0 = _validate_state(rho0, system)
    check_nyquist(transition_table(system), params)
    left, right = np.indices(rho0.shape).reshape(2, -1)
    to_support, to_detected = sequence_A_map(system, params, left, right,
                                             gradient_delays_s)
    onto_detected = to_support.T @ to_detected.T  # positions x detected elements
    fids = detection_fids(system, params.t2_times)
    grid = np.empty((params.n_t1, params.n_t2), dtype=complex)
    for rows, states in t1_blocks(evolution_rates(system).ravel(), params.t1_times):
        states *= rho0.ravel()
        np.matmul(states @ onto_detected, fids, out=grid[rows])
    return Signal2D(grid=grid, dwell_t1_s=params.dwell_t1_s,
                    dwell_t2_s=params.dwell_t2_s,
                    meta=_meta("A", system, params, **_gradient_meta(gradient_delays_s)))


def run_sequence_B(system: SpinSystem, rho0: np.ndarray, params: AcquisitionParams,
                   gradient_delays_s=None) -> Signal1D:
    """One-dimensional diagonal readout: gradient, beta pulse, detect.

    The gradient is as in :func:`run_sequence_A`.  The beta pulse converts
    population differences into single-quantum coherences.  The FID is the
    kept support of the input state carried through :func:`sequence_B_map`.
    """
    rho0 = _validate_state(rho0, system)
    check_nyquist(transition_table(system), params)
    a, b, to_detected = sequence_B_map(system, params, gradient_delays_s)
    samples = (to_detected @ rho0[a, b]) @ detection_fids(system, params.t2_times)
    return Signal1D(samples=samples, dwell_s=params.dwell_t2_s,
                    meta=_meta("B", system, params, **_gradient_meta(gradient_delays_s)))
