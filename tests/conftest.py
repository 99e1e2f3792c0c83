
import numpy as np
import pytest
from hypothesis import strategies as st

from spintomo import (build_spin_system, fid_coordinates, rotation_pulse, run_sequence_A,
                      run_sequence_B, tomograph_state, transition_table)
from spintomo.core import down_counts, energies

# Two-spin demonstration system and state used across the suite.
TWO_SPIN_LARMOR = (1200.0, 1800.0)
TWO_SPIN_J = 200.0
TWO_SPIN_T2 = 0.010

DEMO_COEFFS = {
    "zo": 1.0, "oz": 2.3, "zz": 6.7,
    "xo": 1.0, "xz": 10.0, "yo": 5.0, "yz": 3.5,
    "yy": 2.5, "yx": 7.2, "xx": 13.0, "xy": 1.45,
    "ox": 2.0, "zx": 3.45, "oy": 6.9, "zy": 6.753,
}

FOUR_SPIN_LARMOR = (600.0, 750.0, 1000.0, 1400.0)
FOUR_SPIN_COUPLINGS = {
    (1, 2): 20.0, (1, 3): 10.0, (1, 4): 70.0,
    (2, 3): 35.0, (2, 4): 24.0, (3, 4): 16.0,
}
FOUR_SPIN_STATE = {
    "xooo": 0.8, "yooo": 1.0, "oxoo": 0.5, "oyoo": 1.0,
    "ooxo": 0.9, "ooyo": 1.1, "ooox": 1.0, "oooy": 1.2,
    "xxxx": 6.3, "xyyy": 3.9, "xxzz": 1.0, "oxxx": 1.3,
    "xxyo": 1.9, "xzyx": 1.5,
    "oooz": 0.6, "ozoz": 1.0, "ozzz": 1.3, "zzzz": 2.0,
}


@pytest.fixture
def two_spin_system():
    return build_spin_system(2, TWO_SPIN_LARMOR, {(1, 2): TWO_SPIN_J}, TWO_SPIN_T2)


@pytest.fixture
def four_spin_system():
    return build_spin_system(4, FOUR_SPIN_LARMOR, FOUR_SPIN_COUPLINGS, 0.010)


def random_hermitian_traceless(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    herm = 0.5 * (raw + raw.conj().T)
    return herm - np.trace(herm) / dim * np.eye(dim)


def random_coefficients(rng, labels, low=-10.0, high=10.0):
    return {label: float(rng.uniform(low, high)) for label in labels}


def noiseless_measurements(design, rho0):
    """``(signal_a, signal_b)``: the noiseless measurements of ``rho0`` on the
    design's register and grid, signal A as its coordinates in the design's
    basis."""
    system, params = design.system, design.params
    return (fid_coordinates(run_sequence_A(system, rho0, params), design.basis),
            run_sequence_B(system, rho0, params))


def noiseless_tomography(design, rho0):
    """The inversion of the noiseless measurements of ``rho0``, scored against it."""
    return tomograph_state(design, *noiseless_measurements(design, rho0), truth=rho0)


def dense_design(design):
    """Signal A's block of the design operator's matrix, from unit vectors:
    its rows, one column per off-diagonal label."""
    rows = 2 * design.params.n_t1 * design.basis.shape[1]
    return np.column_stack([design.apply(e)[:rows]
                            for e in np.eye(design.shape[1])[:len(design.order)]])


# ---------------------------------------------------------------------------
# Step-by-step oracle: one density matrix at a time, written from the energies
# and Kronecker products, sharing no evolution code with the package.


def evolve(rho, system, t_s, with_decay=True):
    """Free evolution for ``t_s``: element (r, s) rotates as
    exp(-2i*pi*(E_r - E_s)*t) and, with ``with_decay``, off-diagonal
    elements shrink by exp(-t/T2)."""
    level = energies(system)
    factor = np.exp(-2.0j * np.pi * (level[:, None] - level[None, :]) * t_s)
    if with_decay:
        factor = factor * np.exp(-(1.0 - np.eye(system.dim)) * (t_s / system.t2_s))
    return np.asarray(rho, dtype=complex) * factor


def apply_unitary(rho, unitary):
    """Conjugation U rho U^dagger."""
    rho = np.asarray(rho, dtype=complex)
    unitary = np.asarray(unitary, dtype=complex)
    if rho.shape != unitary.shape:
        raise ValueError(f"shape mismatch: rho {rho.shape}, unitary {unitary.shape}")
    return unitary @ rho @ unitary.conj().T


def raising_operator(system):
    """Total raising operator sum_j (I_jx + i I_jy); the detection operator."""
    plus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    total = np.zeros((system.dim, system.dim), dtype=complex)
    for j in range(1, system.n + 1):
        op = np.array([[1.0 + 0.0j]])
        for k in range(1, system.n + 1):
            op = np.kron(op, plus if k == j else np.eye(2))
        total += op
    return total


def detect_signal(rho, system):
    """Quadrature observable Tr[(sum_j I_j+) rho]."""
    rho = np.asarray(rho, dtype=complex)
    return complex(np.einsum("rs,sr->", raising_operator(system), rho))


def fid_probes(system, t2_times):
    """Row k is evolve(I+^T, t2_k), flattened: the FID Tr[I+ evolve(rho, t2_k)]
    is the sum of the elements of rho times those of row k."""
    plus = raising_operator(system)
    return np.array([evolve(plus.T, system, float(t2)).ravel() for t2 in t2_times])


def ideal_gradient(rho):
    """The ideal gradient: only the diagonal of the state survives."""
    return np.diag(np.diag(np.asarray(rho, dtype=complex)))


def reference_sequence_a(system, rho0, params, delays_s=None):
    """Step-by-step sequence A, one density matrix per t1 increment.

    Independent of the production path: uses only the primitive
    single-state operations.  The gradient is ideal, or with ``delays_s``
    the randomized-delay average of :func:`loop_realistic_gradient`.  Row i
    is the FID Tr[I+ evolve(rho, t2)] at every t2, read through
    :func:`fid_probes`.  ``rho0`` may also be a stack of
    states, for a stack of grids: evolution is element-wise, so each t1
    factor evolve(1, t1) is computed once for all of them.
    """
    states = np.asarray(rho0, dtype=complex).reshape(-1, system.dim, system.dim)
    pulse_90 = rotation_pulse(system, np.pi / 2.0, 0.0)
    pulse_read = rotation_pulse(system, params.alpha_rad, np.pi)
    probes = fid_probes(system, params.t2_times)
    grids = np.zeros((len(states), params.n_t1, params.n_t2), dtype=complex)
    ones = np.ones((system.dim, system.dim))
    for i, t1 in enumerate(params.t1_times):
        factor = evolve(ones, system, float(t1), with_decay=True)
        for grid, state in zip(grids, states):
            rho = apply_unitary(state * factor, pulse_90)
            rho = (ideal_gradient(rho) if delays_s is None
                   else loop_realistic_gradient(rho, system, delays_s))
            rho = apply_unitary(rho, pulse_read)
            grid[i] = probes @ rho.ravel()
    return grids.reshape(np.shape(rho0)[:-2] + grids.shape[1:])


def reference_sequence_b(system, rho0, params, delays_s=None):
    """Step-by-step sequence B: the gradient (ideal, or with ``delays_s`` the
    randomized-delay average of :func:`loop_realistic_gradient`), the beta
    pulse, then the FID Tr[I+ evolve(rho, t2)] read through :func:`fid_probes`."""
    rho = (ideal_gradient(rho0) if delays_s is None
           else loop_realistic_gradient(rho0, system, delays_s))
    rho = apply_unitary(rho, rotation_pulse(system, params.beta_rad, 0.0))
    return fid_probes(system, params.t2_times) @ rho.ravel()


def local_maxima_above(values, threshold):
    """Indices of strict local maxima exceeding ``threshold``."""
    out = []
    for i in range(1, len(values) - 1):
        if values[i] > threshold and values[i] >= values[i - 1] and values[i] > values[i + 1]:
            out.append(i)
    return out


def line_traces(design, column_index):
    """Complex t1 traces (one row per transition, table order) of one design
    column's amplitude on each line: the column's coordinates fitted, per t1
    sample, by the unit FIDs of every line."""
    system, params = design.system, design.params
    rows = 2 * params.n_t1 * design.basis.shape[1]
    parts = design.apply(np.eye(len(design.labels))[column_index])[:rows].reshape(
        -1, 2, params.n_t1)
    coordinates = parts[:, 0] + 1j * parts[:, 1]
    rates = 2j * np.pi * np.array([t.frequency_hz for t in transition_table(system)]) \
        - 1.0 / system.t2_s
    lines = np.exp(np.outer(rates, params.t2_times)) @ design.basis.conj()
    amplitudes, _, _, _ = np.linalg.lstsq(lines.T, coordinates, rcond=None)
    return amplitudes


def peak_readout(spectrum, frequencies):
    """Complex amplitude of a 1D spectrum at each of ``frequencies``, none at
    an axis end: a quadratic through the three bins around the frequency,
    evaluated at its fractional offset from the nearest bin."""
    axis, values = spectrum.omega_hz, spectrum.values
    out = []
    for f in frequencies:
        b = int(np.argmin(np.abs(axis - f)))
        offset = (f - axis[b]) / (axis[1] - axis[0])
        left, mid, right = values[b - 1], values[b], values[b + 1]
        out.append(mid + 0.5 * (right - left) * offset
                   + 0.5 * (right - 2.0 * mid + left) * offset ** 2)
    return np.array(out)


def fit_t1_trace(trace, t1, frequencies, time_constant):
    """Least-squares expansion of a trace over decaying cosines and sines.

    Returns (amplitudes keyed by ('cos'|'sin', f) plus a constant term, and
    the relative residual).
    """
    decay = np.exp(-t1 / time_constant)
    columns = [np.ones_like(t1)]
    keys = [("const", 0.0)]
    for f in frequencies:
        columns.append(np.cos(2 * np.pi * f * t1) * decay)
        keys.append(("cos", f))
        columns.append(np.sin(2 * np.pi * f * t1) * decay)
        keys.append(("sin", f))
    basis = np.column_stack(columns).astype(complex)
    solution, _, _, _ = np.linalg.lstsq(basis, trace, rcond=None)
    residual = np.linalg.norm(basis @ solution - trace)
    scale = np.linalg.norm(trace)
    return dict(zip(keys, solution)), (residual / scale if scale > 0 else 0.0)


def loop_pairs(frequencies, close):
    """Every index pair (i, k), i < k, whose gap satisfies ``close``.

    The quadratic pair search that transition_table used before its
    sort-and-scan, kept as the reference.
    """
    return [(i, k) for i in range(len(frequencies))
            for k in range(i + 1, len(frequencies))
            if close(abs(frequencies[i] - frequencies[k]))]


def nonzero_detection_elements(system):
    """``(rows, cols, freqs)`` from the nonzeros of the total raising operator.

    The derivation detection_elements used before it read the transition
    list, kept as the reference.
    """
    r_idx, s_idx = np.nonzero(raising_operator(system))
    level = energies(system)
    return s_idx, r_idx, level[r_idx] - level[s_idx]


def loop_realistic_gradient(rho, system, delays_s):
    """The randomized-delay average as a sum of one :func:`evolve` per delay.

    The form the realistic gradient had before it averaged the delays'
    evolution factors, kept as the reference.
    """
    down = down_counts(system.n)
    kept = np.asarray(rho, dtype=complex) * (down[:, None] == down[None, :])
    acc = np.zeros_like(kept)
    for tau in delays_s:
        acc += evolve(kept, system, float(tau), with_decay=True)
    return acc / len(delays_s)


@st.composite
def clustered_systems(draw):
    """n <= 4 registers on a coarse frequency grid, so lines often coincide."""
    n = draw(st.integers(1, 4))
    larmor = draw(st.lists(st.integers(1, 8).map(lambda k: 100.0 * k),
                           min_size=n, max_size=n))
    couplings = {(j, k): 10.0 * draw(st.integers(-4, 4))
                 for j in range(1, n + 1) for k in range(j + 1, n + 1)}
    jitter = draw(st.sampled_from([0.0, 1e-7, 3e-6, 0.4]))
    larmor = [f + jitter * i for i, f in enumerate(larmor)]
    return build_spin_system(n, larmor, couplings, 0.01)
