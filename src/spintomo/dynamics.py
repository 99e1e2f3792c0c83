"""Density-matrix propagation: free evolution, pulses, gradients, detection.

All functions are pure; none mutates its input.  Time evolution works
element-wise on the density matrix because the weak-coupling Hamiltonian is
diagonal in the computational basis: element (r, s) acquires the phase
exp(-2i*pi*(E_r - E_s)*t) and, when transverse decay is enabled, the factor
exp(-t/T2) for r != s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SpinSystem, down_counts, energies, single_quantum_transitions


@dataclass(frozen=True, eq=False)
class EvolutionCache:
    """Per-element evolution data derived from the diagonal Hamiltonian.

    ``frequencies[r, s]`` is E_r - E_s in Hz and ``orders[r, s]`` is the
    difference in down-spin counts between states r and s (coherence order).
    Both tables are antisymmetric with zero diagonal.
    """

    frequencies: np.ndarray
    orders: np.ndarray
    down: np.ndarray


def evolution_cache(system: SpinSystem) -> EvolutionCache:
    level = energies(system)
    down = down_counts(system.n)
    return EvolutionCache(
        frequencies=level[:, None] - level[None, :],
        orders=down[:, None] - down[None, :],
        down=down,
    )


def _evolution_factor(system: SpinSystem, cache: EvolutionCache, t_s,
                      with_decay: bool) -> np.ndarray:
    """Element-wise factors of free evolution, shape ``shape(t_s) + (dim, dim)``.

    Element (r, s) rotates as exp(-2i*pi*(E_r - E_s)*t) and, with
    ``with_decay``, off-diagonal elements shrink by exp(-t/T2).
    """
    t_s = np.asarray(t_s, dtype=float)[..., None, None]
    if np.any(t_s < 0):
        raise ValueError(f"evolution time must be non-negative, got {t_s.min()}")
    factor = np.exp(-2.0j * np.pi * cache.frequencies * t_s)
    if with_decay:
        factor = factor * np.exp(-(1.0 - np.eye(system.dim)) * (t_s / system.t2_s))
    return factor


def evolve(rho: np.ndarray, system: SpinSystem, t_s: float,
           with_decay: bool = True) -> np.ndarray:
    """Free evolution for time ``t_s`` under the system Hamiltonian.

    Diagonal elements are invariant (no longitudinal relaxation is modeled);
    off-diagonal elements rotate at their eigenvalue-difference frequency and,
    with ``with_decay``, shrink by exp(-t/T2).
    """
    factor = _evolution_factor(system, evolution_cache(system), t_s, with_decay)
    return np.asarray(rho, dtype=complex) * factor


def apply_unitary(rho: np.ndarray, unitary: np.ndarray) -> np.ndarray:
    """Conjugation U rho U^dagger."""
    rho = np.asarray(rho, dtype=complex)
    unitary = np.asarray(unitary, dtype=complex)
    if rho.shape != unitary.shape:
        raise ValueError(f"shape mismatch: rho {rho.shape}, unitary {unitary.shape}")
    return unitary @ rho @ unitary.conj().T


def gradient_project(rho: np.ndarray) -> np.ndarray:
    """Idealized field-gradient pulse: zero every off-diagonal element.

    Real gradients spare homonuclear zero-quantum coherences; this models the
    end result of the randomized-delay averaging that suppresses them (see
    :func:`realistic_gradient_project` for the explicit mechanism).  Accepts
    a single matrix or a (..., dim, dim) batch.
    """
    rho = np.asarray(rho, dtype=complex)
    idx = np.arange(rho.shape[-1])
    out = np.zeros_like(rho)
    out[..., idx, idx] = rho[..., idx, idx]
    return out


# Delays whose evolution factors are built at once: the memory of the mean
# stays bounded however many delays are drawn.
GRADIENT_DELAY_BLOCK = 64


def realistic_gradient_project(rho: np.ndarray, system: SpinSystem,
                               delays_s) -> np.ndarray:
    """Gradient that spares zero-quantum coherences, followed by randomized delays.

    Keeps diagonal and zero-quantum elements, then ensemble-averages the state
    over free evolution for each of the drawn ``delays_s`` (in seconds).
    Zero-quantum phases average towards zero; the diagonal is untouched.
    Evolution is element-wise, so the mean of the delays' evolution factors
    is applied once.  The factors are summed :data:`GRADIENT_DELAY_BLOCK`
    delays at a time, in draw order, so the mean is bit for bit that of all
    factors at once.  Accepts a single matrix or a (..., dim, dim) batch;
    every matrix of a batch sees the same delays.
    """
    delays_s = np.ravel(delays_s)
    if not delays_s.size:
        raise ValueError("the realistic gradient needs at least one delay")
    cache = evolution_cache(system)
    total = None
    for start in range(0, delays_s.size, GRADIENT_DELAY_BLOCK):
        factors = _evolution_factor(system, cache,
                                    delays_s[start:start + GRADIENT_DELAY_BLOCK],
                                    with_decay=True)
        if total is not None:
            factors[0] += total  # the running sum continues row by row
        total = factors.sum(axis=0)
    kept = np.asarray(rho, dtype=complex) * (cache.orders == 0)
    return kept * (total / delays_s.size)


def coherence_order_decompose(rho: np.ndarray, system: SpinSystem) -> dict:
    """Split a matrix into components of fixed coherence order.

    Returns a map order -> matrix over every order with nonzero support; the
    components sum exactly to the input.
    """
    cache = evolution_cache(system)
    rho = np.asarray(rho, dtype=complex)
    out = {}
    for order in range(-system.n, system.n + 1):
        component = rho * (cache.orders == order)
        if np.any(component):
            out[order] = component
    return out


def raising_operator(system: SpinSystem) -> np.ndarray:
    """Total raising operator sum_j (I_jx + i I_jy); the detection operator."""
    plus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    total = np.zeros((system.dim, system.dim), dtype=complex)
    for j in range(1, system.n + 1):
        op = np.array([[1.0 + 0.0j]])
        for k in range(1, system.n + 1):
            op = np.kron(op, plus if k == j else eye)
        total += op
    return total


def detect_signal(rho: np.ndarray, system: SpinSystem) -> complex:
    """Quadrature observable Tr[(sum_j I_j+) rho]."""
    rho = np.asarray(rho, dtype=complex)
    return complex(np.einsum("rs,sr->", raising_operator(system), rho))


def detection_elements(system: SpinSystem):
    """Index arrays of the density-matrix elements picked up by detection.

    Returns ``(rows, cols, freqs)`` such that the detected signal is
    ``sum_p rho[rows[p], cols[p]]`` and, under free evolution, element p
    oscillates as exp(+2i*pi*freqs[p]*t).  Element p is the (lower, upper)
    entry of a single-quantum transition, where the raising operator has its
    (upper, lower) nonzero, and ``freqs`` are the transition frequencies;
    elements are sorted by (upper, lower), the raising operator's row-major
    order.
    """
    lines = sorted((upper, lower, f)
                   for _, upper, lower, f in single_quantum_transitions(system))
    upper, lower, freqs = (np.array(column) for column in zip(*lines))
    return lower, upper, freqs
