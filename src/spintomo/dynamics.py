"""Free-evolution rates, the delay average of a realistic gradient and the
detected elements.

All functions are pure; none mutates its input.  The weak-coupling
Hamiltonian is diagonal in the computational basis, so free evolution works
element-wise on the density matrix: element (r, s) evolves as
exp(rates[r, s] * t) with the rates of :func:`evolution_rates`.
"""

from __future__ import annotations

import numpy as np

from .core import SpinSystem, energies, single_quantum_transitions


def evolution_rates(system: SpinSystem) -> np.ndarray:
    """Complex (dim, dim) rates of free evolution with decay, in 1/s.

    Element (r, s) is -2i*pi*(E_r - E_s) - (1 - delta_rs)/T2: it rotates at
    its eigenvalue difference and, off the diagonal, shrinks by exp(-t/T2).
    Diagonal elements are invariant (no longitudinal relaxation is modeled).
    """
    level = energies(system)
    return (-2.0j * np.pi * (level[:, None] - level[None, :])
            - (1.0 - np.eye(system.dim)) / system.t2_s)


# Delays whose evolution factors are built at once: the memory of the mean
# stays bounded however many delays are drawn.
GRADIENT_DELAY_BLOCK = 64


def delay_average(system: SpinSystem, delays_s) -> np.ndarray:
    """The (dim, dim) mean of the free-evolution factors exp(delay * rates)
    over the drawn ``delays_s`` (in seconds, none negative).

    A realistic gradient keeps the zero-quantum elements, each times its
    mean factor: delays randomized between the scans average their phases
    towards zero (:func:`~spintomo.experiment.gradient_support`).  The
    factors are summed :data:`GRADIENT_DELAY_BLOCK` delays at a time, in draw
    order, so the mean is bit for bit that of all factors at once.
    """
    delays_s = np.ravel(delays_s)
    if not delays_s.size:
        raise ValueError("the realistic gradient needs at least one delay")
    if not np.all(delays_s >= 0):
        raise ValueError(f"gradient delays must be non-negative, got {delays_s.min()}")
    rates = evolution_rates(system)
    total = None
    for start in range(0, delays_s.size, GRADIENT_DELAY_BLOCK):
        block = delays_s[start:start + GRADIENT_DELAY_BLOCK]
        factors = np.exp(block[:, None, None] * rates)
        if total is not None:
            factors[0] += total  # the running sum continues row by row
        total = factors.sum(axis=0)
    return total / delays_s.size


def detection_elements(system: SpinSystem):
    """Index arrays of the density-matrix elements picked up by detection.

    Returns ``(rows, cols, freqs)`` such that the detected signal is
    ``sum_p rho[rows[p], cols[p]]`` and, under free evolution, element p
    oscillates as exp(+2i*pi*freqs[p]*t).  Element p is the (lower, upper)
    entry of a single-quantum transition, where the total raising operator
    sum_j I_j+ has its (upper, lower) nonzero, and ``freqs`` are the
    transition frequencies; elements are sorted by (upper, lower), the
    raising operator's row-major order.
    """
    lines = sorted((upper, lower, f)
                   for _, upper, lower, f in single_quantum_transitions(system))
    upper, lower, freqs = (np.array(column) for column in zip(*lines))
    return lower, upper, freqs
