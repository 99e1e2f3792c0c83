"""Spin systems and product-operator algebra for weakly coupled spin-1/2 registers.

Conventions used throughout the package:

* Single-spin operators are Ix = sx/2, Iy = sy/2, Iz = sz/2 (s = Pauli matrices),
  and the identity is written ``o``.  A product operator is the plain Kronecker
  product of single-spin factors with no extra prefactors.
* Qubit 1 is the leftmost (most significant) tensor factor, so basis state
  index ``r`` encodes spin j as bit ``n - j`` (0 = up, 1 = down).
* All frequencies are stored in Hz.  The 2*pi factor is applied inside time
  evolution, so a state evolves as exp(-2i*pi*H*t) rho exp(+2i*pi*H*t).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

AXES = "oxyz"

IDENTITY_2 = np.eye(2, dtype=complex)
SPIN_X = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SPIN_Y = 0.5 * np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SPIN_Z = 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SINGLE_SPIN_OPS = {"o": IDENTITY_2, "x": SPIN_X, "y": SPIN_Y, "z": SPIN_Z}

# Single-quantum lines closer than this cannot be told apart: the transition
# table refuses such a system.
DEGENERACY_TOL_HZ = 1e-6


@dataclass(frozen=True)
class SpinSystem:
    """Weakly coupled register of n spin-1/2 nuclei.

    Attributes
    ----------
    n : int
        Number of spins (qubits).
    larmor_hz : tuple of float
        Rotating-frame precession frequency of each spin, in Hz.
    couplings_hz : tuple of (j, k, J)
        Scalar couplings J_jk in Hz for 1-based pairs j < k.
    t2_s : float
        Transverse relaxation time in seconds, uniform for all coherences.
    """

    n: int
    larmor_hz: tuple
    couplings_hz: tuple
    t2_s: float

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "larmor_hz": list(self.larmor_hz),
            "couplings_hz": [[j, k, value] for j, k, value in self.couplings_hz],
            "t2_s": self.t2_s,
        }


def build_spin_system(n, larmor_hz, couplings_hz=None, t2_s=0.01) -> SpinSystem:
    """Validate parameters and construct a :class:`SpinSystem`.

    Parameters
    ----------
    n : int
        Spin count, at least 1.
    larmor_hz : sequence of float
        One frequency per spin, Hz.
    couplings_hz : mapping (j, k) -> J, optional
        Couplings for 1-based pairs with j < k, Hz.
    t2_s : float
        Transverse relaxation time, strictly positive.

    Raises
    ------
    ValueError
        On length mismatch, non-positive t2, or malformed coupling keys.

    Notes
    -----
    Lines that coincide are not checked here: every command and pipeline
    stage refuses them through :func:`~spintomo.experiment.transition_table`.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need at least one spin, got n={n}")
    larmor = tuple(float(w) for w in larmor_hz)
    if len(larmor) != n:
        raise ValueError(
            f"larmor_hz has {len(larmor)} entries for n={n} spins"
        )
    if not all(np.isfinite(larmor)):
        raise ValueError("larmor_hz entries must be finite")
    t2_s = float(t2_s)
    if not (np.isfinite(t2_s) and t2_s > 0.0):
        raise ValueError(f"t2_s must be positive and finite, got {t2_s}")

    pairs = []
    for key, value in (couplings_hz or {}).items():
        j, k = (int(key[0]), int(key[1]))
        if not (1 <= j < k <= n):
            raise ValueError(
                f"coupling key ({j},{k}) invalid: need 1 <= j < k <= {n}"
            )
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"coupling ({j},{k}) must be finite")
        pairs.append((j, k, value))
    seen = {(j, k) for j, k, _ in pairs}
    if len(seen) != len(pairs):
        raise ValueError("duplicate coupling keys")

    return SpinSystem(n=n, larmor_hz=larmor, couplings_hz=tuple(sorted(pairs)), t2_s=t2_s)


# ---------------------------------------------------------------------------
# Product-operator labels


def parse_label(text: str, n: int | None = None) -> str:
    """Normalize a label like ``"x z"`` or ``"xz"`` to the compact form ``"xz"``."""
    label = "".join(str(text).lower().split())
    validate_label(label, n)
    return label


def format_label(label: str) -> str:
    """Spaced per-spin form used in config files and reports."""
    return " ".join(label)


def validate_label(label: str, n: int | None = None) -> None:
    if n is not None and len(label) != n:
        raise ValueError(f"label {label!r} has {len(label)} axes, expected {n}")
    bad = set(label) - set(AXES)
    if bad:
        raise ValueError(f"label {label!r} contains invalid axes {sorted(bad)}")
    if set(label) == {"o"}:
        raise ValueError("the all-identity label is excluded (traceless basis)")


def all_labels(n: int) -> tuple:
    """All 4^n - 1 product-operator labels, in lexicographic o<x<y<z order."""
    labels = ("".join(p) for p in itertools.product(AXES, repeat=n))
    return tuple(label for label in labels if set(label) != {"o"})


def diagonal_labels(n: int) -> tuple:
    """The 2^n - 1 labels built from o/z only; their operators are diagonal."""
    return tuple(label for label in all_labels(n) if set(label) <= {"o", "z"})


def offdiagonal_labels(n: int) -> tuple:
    """Labels with at least one transverse axis; their operators have zero diagonal."""
    return tuple(label for label in all_labels(n) if set(label) & {"x", "y"})


def operator_norm_squared(label: str) -> float:
    """Trace of the squared basis operator: 2^n / 4^m with m non-identity axes."""
    n = len(label)
    m = sum(1 for c in label if c != "o")
    return 2.0 ** n / 4.0 ** m


def product_operator(system: SpinSystem, label: str) -> np.ndarray:
    """Kronecker product of single-spin operators selected by ``label``.

    The dense reference form; the pipeline works from :func:`monomial_table`.
    """
    label = parse_label(label, system.n)
    out = np.array([[1.0 + 0.0j]])
    for axis in label:
        out = np.kron(out, SINGLE_SPIN_OPS[axis])
    return out


# Row b of each single-spin operator (axes in AXES order) has its one nonzero
# at column b ^ _FLIP[axis], with value _ENTRY[axis, b].
_FLIP = np.array([0, 1, 1, 0])
_ENTRY = np.array([[SINGLE_SPIN_OPS[axis][b, b ^ flip] for b in (0, 1)]
                   for axis, flip in zip(AXES, _FLIP)])


def monomial_table(n: int, labels) -> tuple:
    """Sparse form of the product operators of ``labels``: ``(columns, values)``.

    Every product operator is monomial, with exactly one nonzero per row:
    B_L[r, columns[i, r]] = values[i, r] for label i.  The column is
    r ^ flip(L), where the flip mask has the bit of every x/y spin set, and
    the value is the product of the per-spin entries (x: 1/2, y: -+i/2,
    z: +-1/2, o: 1), multiplied in the order :func:`product_operator` uses,
    so it equals the Kronecker product bit for bit.
    """
    labels = list(labels)
    axes = np.array([[AXES.index(c) for c in label] for label in labels],
                    dtype=int).reshape(len(labels), n)
    rows = np.arange(2 ** n)
    masks = np.zeros(len(labels), dtype=int)
    values = np.ones((len(labels), 2 ** n), dtype=complex)
    for j in range(n):
        shift = n - 1 - j
        masks |= _FLIP[axes[:, j]] << shift
        values = values * _ENTRY[axes[:, j]][:, (rows >> shift) & 1]
    return rows ^ masks[:, None], values


# ---------------------------------------------------------------------------
# Hamiltonian and eigenstructure


def spin_orientations(n: int) -> np.ndarray:
    """(2^n, n) array of magnetic quantum numbers, +1/2 (up) or -1/2 (down)."""
    dim = 2 ** n
    out = np.empty((dim, n))
    for j in range(n):
        bit = (np.arange(dim) >> (n - 1 - j)) & 1
        out[:, j] = 0.5 - bit
    return out


def energies(system: SpinSystem) -> np.ndarray:
    """Eigenvalues in Hz, one per basis state, of the weak-coupling Hamiltonian
    H = sum_j w_j I_jz + sum_{j<k} J_jk I_jz I_kz, which is diagonal in the
    computational basis."""
    m = spin_orientations(system.n)
    values = m @ np.asarray(system.larmor_hz)
    for j, k, coupling in system.couplings_hz:
        values = values + coupling * m[:, j - 1] * m[:, k - 1]
    return values


def down_counts(n: int) -> np.ndarray:
    """Number of down spins per basis state; differences give coherence order."""
    dim = 2 ** n
    return np.array([bin(r).count("1") for r in range(dim)])


def _close_pairs(frequencies, limit_hz: float) -> list:
    """Sorted index pairs (i, k), i < k, with |f_i - f_k| <= ``limit_hz``.

    Sorts once and scans each frequency's upper neighbours only while they
    stay within the limit, so well-separated lines cost O(N log N).
    """
    order = np.argsort(frequencies, kind="stable")
    ranked = np.asarray(frequencies, dtype=float)[order]
    pairs = []
    for a in range(len(ranked)):
        b = a + 1
        while b < len(ranked) and ranked[b] - ranked[a] <= limit_hz:
            pairs.append(tuple(sorted((int(order[a]), int(order[b])))))
            b += 1
    return sorted(pairs)


class Transition(NamedTuple):
    """Single-quantum transition: spin ``qubit`` flips between two eigenstates.

    ``upper`` has the spin up, ``lower`` has it down and is identical
    otherwise; ``frequency_hz`` is the eigenvalue difference E(upper) -
    E(lower), the sign convention under which detected coherences appear at
    positive Larmor-like frequencies.
    """

    qubit: int
    upper: int
    lower: int
    frequency_hz: float


def single_quantum_transitions(system: SpinSystem) -> tuple:
    """All n * 2^(n-1) single-spin-flip :class:`Transition` records, by qubit
    and then by upper state.

    Lines may coincide here; :func:`~spintomo.experiment.transition_table`
    is the same tuple once none do.
    """
    level = energies(system)
    n = system.n
    out = []
    for j in range(1, n + 1):
        bit = 1 << (n - j)
        for r in range(system.dim):
            if r & bit:
                continue
            s = r | bit
            out.append(Transition(j, r, s, float(level[r] - level[s])))
    return tuple(out)


# ---------------------------------------------------------------------------
# Coefficient vector <-> density matrix


def validate_coefficients(system: SpinSystem, coefficients: Mapping[str, float]) -> dict:
    """Normalize labels and check the coefficients are finite reals."""
    out = {}
    for raw_label, value in coefficients.items():
        label = parse_label(raw_label, system.n)
        if label in out:
            raise ValueError(f"duplicate coefficient for label {format_label(label)!r}")
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"coefficient for {format_label(label)!r} must be finite")
        out[label] = value
    return out


def coefficients_to_density(system: SpinSystem, coefficients: Mapping[str, float]) -> np.ndarray:
    """Assemble sum_L q_L B_L.  Hermitian and traceless by construction."""
    coefficients = validate_coefficients(system, coefficients)
    rho = np.zeros((system.dim, system.dim), dtype=complex)
    if coefficients:
        columns, values = monomial_table(system.n, coefficients)
        weights = np.array(list(coefficients.values()))
        rows = np.broadcast_to(np.arange(system.dim), columns.shape)
        # add.at sums repeated positions in label order, as a running sum would.
        np.add.at(rho, (rows, columns), weights[:, None] * values)
    return rho


def is_hermitian(rho: np.ndarray, tol: float = 1e-10) -> bool:
    scale = max(1.0, float(np.max(np.abs(rho))) if rho.size else 1.0)
    return bool(np.max(np.abs(rho - rho.conj().T)) <= tol * scale)


def density_to_coefficients(system: SpinSystem, rho: np.ndarray) -> dict:
    """Expand a Hermitian traceless matrix over the product-operator basis.

    Uses trace orthogonality: q_L = Tr(rho B_L) / Tr(B_L^2).  Inverse of
    :func:`coefficients_to_density` to better than 1e-10.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (system.dim, system.dim):
        raise ValueError(f"matrix shape {rho.shape} does not match dim {system.dim}")
    if not is_hermitian(rho):
        raise ValueError("matrix is not Hermitian")
    labels = all_labels(system.n)
    columns, values = monomial_table(system.n, labels)
    # Tr(rho B_L) = sum_r rho[c_L(r), r] B_L[r, c_L(r)]
    overlaps = np.sum(rho[columns, np.arange(system.dim)] * values, axis=1)
    return {label: float(overlap.real) / operator_norm_squared(label)
            for label, overlap in zip(labels, overlaps)}


# ---------------------------------------------------------------------------
# RF rotations


def rotation_pulse(system: SpinSystem, theta_rad: float, phase_rad: float) -> np.ndarray:
    """Unitary of an ideal non-selective RF pulse of flip angle theta and phase phi.

    The rotation generator per spin is Ix*sin(phi) + Iy*cos(phi), so phase 0
    rotates about +y and phase pi about -y.

    Built from the closed form u = cos(theta/2) - 2i sin(theta/2) (Ix sin(phi)
    + Iy cos(phi)), which is exactly unitary.
    """
    axis = SPIN_X * np.sin(phase_rad) + SPIN_Y * np.cos(phase_rad)
    single = (np.cos(theta_rad / 2.0) * IDENTITY_2
              - 2.0j * np.sin(theta_rad / 2.0) * axis)
    out = np.array([[1.0 + 0.0j]])
    for _ in range(system.n):
        out = np.kron(out, single)
    return out
