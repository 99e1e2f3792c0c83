"""Forward-model inversion of the two measurements.

Every signal the pipeline fits, each t1 row of sequence A and sequence B,
is a sum of the detected elements' unit FIDs
(:func:`~spintomo.experiment.detection_fids`).  The fit reads each signal
by its coordinates ``samples @ conj(Q)`` in one orthonormal basis Q of the
span of those FIDs (:func:`detection_basis`) and solves them in least
squares against the forward model's coordinates in the same basis:
time-domain least squares, as in AMARES (Vanhamme, van den Boogaart & Van
Huffel, J. Magn. Reson. 129, 35, 1997).  The fit depends on the span only,
not on which orthonormal basis of it Q is.

Off-diagonal coefficients come from the two-dimensional data: every
off-diagonal basis operator is pushed through sequence A, and its
t1-mean-free coordinates form one column of a design matrix.  Every step of
that chain is linear, so the design is one closed-form linear operator built
from the same pulses, evolution factors and unit FIDs the simulator uses; it
is applied and solved in factored form, never stored as a dense matrix.  The
product operators enter only as the flip-group table of
:func:`~spintomo.core.monomial_table` (labels that share a flip mask share
their nonzero positions), and the Gram A^T A is built one block row of flip
groups at a time.  Model and measurement share every detected FID, so the
noiseless reconstruction is exact for arbitrary register sizes, including
overlapping lines, without any lineshape algebra.

Diagonal coefficients come from the one-dimensional data the same way, at
the same pulse angle.  The two experiments form one design over every label:
signal A sees only the off-diagonal labels and signal B only the diagonal
ones, so one ``eigh`` of the block-diagonal A^T A gives the rank and the one
refusal, and one refined solve fits both signals.  Each experiment keeps its
own condition number and rank cut; joint ones would mix their scales.  The inversion
reads the two measurements and the design only, never the input state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (SpinSystem, coefficients_to_density, density_to_coefficients,
                   diagonal_labels, monomial_table, offdiagonal_labels)
from .dynamics import evolution_rates
from .errors import RankDeficiencyError
from .experiment import (T2_BLOCK_ROWS, AcquisitionParams, Signal1D, Signal2D,
                         check_nyquist, detection_fids, sequence_A_map, sequence_B_map,
                         t1_blocks, t1_factors, transition_table)

RESIDUAL_WARN_THRESHOLD = 1e-6

# Corrected semi-normal equations stop refining after this many steps, or
# earlier once a step is no smaller than the one before.
MAX_REFINEMENT_STEPS = 3

# Gram eigenvalues at or below RANK_TOL times the largest of their
# experiment's block count as zero.  The refinement converges on every Gram
# measured above this cut, and first failed at about 20 eps, so a design the
# rank check passes is one it solves.
RANK_TOL = 100 * np.finfo(float).eps

# Singular values of the unit FIDs at or below this fraction of the largest
# add no direction to the detection basis.
BASIS_TOL = 1e-12


@dataclass(eq=False)
class DesignMatrix:
    """Linear map A from every coefficient to the stacked coordinates of both
    signals.

    Columns are the off-diagonal ``labels``, then the diagonal ones.  Rows
    are the real and imaginary parts of the t1-mean-subtracted coordinates
    of signal A in ``basis`` (n_t2 x r), the :func:`detection_basis` of every
    line, then those of signal B, so A is block diagonal.

    Signal A's block is never stored, only its factors.  A product
    operator has one nonzero per row r, at column r ^ f for its flip mask f
    (:func:`~spintomo.core.monomial_table`), so the dim labels of one mask
    share the positions S_f = {(r, r ^ f)}.  ``order`` sorts the off-diagonal
    labels by mask and ``values`` [f, l, r] is the flip-group table in that
    order.  The rest is kept on the off-diagonal positions only, S_f after S_f:
    their evolution ``rates``, ``response``, the rest of the chain per
    coordinate (positions x r), the first t1 block's evolution factors
    ``head`` and the t1 ``mean`` of all of them.  The t1 factors are the
    simulator's :func:`~spintomo.experiment.t1_blocks`, remade from ``head``
    a few blocks at a time on every product, so no field grows with n_t1:
    A x = Ec (u[:, None] * response) with Ec the factors less ``mean`` and
    u = values[f]^T x_f on S_f.  Signal B's block, 2r x (2^n - 1), is held
    dense as ``diagonal_response`` (:func:`_diagonal_response_matrix`).

    ``eigenvalues`` (ascending) and ``eigenvectors`` (a row per label) are
    A^T A's; ``rank`` counts eigenvalues above :data:`RANK_TOL` of the
    largest of their experiment's block.  ``condition_number`` is signal A's
    block's and ``condition_number_diagonal`` signal B's.
    """

    system: SpinSystem
    params: AcquisitionParams
    basis: np.ndarray
    labels: tuple
    order: np.ndarray
    rates: np.ndarray
    mean: np.ndarray
    head: np.ndarray
    response: np.ndarray
    values: np.ndarray
    diagonal_response: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int
    condition_number: float
    condition_number_diagonal: float
    nullspace_labels: tuple
    zero_labels: tuple

    @property
    def is_full_rank(self) -> bool:
        return self.rank == len(self.labels)

    @property
    def shape(self) -> tuple:
        return (2 * self.params.n_t1 * self.basis.shape[1] + len(self.diagonal_response),
                len(self.labels))

    def _t1_blocks(self):
        """Yield ``(rows, Ec[rows])``, the t1-mean-free factors bit for bit as
        :func:`_design_parts` makes them for the Gram, as many t1 blocks at a
        time as keep them within the size of the t1 traces: larger products
        run faster, and a product's factors take no more memory than its
        result or operand."""
        blocks = max(1, self.params.n_t1 * self.basis.shape[1] // self.head.size)
        for rows, factors in t1_blocks(self.rates, self.params.t1_times, self.head, blocks):
            factors -= self.mean
            yield rows, factors

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x, stacked like the measurements: signal A's rows, per coordinate
        re then im, then signal B's."""
        grouped = x[self.order].reshape(len(self.values), 1, -1) @ self.values
        chain = grouped.reshape(-1, 1) * self.response
        traces = np.empty((self.params.n_t1, self.basis.shape[1]), dtype=complex)
        for rows, factors in self._t1_blocks():
            np.matmul(factors, chain, out=traces[rows])
        return np.concatenate([_split(traces.T).ravel(),
                               self.diagonal_response @ x[len(self.order):]])

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A^T y for a real vector y stacked like the measurements."""
        split = len(y) - len(self.diagonal_response)
        parts = y[:split].reshape(self.basis.shape[1], 2, self.params.n_t1)
        conjugates = (parts[:, 0] - 1j * parts[:, 1]).T
        # conj(Ec^H traces), one run of t1 blocks at a time
        total = np.zeros(self.response.shape, dtype=complex)
        for rows, factors in self._t1_blocks():
            total += factors.T @ conjugates[rows]
        weights = np.sum(self.response * total, axis=1)
        # Re(conj(V) conj(w)) = Re(V w)
        grouped = self.values @ weights.reshape(len(self.values), -1, 1)
        return np.concatenate([grouped.real.reshape(-1)[np.argsort(self.order)],
                               self.diagonal_response.T @ y[split:]])


@dataclass(eq=False)
class TomographyResult:
    """Recovered coefficients and reconstruction, with quality metrics."""

    coefficients: dict
    matrix: np.ndarray
    fidelity: float | None
    residual_offdiagonal: float
    residual_diagonal: float
    condition_number: float
    condition_number_diagonal: float
    reference: np.ndarray | None = None
    element_errors: np.ndarray | None = None
    max_relative_element_error: float | None = None
    max_coefficient_error: float | None = None
    notes: tuple = ()

    def to_json_dict(self) -> dict:
        out = {
            "coefficients": [
                [" ".join(label), value]
                for label, value in sorted(self.coefficients.items())
            ],
            "matrix_re": np.real(self.matrix).tolist(),
            "matrix_im": np.imag(self.matrix).tolist(),
            "fidelity": self.fidelity,
            "residual_offdiagonal": self.residual_offdiagonal,
            "residual_diagonal": self.residual_diagonal,
            "condition_number": self.condition_number,
            "condition_number_diagonal": self.condition_number_diagonal,
            "max_relative_element_error": self.max_relative_element_error,
            "max_coefficient_error": self.max_coefficient_error,
            "notes": list(self.notes),
        }
        if self.reference is not None:
            out["reference_re"] = np.real(self.reference).tolist()
            out["reference_im"] = np.imag(self.reference).tolist()
        return out


def detection_basis(system: SpinSystem, params: AcquisitionParams) -> np.ndarray:
    """Q, an orthonormal basis (n_t2 x r) of the span of every line's unit
    FID, from one SVD.

    Directions whose singular value is at or below :data:`BASIS_TOL` of the
    largest are dropped, so r can fall short of the number of lines when
    short or overlapping FIDs are nearly dependent.
    """
    vectors, singular, _ = np.linalg.svd(detection_fids(system, params.t2_times).T,
                                         full_matrices=False)
    return vectors[:, singular > BASIS_TOL * singular[0]]


@dataclass(eq=False)
class FidCoordinates:
    """Signal A's coordinates ``grid @ conj(basis)`` in a :func:`detection_basis`:
    ``values`` has one row per t1 sample and one column per basis vector.
    ``meta`` is the signal's."""

    values: np.ndarray
    basis: np.ndarray
    meta: dict


def fid_coordinates(signal: Signal2D, basis: np.ndarray) -> FidCoordinates:
    """The coordinates of every t1 row of ``signal`` in ``basis``, taken
    :data:`~spintomo.experiment.T2_BLOCK_ROWS` rows at a time.

    A fit needs its design's ``basis`` itself, which a second SVD need not
    match bit for bit: pass the design's, or pass this one to the design.
    """
    projection = basis.conj()
    values = np.empty((signal.grid.shape[0], basis.shape[1]), dtype=complex)
    # One whole-grid product gives the same bits, but it wakes OpenBLAS's
    # second thread, which raised a 3-qubit run's peak RSS by about 1.6 MB.
    for start in range(0, len(values), T2_BLOCK_ROWS):
        rows = slice(start, start + T2_BLOCK_ROWS)
        values[rows] = signal.grid[rows] @ projection
    return FidCoordinates(values=values, basis=basis, meta=signal.meta)


def _design_parts(system: SpinSystem, params: AcquisitionParams, basis, labels):
    """``(order, rates, mean, evolution, response, values)``, the flip-grouped
    design factors.

    The sequence maps an input state rho to the coordinates of signal A

        coordinates[t1, c] = sum_rs E[t1, rs] * G[rs, c] * rho[r, s]

    with E the t1 evolution factors and G = V^T W^T K the rest of the chain:
    V and W are the ``to_support`` and ``to_detected`` factors of
    :func:`~spintomo.experiment.sequence_A_map` for the ideal gradient, which
    keeps what the (pi/2) pulse puts on the diagonal and carries it through
    the read pulse onto the detected elements, and K = F conj(Q) holds the
    coordinates of each detected element's unit FID (row of F) in ``basis``
    Q.  Removing the t1 mean of E removes it from every trace.  E and G are
    computed only at the positions the off-diagonal ``labels`` touch,
    grouped by flip mask as :class:`DesignMatrix` describes: ``rates`` are
    those positions' evolution rates and E is the simulator's
    :func:`~spintomo.experiment.t1_blocks` of them.  ``evolution`` is E less
    its t1 ``mean``, the whole n_t1 x positions table, for :func:`_gram`.
    """
    kernel = detection_fids(system, params.t2_times) @ basis.conj()
    dim = system.dim
    columns, values = monomial_table(system.n, labels)
    order = np.argsort(columns[:, 0], kind="stable")
    left = np.tile(np.arange(dim), len(labels) // dim)
    right = columns[order[::dim]].reshape(-1)
    to_diagonal, to_detected = sequence_A_map(system, params, left, right)
    response = to_diagonal.T @ (to_detected.T @ kernel)

    rates = evolution_rates(system)[left, right]
    # column-major, so each position's t1 trace is contiguous and its mean
    # is summed pairwise
    evolution = np.empty((params.n_t1, len(rates)), dtype=complex, order="F")
    for rows, factors in t1_blocks(rates, params.t1_times):
        evolution[rows] = factors
    mean = evolution.mean(axis=0)
    evolution -= mean
    return order, rates, mean, evolution, response, values[order].reshape(-1, dim, dim)


def _gram(evolution: np.ndarray, response: np.ndarray, values: np.ndarray,
          gram: np.ndarray) -> None:
    """Write the lower block triangle of signal A's A^T A, labels in group
    order, into the leading rows and columns of ``gram``.

    A^T A = Re(conj(B) H B^T) with B the product operators and H =
    (Ec^H Ec) * (conj(response) response^T).  B is block diagonal over the
    flip groups, so block row f is Re(conj(V_f) H[S_f, :] B^T), built from
    the dim rows H[S_f, :] alone: neither H nor a dense B is ever held.
    Blocks above the diagonal are left as they are; ``eigh`` reads only the
    lower triangle.
    """
    groups, dim, _ = values.shape
    for f in range(groups):
        block, stop = slice(f * dim, (f + 1) * dim), (f + 1) * dim
        rows = ((evolution[:, block].conj().T @ evolution[:, :stop])
                * (response[block].conj() @ response[:stop].T))
        rows = (values[f].conj() @ rows).reshape(dim, f + 1, dim).transpose(1, 0, 2)
        rows = (rows @ values[:f + 1].transpose(0, 2, 1)).real
        gram[block, :stop] = rows.transpose(1, 0, 2).reshape(dim, stop)


def _solve_seminormal(apply, adjoint, eigenvalues: np.ndarray,
                      eigenvectors: np.ndarray, target: np.ndarray):
    """Least-squares ``(solution, residual)`` by corrected semi-normal equations.

    Solves A^T A x = A^T b through the eigenpairs of A^T A, then refines with
    the residual b - A x (Bjorck 1987) until a step is no smaller than the
    one before, for at most :data:`MAX_REFINEMENT_STEPS` steps.  A is read
    only through ``apply`` and ``adjoint``.  Each step shrinks the error by
    about kappa^2 eps, so the refinement converges when the smallest
    eigenvalue is well above rounding: :func:`tomograph_state` refuses, by
    :data:`RANK_TOL`, every A where it is not.
    """
    def seminormal(rhs):
        return eigenvectors @ ((eigenvectors.T @ rhs) / eigenvalues)

    solution = seminormal(adjoint(target))
    residual = target - apply(solution)
    previous = np.inf
    for _ in range(MAX_REFINEMENT_STEPS):
        step = seminormal(adjoint(residual))
        size = float(np.linalg.norm(step))
        if not size < previous:
            break
        solution = solution + step
        residual = target - apply(solution)
        previous = size
    return solution, residual


def build_design_matrix(system: SpinSystem, params: AcquisitionParams,
                        basis=None) -> DesignMatrix:
    """The design operator of every basis operator's coordinates in both
    signals, over the unit FIDs of every line.

    ``basis`` is the basis the fitted coordinates are taken in, their
    :func:`detection_basis` when not given; any orthonormal basis of that
    span gives the same fit.  Signal A's block of A^T A is built in place in
    flip-group order, and signal B's after it.  Each block's condition
    number and largest eigenvalue come from its own eigenvalues; the
    eigenpairs, rank, zero labels (``diag(A^T A)``) and null-space labels
    from one ``eigh`` of the whole labels x labels A^T A.
    """
    check_nyquist(transition_table(system), params)
    if basis is None:
        basis = detection_basis(system, params)
    offdiagonal = offdiagonal_labels(system.n)
    order, rates, mean, evolution, response, values = _design_parts(
        system, params, basis, offdiagonal)
    diagonal, diagonal_response = _diagonal_response_matrix(system, params, basis)
    labels, split = offdiagonal + diagonal, len(offdiagonal)
    gram = np.zeros((len(labels), len(labels)))
    _gram(evolution, response, values, gram)
    del evolution  # freed before eigh, where the build peaks
    gram[split:, split:] = diagonal_response.T @ diagonal_response
    # each block's own, before eigh: a joint one would mix the two scales
    blocks = [np.linalg.eigvalsh(gram[:split, :split]), np.linalg.eigvalsh(gram[split:, split:])]
    kappas = [float(np.sqrt(v[-1] / v[0])) if v[0] > 0 else float("inf") for v in blocks]

    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    # Each eigenvector lies in one block, and its eigenvalue counts as zero
    # at or below RANK_TOL of that block's largest, not of the whole Gram's.
    tops = np.repeat([blocks[0][-1], blocks[1][-1]], [split, len(diagonal)])
    null = eigenvalues <= RANK_TOL * (tops @ eigenvectors ** 2)
    inverse = np.argsort(np.concatenate([order, np.arange(split, len(labels))]))
    eigenvectors = eigenvectors[inverse]
    squared_norms = np.diag(gram)[inverse]
    zero_labels = tuple(label for label, norm in zip(labels, squared_norms)
                        if norm <= 1e-24 * squared_norms.max())

    return DesignMatrix(
        system=system, params=params, basis=basis, labels=labels, order=order,
        rates=rates, mean=mean, head=t1_factors(rates, params.t1_times[:T2_BLOCK_ROWS]),
        response=response, values=values, diagonal_response=diagonal_response,
        eigenvalues=eigenvalues, eigenvectors=eigenvectors, rank=len(labels) - int(null.sum()),
        condition_number=kappas[0], condition_number_diagonal=kappas[1],
        nullspace_labels=_nullspace_labels(labels, eigenvectors[:, null]),
        zero_labels=zero_labels)


def _nullspace_labels(labels, null_vectors: np.ndarray) -> tuple:
    """Labels whose row of the null-space eigenvectors has norm above 0.1.

    The row norm sqrt(sum w^2) is the length of the label's unit vector
    projected onto the null space, so it does not depend on which
    orthonormal basis of a degenerate null space ``eigh`` returns.
    """
    weights = np.linalg.norm(null_vectors, axis=1)
    return tuple(label for label, w in zip(labels, weights) if w > 0.1)


def _check_meta(meta: dict, design: DesignMatrix, sequence: str) -> None:
    """Refuse a measurement whose metadata does not record ``sequence`` and
    the design's register and grid, whether it records others or none."""
    if meta.get("sequence") != sequence:
        raise ValueError(f"signal of sequence {meta.get('sequence')!r} given where "
                         f"sequence {sequence!r} is fitted")
    if meta.get("system") != design.system.to_dict():
        raise ValueError("signal was recorded on a different spin system than the design matrix")
    if meta.get("params") != design.params.to_dict():
        raise ValueError("signal acquisition parameters differ from the design matrix")


def _split(values: np.ndarray) -> np.ndarray:
    """Real array of complex ``values``: re, then im, along the last axis."""
    return np.concatenate([values.real, values.imag], axis=-1)


def _diagonal_response_matrix(system: SpinSystem, params: AcquisitionParams,
                              basis: np.ndarray):
    """``(labels, response)``: the sequence-B coordinates of every diagonal
    basis operator at once, one column per label.

    The ideal gradient keeps a diagonal operator d as it is, and the
    ``to_detected`` weights W of :func:`~spintomo.experiment.sequence_B_map`
    carry it onto the detected elements, whose unit FIDs are the rows of F.
    The signal is ``d^T W^T F``; its coordinates in ``basis``, re then im,
    are the columns.  They are modelled at the acquisition's beta, so the
    finite-pulse-angle terms are exact.
    """
    labels = diagonal_labels(system.n)
    _, diagonals = monomial_table(system.n, labels)
    _, _, to_detected = sequence_B_map(system, params)
    signals = diagonals @ (to_detected.T @ detection_fids(system, params.t2_times))
    return labels, _split(signals @ basis.conj()).T


def _relative_residual(residual: np.ndarray, target: np.ndarray, floor: float = 0.0) -> float:
    """|residual| / |target|, read as 0.0 when |target| is at or below ``floor``."""
    scale = float(np.linalg.norm(target))
    return float(np.linalg.norm(residual)) / scale if scale > floor else 0.0


def fidelity(reference: np.ndarray, reconstructed: np.ndarray) -> float:
    """Normalized Hilbert-Schmidt overlap, in [-1, 1].

    Deviation matrices are traceless and generally not positive, so the
    state-fidelity formulas for density operators do not apply; the
    normalized overlap treats them as vectors in operator space.
    """
    a = np.asarray(reference, dtype=complex)
    b = np.asarray(reconstructed, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    norm_a = float(np.real(np.trace(a @ a.conj().T)))
    norm_b = float(np.real(np.trace(b @ b.conj().T)))
    if norm_a <= 0 or norm_b <= 0:
        raise ValueError("fidelity undefined for zero-norm input")
    overlap = float(np.real(np.trace(a.conj().T @ b)))
    return overlap / np.sqrt(norm_a * norm_b)


def max_relative_element_error(reference: np.ndarray, reconstructed: np.ndarray,
                               floor_fraction: float = 1e-6) -> float:
    """Largest per-element relative deviation |rec - ref| / |ref|.

    Elements smaller than ``floor_fraction`` of the largest reference element
    are compared against that floor instead, so structural zeros do not
    dominate the metric.
    """
    ref = np.asarray(reference, dtype=complex)
    rec = np.asarray(reconstructed, dtype=complex)
    scale = float(np.max(np.abs(ref)))
    if scale == 0.0:
        raise ValueError("reference matrix is zero")
    denom = np.maximum(np.abs(ref), floor_fraction * scale)
    return float(np.max(np.abs(rec - ref) / denom))


def _score(system: SpinSystem, reference, coefficients: dict, matrix) -> tuple:
    """(scores, notes): the result's error fields against a reference state.

    ``max_coefficient_error`` is the largest |fitted - input| over all labels.
    """
    scores = dict(fidelity=None, element_errors=None,
                  max_relative_element_error=None, max_coefficient_error=None)
    if reference is None:
        return scores, ()
    scores["max_coefficient_error"] = max(
        abs(coefficients.get(label, 0.0) - q)
        for label, q in density_to_coefficients(system, reference).items())
    try:
        scores["fidelity"] = fidelity(reference, matrix)
    except ValueError:
        return scores, ("fidelity skipped: zero-norm matrix",)
    scores.update(element_errors=matrix - reference,
                  max_relative_element_error=max_relative_element_error(reference, matrix))
    return scores, ()


def tomograph_state(design: DesignMatrix, signal_a: FidCoordinates, signal_b: Signal1D,
                    truth=None) -> TomographyResult:
    """Invert the two measurements: one fit of both, assemble, score.

    ``signal_a`` is the :func:`fid_coordinates` of the sequence-A signal in
    the design's ``basis``, less each coordinate's t1 mean, which carries no
    off-diagonal information; ``signal_b``, the sequence-B FID, is read in
    the same basis.  A signal of another sequence, register or grid, or
    coordinates in another basis, is refused.  So is a design short of full
    rank, with a :class:`RankDeficiencyError` naming its
    ``nullspace_labels``; every other design is one :func:`_solve_seminormal`
    converges on.  It solves both targets at once, and the residual is split
    back by signal.  Nothing is simulated.  ``truth``, the input state when
    it is known, is read only to score the result and is kept as its
    ``reference``; without it every score is None.
    """
    _check_meta(signal_a.meta, design, "A")
    _check_meta(signal_b.meta, design, "B")
    if not np.array_equal(signal_a.basis, design.basis):
        raise ValueError("signal coordinates were taken in another basis than the design's")
    if not design.is_full_rank:
        bad = design.nullspace_labels
        raise RankDeficiencyError(
            f"design does not determine all {len(design.labels)} coefficients "
            f"(rank {design.rank}); undetermined labels: {[' '.join(l) for l in bad]}",
            labels=bad,
        )
    target_a = _split((signal_a.values - signal_a.values.mean(axis=0)).T).ravel()
    target_b = _split(signal_b.samples @ design.basis.conj())
    solution, residual = _solve_seminormal(
        design.apply, design.adjoint, design.eigenvalues, design.eigenvectors,
        np.concatenate([target_a, target_b]))
    split = len(target_a)
    # Without off-diagonal content signal A's target is the rounding of the t1
    # mean's removal, below 1e2 eps of the coordinates, and its residual reads
    # 0; one off-diagonal coefficient of 1e-16 lifts it past 1e13 eps.
    residual_offdiagonal = _relative_residual(
        residual[:split], target_a,
        floor=1e4 * np.finfo(float).eps * np.linalg.norm(signal_a.values))
    if residual_offdiagonal > RESIDUAL_WARN_THRESHOLD:
        warnings.warn(f"off-diagonal fit residual {residual_offdiagonal:.3g} exceeds "
                      f"{RESIDUAL_WARN_THRESHOLD}; model mismatch or noisy data",
                      stacklevel=2)

    coefficients = {label: float(q) for label, q in zip(design.labels, solution)}
    matrix = coefficients_to_density(design.system, coefficients)
    scores, notes = _score(design.system, truth, coefficients, matrix)
    return TomographyResult(
        coefficients=coefficients,
        matrix=matrix,
        residual_offdiagonal=residual_offdiagonal,
        residual_diagonal=_relative_residual(residual[split:], target_b),
        condition_number=design.condition_number,
        condition_number_diagonal=design.condition_number_diagonal,
        reference=truth,
        notes=notes,
        **scores,
    )
