import json
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spintomo import (DegenerateTransitionError, RankDeficiencyError, Signal1D,
                      Signal2D, all_labels, build_design_matrix, build_spin_system,
                      coefficients_to_density, default_acquisition,
                      detection_basis, diagonal_labels,
                      fid_coordinates, fidelity,
                      max_relative_element_error, offdiagonal_labels,
                      product_operator, rotation_pulse, run_sequence_A,
                      run_sequence_B, tomograph_state, transition_table)
from spintomo.cli import config_from_dict, resolve_params
from spintomo.dynamics import detection_elements, evolution_rates
from spintomo import experiment
from spintomo.core import monomial_table
from spintomo.experiment import (T2_BLOCK_ROWS, detection_fids, t1_blocks,
                                 t1_factors)
from spintomo.tomography import (RANK_TOL, _design_parts, _diagonal_response_matrix,
                                 _gram, _nullspace_labels, _solve_seminormal,
                                 _split)

from conftest import (DEMO_COEFFS, FOUR_SPIN_COUPLINGS, FOUR_SPIN_LARMOR,
                      FOUR_SPIN_STATE, TWO_SPIN_J, TWO_SPIN_LARMOR, TWO_SPIN_T2,
                      dense_design, fit_t1_trace, line_traces, noiseless_measurements,
                      noiseless_tomography, random_coefficients,
                      random_hermitian_traceless, reference_sequence_a,
                      reference_sequence_b)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def two_spin_setup():
    system = build_spin_system(2, TWO_SPIN_LARMOR, {(1, 2): TWO_SPIN_J}, TWO_SPIN_T2)
    params = default_acquisition(system)
    design = build_design_matrix(system, params)
    return system, params, design


def stacked_signal(signal, design):
    """The fit's target: signal A's t1-mean-free coordinates in the design's
    basis, stacked like the design's rows."""
    values = fid_coordinates(signal, design.basis).values
    return _split((values - values.mean(axis=0)).T).ravel()


def oracle_matrix(system, params, design):
    """Per-label design of signal A: each off-diagonal basis operator through
    the step-by-step sequence A of conftest, its t1-mean-free coordinates in
    the design's basis."""
    operators = [product_operator(system, label) for label in offdiagonal_labels(system.n)]
    columns = []
    for grid in reference_sequence_a(system, operators, params):
        values = grid @ design.basis.conj()
        columns.append(_split((values - values.mean(axis=0)).T).ravel())
    return np.column_stack(columns)


def kronecker_gram(system, params, design):
    """A^T A = Re(conj(B) H B^T) over all dim^2 positions.

    B holds the dense Kronecker :func:`product_operator` matrices, flattened,
    and H = (Ec^H Ec) * (conj(G) G^T) the t1 evolution factors and the rest
    of the chain at every position, diagonal ones included: the dense form
    the flip-grouped Gram replaced, kept as the reference.
    """
    evolution = np.exp(params.t1_times[:, None] * evolution_rates(system).ravel())
    evolution = evolution - evolution.mean(axis=0)
    pulse_90 = rotation_pulse(system, np.pi / 2.0, 0.0)
    pulse_read = rotation_pulse(system, params.alpha_rad, np.pi)
    rows, cols, _ = detection_elements(system)
    kernel = detection_fids(system, params.t2_times) @ design.basis.conj()
    to_diagonal = (pulse_90[:, :, None] * pulse_90.conj()[:, None, :]).reshape(system.dim, -1)
    to_detected = pulse_read[rows, :] * pulse_read[cols, :].conj()
    response = to_diagonal.T @ (to_detected.T @ kernel)
    products = (evolution.conj().T @ evolution) * (response.conj() @ response.T)
    operators = np.array([product_operator(system, label).ravel()
                          for label in offdiagonal_labels(system.n)])
    return (operators.conj() @ products @ operators.T).real


def joint_matrix(design):
    """The whole design operator's matrix, both signals' rows, from unit vectors."""
    return np.column_stack([design.apply(e) for e in np.eye(design.shape[1])])


def relative_difference(design, oracle):
    return relative_max_difference(dense_design(design), oracle)


def relative_max_difference(matrix, oracle):
    return float(np.max(np.abs(matrix - oracle)) / np.max(np.abs(oracle)))


def diagonal_oracle(system, params, basis):
    """Per-label diagonal response: each o/z operator through the step-by-step
    sequence B of conftest."""
    return np.column_stack([
        _split(reference_sequence_b(system, product_operator(system, label), params)
               @ basis.conj())
        for label in diagonal_labels(system.n)])


@st.composite
def registers_and_grids(draw):
    n = draw(st.integers(1, 3))
    larmor = draw(st.lists(st.floats(100.0, 2000.0), min_size=n, max_size=n))
    couplings = {(j, k): draw(st.floats(-60.0, 60.0))
                 for j in range(1, n + 1) for k in range(j + 1, n + 1)}
    t2_s = draw(st.floats(0.002, 0.2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = build_spin_system(n, larmor, couplings, t2_s)
    try:
        transition_table(system)
    except DegenerateTransitionError:
        assume(False)
    params = default_acquisition(
        system, n_t1=draw(st.integers(2, 64)), n_t2=draw(st.integers(2, 64)),
        alpha_rad=draw(st.floats(0.1, 1.5)))
    return system, params


def column_block(design, column_index, transition_position):
    """Complex t1 trace of one design column's amplitude on one transition's line."""
    return line_traces(design, column_index)[transition_position]


# Least squares loses about kappa * eps: on the random registers below the
# round trip error stays under 2e-11 while no fit has kappa above 1e6, where
# rounding alone may cost about 2e-10.
ROUND_TRIP_MAX_KAPPA = 1e6


class TestForwardModelProperties:
    @settings(max_examples=25, deadline=None)
    @given(registers_and_grids(), st.integers(0, 2 ** 32 - 1))
    def test_sequences_linear_in_state(self, case, seed):
        system, params = case
        rng = np.random.default_rng(seed)
        rho, sigma = (random_hermitian_traceless(rng, system.dim) for _ in range(2))
        a, b = rng.uniform(-3.0, 3.0, size=2)
        scale = abs(a) * np.max(np.abs(rho)) + abs(b) * np.max(np.abs(sigma))
        for run, signal in ((run_sequence_A, "grid"), (run_sequence_B, "samples")):
            def measure(state):
                return getattr(run(system, state, params), signal)
            combined = measure(a * rho + b * sigma)
            assert np.max(np.abs(combined - (a * measure(rho) + b * measure(sigma)))) \
                <= 1e-12 * scale

    @settings(max_examples=25, deadline=None)
    @given(registers_and_grids(), st.integers(0, 2 ** 32 - 1))
    def test_sequence_A_blind_to_diagonal(self, case, seed):
        system, params = case
        diagonal = np.diag(np.random.default_rng(seed).uniform(-10.0, 10.0, system.dim))
        grid = run_sequence_A(system, diagonal, params).grid
        assert np.max(np.abs(grid)) <= 1e-13 * np.max(np.abs(diagonal))

    @settings(max_examples=60, deadline=None)
    @given(registers_and_grids(), st.integers(0, 2 ** 32 - 1))
    def test_noiseless_round_trip_recovers_coefficients(self, case, seed):
        system, params = case
        coefficients = random_coefficients(np.random.default_rng(seed),
                                           all_labels(system.n), -1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            design = build_design_matrix(system, params)
            # full rank over both signals: lines too close for the diagonal
            # part are refused here too
            assume(design.is_full_rank
                   and design.condition_number <= ROUND_TRIP_MAX_KAPPA
                   and design.condition_number_diagonal <= ROUND_TRIP_MAX_KAPPA)
            result = noiseless_tomography(design, coefficients_to_density(system, coefficients))
        assert result.max_coefficient_error <= 1e-10
        assert max(abs(result.coefficients.get(label, 0.0) - value)
                   for label, value in coefficients.items()) <= 1e-10


class TestDesignMatrix:
    def test_two_spin_shape_and_rank(self, two_spin_setup):
        system, params, design = two_spin_setup
        # signal A's 2 n_t1 rows per line, then signal B's 2 per line
        assert design.shape == (4 * 2 * params.n_t1 + 4 * 2, 15)
        assert design.labels == offdiagonal_labels(2) + diagonal_labels(2)
        assert design.is_full_rank
        assert design.condition_number < 100
        assert not design.zero_labels

    def test_column_frequency_support(self, two_spin_setup):
        # each column must live exactly on the frequency group its label's
        # coherence content evolves at during t1
        system, params, design = two_spin_setup
        single_1 = [1300.0, 1100.0]
        single_2 = [1900.0, 1700.0]
        multi = [3000.0, 600.0]
        all_freqs = single_1 + single_2 + multi
        groups = {}
        for label in design.labels:
            transverse = [c for c in label if c in "xy"]
            if len(transverse) == 2:
                groups[label] = multi
            elif label[0] in "xy":
                groups[label] = single_1
            else:
                groups[label] = single_2
        for column_index, label in enumerate(design.labels):
            for position in range(len(transition_table(system))):
                trace = column_block(design, column_index, position)
                if np.linalg.norm(trace) < 1e-12:
                    continue
                amplitudes, residual = fit_t1_trace(
                    trace, params.t1_times, all_freqs, system.t2_s)
                assert residual < 1e-8, label
                top = max(abs(v) for v in amplitudes.values())
                for (kind, f), value in amplitudes.items():
                    if kind == "const" or f in groups[label]:
                        continue
                    assert abs(value) < 1e-6 * top, (label, kind, f)

    def test_conversion_ratio_at_compromise_angle(self):
        # in-phase single-quantum labels convert with sin(alpha), two-spin
        # coherences with sin(2 alpha)/4; at 45 degrees the per-line
        # amplitude ratio is sqrt(8).  The line amplitudes are fitted from
        # the unit FIDs, so the partner line of a doublet does not bias them.
        system = build_spin_system(2, TWO_SPIN_LARMOR, {(1, 2): TWO_SPIN_J}, 0.1)
        params = default_acquisition(system, n_t1=1024, n_t2=512)
        design = build_design_matrix(system, params)
        expected = np.sin(np.pi / 4) / (0.25 * np.sin(np.pi / 2))
        labels = list(design.labels)
        multi = [l for l in labels if sum(c in "xy" for c in l) == 2]
        in_phase = [l for l in labels if sum(c in "xy" for c in l) == 1 and "z" not in l]
        anti_phase = [l for l in labels if sum(c in "xy" for c in l) == 1 and "z" in l]
        for label in in_phase:
            position = 0 if label[0] in "xy" else 2
            single_norm = np.linalg.norm(
                column_block(design, labels.index(label), position))
            for partner in multi:
                multi_norm = np.linalg.norm(
                    column_block(design, labels.index(partner), position))
                ratio = single_norm / multi_norm
                assert abs(ratio / expected - 1.0) < 0.01, (label, partner)
        # anti-phase operators are half the conventional doublet operators in
        # this basis, so their columns sit at exactly half the in-phase level
        for label in anti_phase:
            position = 0 if label[0] in "xy" else 2
            single_norm = np.linalg.norm(
                column_block(design, labels.index(label), position))
            for partner in multi:
                multi_norm = np.linalg.norm(
                    column_block(design, labels.index(partner), position))
                ratio = single_norm / multi_norm
                assert abs(ratio / (expected / 2) - 1.0) < 0.01, (label, partner)

    @settings(max_examples=25, deadline=None)
    @given(registers_and_grids())
    def test_closed_form_matches_per_label_simulation(self, case):
        system, params = case
        design = build_design_matrix(system, params)
        assert relative_difference(design, oracle_matrix(system, params, design)) <= 1e-12
        # the adjoint is the transpose, and the eigenpairs factor D^T D
        rng = np.random.default_rng(0)
        x = rng.standard_normal(design.shape[1])
        y = rng.standard_normal(design.shape[0])
        forward, backward = design.apply(x) @ y, x @ design.adjoint(y)
        scale = max(np.linalg.norm(design.apply(x)) * np.linalg.norm(y),
                    np.linalg.norm(x) * np.linalg.norm(design.adjoint(y)))
        assert abs(forward - backward) <= 1e-12 * scale
        dense = joint_matrix(design)
        gram = (design.eigenvectors * design.eigenvalues) @ design.eigenvectors.T
        assert relative_max_difference(gram, dense.T @ dense) <= 1e-12

    def test_closed_form_matches_per_label_simulation_four_spin(self):
        system = build_spin_system(4, FOUR_SPIN_LARMOR, FOUR_SPIN_COUPLINGS, 0.010)
        params = default_acquisition(system, n_t1=128, n_t2=128)
        design = build_design_matrix(system, params)
        oracle = oracle_matrix(system, params, design)
        assert relative_difference(design, oracle) <= 1e-12
        svals = np.linalg.svd(oracle, compute_uv=False)
        assert design.rank == len(design.labels) == 255
        # the Gram squares kappa, so its condition number is good to kappa^2 eps
        kappa = svals[0] / svals[-1]
        assert design.condition_number == pytest.approx(
            kappa, rel=kappa ** 2 * np.finfo(float).eps)
        assert not (design.zero_labels or design.nullspace_labels)

    @settings(max_examples=25, deadline=None)
    @given(registers_and_grids(), st.floats(0.01, 0.5))
    def test_closed_form_responses_match_per_label_simulation(self, case, beta_rad):
        system, params = case
        params = replace(params, beta_rad=beta_rad)
        basis = detection_basis(system, params)
        labels, response = _diagonal_response_matrix(system, params, basis)
        assert labels == diagonal_labels(system.n)
        assert relative_max_difference(response, diagonal_oracle(system, params, basis)) <= 1e-12

    def test_closed_form_responses_four_spin(self):
        system = build_spin_system(4, FOUR_SPIN_LARMOR, FOUR_SPIN_COUPLINGS, 0.010)
        params = default_acquisition(system, n_t1=16, n_t2=256)
        basis = detection_basis(system, params)
        _, response = _diagonal_response_matrix(system, params, basis)
        assert relative_max_difference(response, diagonal_oracle(system, params, basis)) <= 1e-12

    def test_factors_match_svd_of_design(self, two_spin_setup):
        _, _, design = two_spin_setup
        _, svals, vt = np.linalg.svd(joint_matrix(design), full_matrices=False)
        assert np.allclose(np.sqrt(design.eigenvalues[::-1]), svals, rtol=1e-12, atol=0)
        # eigenvectors are the right singular vectors, up to sign
        assert np.allclose(np.abs(np.sum(design.eigenvectors[:, ::-1].T * vt, axis=1)),
                           1.0, atol=1e-10)

    def test_rank_deficient_build_memory_bounded(self, two_spin_setup):
        # alpha = 0 detects nothing in signal A: every column of its 4096 x 12
        # block is exactly zero, and so is that block of the Gram
        system = two_spin_setup[0]
        params = default_acquisition(system, n_t1=512, n_t2=64, alpha_rad=0.0)
        tracemalloc.start()
        try:
            design = build_design_matrix(system, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert design.rank == len(diagonal_labels(2)) == 3
        assert set(design.zero_labels) == set(offdiagonal_labels(2))
        assert set(design.nullspace_labels) == set(offdiagonal_labels(2))
        assert peak < 32 * 2 ** 20

    def test_four_spin_build_memory_bounded(self):
        # the dense 131,072 x 240 design alone would take 252 MB
        system = build_spin_system(4, FOUR_SPIN_LARMOR, FOUR_SPIN_COUPLINGS, 0.010)
        params = default_acquisition(system, n_t1=2048, n_t2=512)
        tracemalloc.start()
        try:
            design = build_design_matrix(system, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert design.shape == (131072 + 64, 255)
        assert design.rank == 255
        assert peak < 64 * 2 ** 20

    def test_adjoint_copies_no_evolution_table(self):
        # conjugating Ec before the product copied all of it on every call
        system = build_spin_system(4, FOUR_SPIN_LARMOR, FOUR_SPIN_COUPLINGS, 0.010)
        params = default_acquisition(system, n_t1=256, n_t2=64)
        design = build_design_matrix(system, params)
        y = np.random.default_rng(0).normal(size=design.shape[0])
        tracemalloc.start()
        try:
            design.adjoint(y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        positions = system.dim ** 2 - system.dim
        assert peak < params.n_t1 * positions * np.dtype(complex).itemsize

    def test_fields_independent_of_n_t1(self):
        # the t1 factors are kept as the first block and the positions' rates
        # and mean, so eight times the increments keep the same bytes
        system = build_spin_system(4, FOUR_SPIN_LARMOR, FOUR_SPIN_COUPLINGS, 0.010)
        sizes = []
        for n_t1 in (256, 2048):
            design = build_design_matrix(system, default_acquisition(system, n_t1=n_t1,
                                                                     n_t2=64))
            sizes.append({field.name: getattr(design, field.name).nbytes
                          for field in fields(design)
                          if isinstance(getattr(design, field.name), np.ndarray)})
        assert sizes[0] == sizes[1]

    def test_wide_design_lists_every_label(self, two_spin_setup):
        # one t1 increment leaves signal A 8 rows for 12 labels after mean
        # removal, all of them zero; signal B's 8 rows fit the 3 diagonal ones
        system = two_spin_setup[0]
        params = default_acquisition(system, n_t1=1, n_t2=64)
        design = build_design_matrix(system, params)
        assert design.shape == (8 + 8, 15)
        assert set(design.nullspace_labels) == set(offdiagonal_labels(2))
        measured = noiseless_measurements(design, coefficients_to_density(system, DEMO_COEFFS))
        with pytest.raises(RankDeficiencyError) as info:
            tomograph_state(design, *measured)
        assert info.value.labels == design.nullspace_labels

    def test_rank_cut_per_experiment(self):
        # J = 0.05 Hz on 3 t2 samples: signal B's smallest Gram eigenvalue is
        # about 10 eps of signal A's largest, under the cut of the whole Gram,
        # but far above the cut of B's own block, so nothing is undetermined
        system = build_spin_system(2, TWO_SPIN_LARMOR, {(1, 2): 0.05}, TWO_SPIN_T2)
        design = build_design_matrix(system, default_acquisition(system, n_t1=64, n_t2=3))
        assert design.eigenvalues[0] <= RANK_TOL * design.eigenvalues[-1]
        assert design.condition_number_diagonal < 1 / np.sqrt(RANK_TOL)
        assert design.is_full_rank and not design.nullspace_labels

    def test_nullspace_labels_basis_free(self):
        # the 5-qubit demo register with nu5 = nu2 + nu3 has eight exact null
        # vectors; any orthonormal basis of that space lists the same labels
        payload = json.loads((CONFIG_DIR / "demo_5qubit.json").read_text())
        larmor = payload["spin_system"]["larmor_hz"]
        larmor[4] = larmor[1] + larmor[2]
        cfg = config_from_dict(payload)
        design = build_design_matrix(cfg.system, resolve_params(cfg))
        null = design.eigenvectors[:, :len(design.labels) - design.rank]
        assert null.shape[1] == 8 and len(design.nullspace_labels) == 32
        rng = np.random.default_rng(12)
        for _ in range(5):
            rotation, _ = np.linalg.qr(rng.standard_normal((8, 8)))
            assert _nullspace_labels(design.labels, null @ rotation) == design.nullspace_labels

    def test_near_degenerate_register_refused(self):
        # nu5 = nu2 + nu3 + 1.5e-4 Hz: kappa about 7.6e6 puts the Gram's
        # smallest eigenvalue within RANK_TOL of rounding, where a fit solved
        # anyway comes back about 6e-9 off without a word
        payload = json.loads((CONFIG_DIR / "demo_5qubit.json").read_text())
        larmor = payload["spin_system"]["larmor_hz"]
        larmor[4] = larmor[1] + larmor[2] + 1.5e-4
        cfg = config_from_dict(payload)
        params = resolve_params(cfg)
        design = build_design_matrix(cfg.system, params)
        assert not design.is_full_rank and design.nullspace_labels
        measured = noiseless_measurements(
            design, coefficients_to_density(cfg.system, cfg.coefficients))
        with pytest.raises(RankDeficiencyError) as info:
            tomograph_state(design, *measured)
        assert info.value.labels == design.nullspace_labels

    def test_nullspace_labels_follow_the_projector(self):
        # 400 labels and a 4-dimensional null space: a typical row holds about
        # 0.1 of weight spread over all four vectors, so its largest entry
        # depends on the basis, while its norm, the square root of the null
        # projector's diagonal, does not
        rng = np.random.default_rng(13)
        labels = tuple(range(400))
        null, _ = np.linalg.qr(rng.standard_normal((400, 4)))
        projector = np.sqrt(np.diag(null @ null.T))
        expected = tuple(label for label in labels if projector[label] > 0.1)
        assert 100 < len(expected) < 300
        for _ in range(5):
            rotation, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            assert _nullspace_labels(labels, null @ rotation) == expected


# (n, larmor_hz, couplings_hz, t2_s, n_t1, n_t2): the 2-qubit demo, a 3-qubit
# register and the 4-qubit demo, on their shipped or default grids
GROUPED_CASES = {
    "2q-demo": (2, TWO_SPIN_LARMOR, {(1, 2): TWO_SPIN_J}, TWO_SPIN_T2, 512, 512),
    "3q": (3, (487.5, 1033.2, 1561.9), {(1, 2): 47.1, (1, 3): 23.6, (2, 3): 68.4},
           0.01, 1024, 512),
    "4q-demo": (4, FOUR_SPIN_LARMOR, FOUR_SPIN_COUPLINGS, 0.010, 2048, 512),
}


@pytest.fixture(scope="module", params=sorted(GROUPED_CASES))
def grouped_case(request):
    n, larmor, couplings, t2_s, n_t1, n_t2 = GROUPED_CASES[request.param]
    system = build_spin_system(n, larmor, couplings, t2_s)
    params = default_acquisition(system, n_t1=n_t1, n_t2=n_t2)
    return system, params, build_design_matrix(system, params)


class TestFlipGroupedOperator:
    def test_gram_matches_kronecker_products(self, grouped_case):
        # _gram fills signal A's lower block triangle in group order
        system, params, design = grouped_case
        expected = kronecker_gram(system, params, design)
        expected = np.tril(expected[np.ix_(design.order, design.order)])
        _, _, _, evolution, response, values = _design_parts(
            system, params, design.basis, offdiagonal_labels(system.n))
        gram = np.zeros(expected.shape)
        _gram(evolution, response, values, gram)
        assert relative_max_difference(np.tril(gram), expected) <= 1e-14
        assert design.is_full_rank

    def test_adjoint_is_transpose(self, grouped_case):
        _, _, design = grouped_case
        rng = np.random.default_rng(11)
        x = rng.standard_normal(design.shape[1])
        y = rng.standard_normal(design.shape[0])
        forward, backward = design.apply(x), design.adjoint(y)
        scale = max(np.linalg.norm(forward) * np.linalg.norm(y),
                    np.linalg.norm(x) * np.linalg.norm(backward))
        assert abs(forward @ y - x @ backward) <= 1e-12 * scale

    def test_no_field_holds_dense_product_operators(self, grouped_case):
        # a dense product-operator table would take labels x dim^2 entries;
        # the flip-group table takes dim per label, and the rates, t1 mean,
        # first-block factors and response one entry, column or row per
        # off-diagonal position; signal B's block is 2r x (dim - 1)
        system, params, design = grouped_case
        dim, labels = system.dim, len(design.labels)
        positions = dim * dim - dim
        shapes = {field.name: getattr(design, field.name).shape
                  for field in fields(design)
                  if isinstance(getattr(design, field.name), np.ndarray)}
        rank = design.basis.shape[1]
        assert shapes == {
            "basis": (params.n_t2, rank), "order": (positions,),
            "rates": (positions,), "mean": (positions,),
            "head": (T2_BLOCK_ROWS, positions), "response": (positions, rank),
            "values": (dim - 1, dim, dim), "diagonal_response": (2 * rank, dim - 1),
            "eigenvalues": (labels,),
            "eigenvectors": (labels, labels)}

    def test_block_factors_match_simulator(self, grouped_case, monkeypatch):
        # the fit is exact to 1e-10 on a condition number of 1e5 only because
        # the design's t1 factors are the simulator's, bit for bit
        system, params, design = grouped_case
        simulated = []

        def recorded(*args):
            for rows, factors in t1_blocks(*args):
                simulated.append(factors.copy())
                yield rows, factors

        monkeypatch.setattr(experiment, "t1_blocks", recorded)
        run_sequence_A(system, np.zeros((system.dim, system.dim)), params)
        dim = system.dim
        columns, _ = monomial_table(system.n, design.labels)
        left = np.tile(np.arange(dim), len(design.labels) // dim)
        right = columns[design.order[::dim]].reshape(-1)
        assert np.array_equal(design.rates, evolution_rates(system)[left, right])
        phases = t1_factors(design.rates, params.t1_times, T2_BLOCK_ROWS)
        for phase, states in zip(phases, simulated, strict=True):
            states = states[:, left * dim + right]
            assert np.array_equal(design.head[:len(states)] * phase, states)

    def test_products_use_the_gram_table(self, grouped_case):
        # apply and adjoint remake, block by block, the very t1-mean-free
        # table the Gram was built from
        system, params, design = grouped_case
        _, rates, mean, evolution, _, _ = _design_parts(system, params, design.basis,
                                                        offdiagonal_labels(system.n))
        assert np.array_equal(rates, design.rates) and np.array_equal(mean, design.mean)
        remade = np.concatenate([factors.copy() for _, factors in design._t1_blocks()])
        assert np.array_equal(remade, evolution)

    def test_fit_depends_only_on_the_span(self, grouped_case):
        # Q U spans what Q spans for any unitary U, and the fit is least
        # squares on that span: no coefficient moves, noise or not
        system, params, design = grouped_case
        rng = np.random.default_rng(14)
        rank = design.basis.shape[1]
        unitary, _ = np.linalg.qr(rng.standard_normal((rank, rank))
                                  + 1j * rng.standard_normal((rank, rank)))
        rotated = build_design_matrix(system, params, basis=design.basis @ unitary)
        rho0 = coefficients_to_density(
            system, random_coefficients(rng, offdiagonal_labels(system.n)))
        signal = run_sequence_A(system, rho0, params)
        signal.grid = signal.grid + 1e-2 * (rng.standard_normal(signal.grid.shape)
                                            + 1j * rng.standard_normal(signal.grid.shape))
        signal_b = run_sequence_B(system, rho0, params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fits = [tomograph_state(d, fid_coordinates(signal, d.basis), signal_b).coefficients
                    for d in (design, rotated)]
        scale = max(abs(value) for value in fits[0].values())
        assert max(abs(fits[0][l] - fits[1][l]) for l in design.labels) <= 1e-12 * scale


class TestSeminormalSolve:
    @pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 3e6, 6e6, 1e7, 1e8, 1e10])
    def test_matches_lstsq(self, kappa):
        # a least-squares problem whose residual is 1/kappa of the data, so
        # lstsq is accurate to about kappa * eps.  The Gram squares kappa:
        # beyond about 6.7e6 its smallest eigenvalue is within RANK_TOL of
        # rounding, where the refinement is not known to converge, so the
        # rank drops below full and the fit refuses the design.
        rng = np.random.default_rng(int(np.log10(kappa)))
        rows, cols = 4000, 60
        u, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
        v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
        matrix = (u * np.logspace(0, -np.log10(kappa), cols)) @ v.T
        consistent = matrix @ rng.standard_normal(cols)
        orthogonal = rng.standard_normal(rows)
        orthogonal -= u @ (u.T @ orthogonal)
        target = consistent + orthogonal * (
            np.linalg.norm(consistent) / np.linalg.norm(orthogonal) / kappa)

        values, vectors = np.linalg.eigh(matrix.T @ matrix)
        rank = int(np.sum(values > RANK_TOL * values[-1]))

        if kappa > 6.7e6:
            assert rank < cols
            return
        assert rank == cols
        assert np.sqrt(values[-1] / values[0]) == pytest.approx(kappa, rel=1e-3)
        solution, residual = _solve_seminormal(lambda x: matrix @ x, lambda y: matrix.T @ y,
                                               values, vectors, target)
        expected, _, _, _ = np.linalg.lstsq(matrix, target, rcond=None)
        difference = np.linalg.norm(solution - expected) / np.linalg.norm(expected)
        assert difference <= 100 * kappa * np.finfo(float).eps
        assert np.array_equal(residual, target - matrix @ solution)

    def test_fit_reuses_stored_factors(self, two_spin_setup, monkeypatch):
        system, params, design = two_spin_setup
        measured = noiseless_measurements(design, coefficients_to_density(system, DEMO_COEFFS))

        def refuse(*args, **kwargs):
            raise AssertionError("the fit factored the design again")

        for name in ("lstsq", "svd", "qr", "pinv", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        result = tomograph_state(design, *measured)
        assert result.coefficients["xx"] == pytest.approx(13.0, rel=1e-9)
        assert result.coefficients["zz"] == pytest.approx(6.7, rel=1e-9)


def measurements(design, rho0):
    """``(signal_a, signal_b)``: the noiseless signals of ``rho0`` on the
    design's register and grid, signal A as its time grid."""
    system, params = design.system, design.params
    return run_sequence_A(system, rho0, params), run_sequence_B(system, rho0, params)


def fit_state(design, rho0):
    """The one fit of the noiseless measurements of ``rho0``."""
    return tomograph_state(design, *noiseless_measurements(design, rho0))


class TestFitOffdiagonal:
    def test_demo_state_coefficients(self, two_spin_setup):
        system, params, design = two_spin_setup
        fit = fit_state(design, coefficients_to_density(system, DEMO_COEFFS))
        assert fit.coefficients["xz"] == pytest.approx(10.0, rel=1e-3)
        assert fit.coefficients["xx"] == pytest.approx(13.0, rel=1e-3)
        assert fit.coefficients["yy"] == pytest.approx(2.5, rel=1e-3)
        assert fit.residual_offdiagonal < 1e-9

    def test_zero_input(self, two_spin_setup):
        system, params, design = two_spin_setup
        fit = fit_state(design, np.zeros((4, 4), dtype=complex))
        assert all(abs(v) <= 1e-10 for v in fit.coefficients.values())

    def test_random_self_consistency(self, two_spin_setup):
        system, params, design = two_spin_setup
        rng = np.random.default_rng(41)
        truth = random_coefficients(rng, offdiagonal_labels(2))
        fit = fit_state(design, coefficients_to_density(system, truth))
        scale = max(abs(v) for v in truth.values())
        for label, value in truth.items():
            assert abs(fit.coefficients[label] - value) < 1e-6 * scale

    def test_diagonal_perturbation_ignored(self, two_spin_setup):
        system, params, design = two_spin_setup
        rng = np.random.default_rng(42)
        off = random_coefficients(rng, offdiagonal_labels(2))
        base = fit_state(design, coefficients_to_density(system, off))
        perturbed = dict(off)
        perturbed.update(random_coefficients(rng, diagonal_labels(2)))
        again = fit_state(design, coefficients_to_density(system, perturbed))
        for label in off:
            assert abs(base.coefficients[label] - again.coefficients[label]) <= 1e-10

    def test_noise_warns_and_residual_orthogonal(self, two_spin_setup):
        system, params, design = two_spin_setup
        rng = np.random.default_rng(43)
        signal, signal_b = measurements(design, coefficients_to_density(system, DEMO_COEFFS))
        signal.grid = signal.grid + 0.05 * (
            rng.standard_normal(signal.grid.shape)
            + 1j * rng.standard_normal(signal.grid.shape))
        with pytest.warns(UserWarning, match="residual"):
            fit = tomograph_state(design, fid_coordinates(signal, design.basis), signal_b)
        assert fit.residual_offdiagonal > 1e-6
        # least-squares optimality: residual orthogonal to the column space
        target = stacked_signal(signal, design)
        solution = np.array([fit.coefficients[l] for l in offdiagonal_labels(2)])
        dense = dense_design(design)
        residual_vec = dense @ solution - target
        overlap = np.max(np.abs(dense.T @ residual_vec))
        scale = np.linalg.norm(dense) * np.linalg.norm(residual_vec)
        assert overlap <= 1e-9 * scale

    def test_coordinates_in_other_basis_rejected(self, two_spin_setup):
        # the same span in another column order: the coordinates are not the
        # ones the design's rows were built for
        system, params, design = two_spin_setup
        signal, signal_b = measurements(design, coefficients_to_density(system, DEMO_COEFFS))
        with pytest.raises(ValueError, match="another basis"):
            tomograph_state(design, fid_coordinates(signal, design.basis[:, ::-1]), signal_b)

    def test_other_spin_system_rejected(self, two_spin_setup):
        # same acquisition, a register 10 Hz off on spin 1
        system, params, design = two_spin_setup
        other = build_spin_system(2, (TWO_SPIN_LARMOR[0] + 10.0, TWO_SPIN_LARMOR[1]),
                                  {(1, 2): TWO_SPIN_J}, TWO_SPIN_T2)
        signal = run_sequence_A(other, coefficients_to_density(other, DEMO_COEFFS), params)
        _, signal_b = measurements(design, coefficients_to_density(system, DEMO_COEFFS))
        with pytest.raises(ValueError, match="different spin system"):
            tomograph_state(design, fid_coordinates(signal, design.basis), signal_b)

    def test_mismatched_params_rejected(self, two_spin_setup):
        system, params, design = two_spin_setup
        other = default_acquisition(system, n_t1=64, n_t2=64)
        rho0 = coefficients_to_density(system, DEMO_COEFFS)
        signal = run_sequence_A(system, rho0, other)
        with pytest.raises(ValueError, match="parameters"):
            tomograph_state(design, fid_coordinates(signal, detection_basis(system, other)),
                            run_sequence_B(system, rho0, params))

    def test_unrecorded_signal_rejected(self, two_spin_setup):
        # a hand-built signal records no sequence, register or grid, so
        # nothing says it was measured on the design's
        system, params, design = two_spin_setup
        signal, signal_b = measurements(design, coefficients_to_density(system, DEMO_COEFFS))
        signal.meta = {}
        with pytest.raises(ValueError, match="signal of sequence None given"):
            tomograph_state(design, fid_coordinates(signal, design.basis), signal_b)

    def test_signal_b_rejected(self, two_spin_setup):
        # signal B repeated on every t1 row: right register and grid, no t1
        # modulation, so its t1-mean-free target is only rounding noise
        system, params, design = two_spin_setup
        _, signal_b = measurements(design, coefficients_to_density(system, DEMO_COEFFS))
        swapped = Signal2D(grid=np.tile(signal_b.samples, (params.n_t1, 1)),
                           dwell_t1_s=params.dwell_t1_s, dwell_t2_s=params.dwell_t2_s,
                           meta=signal_b.meta)
        with pytest.raises(ValueError, match="signal of sequence 'B' given where "
                                             "sequence 'A' is fitted"):
            tomograph_state(design, fid_coordinates(swapped, design.basis), signal_b)


class TestFitDiagonal:
    def test_demo_state(self, two_spin_setup):
        system, params, design = two_spin_setup
        fit = fit_state(design, coefficients_to_density(system, DEMO_COEFFS))
        assert fit.coefficients["zo"] == pytest.approx(1.0, rel=5e-3)
        assert fit.coefficients["oz"] == pytest.approx(2.3, rel=5e-3)
        assert fit.coefficients["zz"] == pytest.approx(6.7, rel=5e-3)

    def test_zero_diagonal(self, two_spin_setup):
        system, params, design = two_spin_setup
        fit = fit_state(design, product_operator(system, "xy"))
        assert all(abs(fit.coefficients[l]) <= 1e-10 for l in diagonal_labels(2))

    def test_random_round_trip_small_beta(self, two_spin_setup):
        system, _, _ = two_spin_setup
        params = default_acquisition(system, beta_rad=np.radians(1.0))
        rng = np.random.default_rng(44)
        truth = random_coefficients(rng, diagonal_labels(2))
        fit = fit_state(build_design_matrix(system, params),
                        coefficients_to_density(system, truth))
        scale = max(abs(v) for v in truth.values())
        for label, value in truth.items():
            assert abs(fit.coefficients[label] - value) <= 1e-3 * scale

    def test_beta_choice_does_not_bias(self, two_spin_setup):
        # the fit simulates its responses at the measurement beta, so the
        # finite-angle terms cancel; recoveries at 10 and 1 degrees agree
        system, _, _ = two_spin_setup
        rho0 = coefficients_to_density(system, {"zo": 1.0, "oz": 2.3, "zz": 6.7})
        results = {}
        for beta_deg in (10.0, 1.0):
            params = default_acquisition(system, beta_rad=np.radians(beta_deg))
            fit = fit_state(build_design_matrix(system, params), rho0)
            results[beta_deg] = fit.coefficients
        for label in diagonal_labels(2):
            assert results[10.0][label] == pytest.approx(results[1.0][label],
                                                         abs=1e-6)

    def test_offdiagonal_perturbation_ignored(self, two_spin_setup):
        system, params, design = two_spin_setup
        diag = {"zo": 1.5, "oz": -2.0, "zz": 3.0}
        base = fit_state(design, coefficients_to_density(system, diag))
        noisy = dict(diag)
        noisy.update({"xx": 4.0, "xo": -1.0, "zy": 2.5})
        again = fit_state(design, coefficients_to_density(system, noisy))
        for label in diagonal_labels(2):
            assert abs(base.coefficients[label] - again.coefficients[label]) <= 1e-10

    def test_other_spin_system_rejected(self, two_spin_setup):
        # signal B of a register with spin 1 at 1250 Hz, not 1200 Hz, would
        # be fitted with wrong coefficients (zo 0.28, not 1.0) and a residual
        # of 0.54
        system, params, design = two_spin_setup
        signal_a, _ = noiseless_measurements(design, coefficients_to_density(system, DEMO_COEFFS))
        other = build_spin_system(2, (1250.0, TWO_SPIN_LARMOR[1]), {(1, 2): TWO_SPIN_J},
                                  TWO_SPIN_T2)
        signal = run_sequence_B(other, coefficients_to_density(other, DEMO_COEFFS), params)
        with pytest.raises(ValueError, match="different spin system"):
            tomograph_state(design, signal_a, signal)
        signal.meta = {**signal.meta, "system": system.to_dict(),
                       "params": {**params.to_dict(), "n_t2": 64}}
        with pytest.raises(ValueError, match="acquisition parameters"):
            tomograph_state(design, signal_a, signal)

    def test_unrecorded_signal_rejected(self, two_spin_setup):
        system, params, design = two_spin_setup
        signal_a, signal = noiseless_measurements(
            design, coefficients_to_density(system, DEMO_COEFFS))
        with pytest.raises(ValueError, match="signal of sequence None given"):
            tomograph_state(design, signal_a, Signal1D(signal.samples, signal.dwell_s, meta={}))

    def test_signal_a_row_rejected(self, two_spin_setup):
        # the first t1 row of signal A is a FID on the same register and
        # grid, and would be fitted silently as signal B
        system, params, design = two_spin_setup
        signal_a, _ = measurements(design, coefficients_to_density(system, DEMO_COEFFS))
        row = Signal1D(samples=signal_a.grid[0], dwell_s=params.dwell_t2_s, meta=signal_a.meta)
        with pytest.raises(ValueError, match="signal of sequence 'A' given where "
                                             "sequence 'B' is fitted"):
            tomograph_state(design, fid_coordinates(signal_a, design.basis), row)

    def test_four_spin_overlap_absorbed_without_warning(self):
        # 4-qubit lines sit closer than the 32 Hz linewidth; the shared
        # forward model absorbs the overlap, so nothing warns about it
        system = build_spin_system(4, FOUR_SPIN_LARMOR, FOUR_SPIN_COUPLINGS, 0.010)
        params = default_acquisition(system, n_t1=128, n_t2=128)
        rho0 = coefficients_to_density(system, FOUR_SPIN_STATE)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = noiseless_tomography(build_design_matrix(system, params), rho0)
        assert not [w for w in caught if "closer than" in str(w.message)]
        # kappa is 3.6e6 on this grid; the largest error, 1.4e-9, is the
        # same as a QR solve of the dense design gives
        for label, value in FOUR_SPIN_STATE.items():
            assert result.coefficients[label] == pytest.approx(value, abs=1e-8)


class TestConditionWarnings:
    # J = 0.05 Hz splits each Larmor line into two 0.05 Hz apart, which a
    # 3- or 4-sample FID barely separates: signal B's block has kappa 1.8e6
    # on 3 samples and 5.0e5 on 4.  Both sit inside its rank cut, and the
    # fit does not warn about a condition number.
    @staticmethod
    def fit_warnings(n_t2):
        system = build_spin_system(2, TWO_SPIN_LARMOR, {(1, 2): 0.05}, TWO_SPIN_T2)
        params = default_acquisition(system, n_t1=64, n_t2=n_t2)
        rho0 = coefficients_to_density(system, DEMO_COEFFS)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = noiseless_tomography(build_design_matrix(system, params), rho0)
        return result, [str(w.message) for w in caught]

    def test_diagonal_fit_below_threshold_does_not_warn(self):
        result, messages = self.fit_warnings(n_t2=4)
        assert result.condition_number_diagonal < 1e6
        assert messages == []

    def test_ill_conditioned_diagonal_fit_is_exact(self):
        result, messages = self.fit_warnings(n_t2=3)
        assert result.condition_number_diagonal > 1e6
        assert messages == []
        for label in diagonal_labels(2):
            assert abs(result.coefficients[label] - DEMO_COEFFS.get(label, 0.0)) <= 1e-9

    def test_demo_register_does_not_warn(self, two_spin_setup):
        system, params, design = two_spin_setup
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            noiseless_tomography(design, coefficients_to_density(system, DEMO_COEFFS))
        assert not [w for w in caught if "condition number" in str(w.message)]


class TestReconstructAndScores:
    def test_merge(self, two_spin_setup):
        # one dict, off-diagonal labels first, then the diagonal ones
        system, params, design = two_spin_setup
        rho0 = coefficients_to_density(system, DEMO_COEFFS)
        result = noiseless_tomography(design, rho0)
        assert list(result.coefficients) == (list(offdiagonal_labels(system.n))
                                             + list(diagonal_labels(system.n)))
        matrix = result.matrix
        assert np.array_equal(matrix, coefficients_to_density(system, result.coefficients))
        assert abs(np.trace(matrix)) < 1e-12
        assert np.allclose(matrix, matrix.conj().T)

    def test_fidelity_identical(self, two_spin_setup):
        system, _, _ = two_spin_setup
        rho = coefficients_to_density(system, DEMO_COEFFS)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_orthogonal(self, two_spin_setup):
        system, _, _ = two_spin_setup
        a = product_operator(system, "xo")
        b = product_operator(system, "yo")
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_zero_norm(self):
        with pytest.raises(ValueError, match="zero-norm"):
            fidelity(np.zeros((4, 4)), np.eye(4))

    def test_max_relative_element_error(self):
        ref = np.array([[2.0, 0.0], [0.0, -2.0]], dtype=complex)
        rec = np.array([[2.002, 0.0], [0.0, -2.0]], dtype=complex)
        assert max_relative_element_error(ref, rec) == pytest.approx(1e-3, rel=1e-6)


class TestWarningLocation:
    # the fit's warning names its caller, not a line inside the library
    def test_residual_warning_names_the_caller(self, two_spin_setup):
        system, params, design = two_spin_setup
        signal_a, signal_b = noiseless_measurements(
            design, coefficients_to_density(system, DEMO_COEFFS))
        rng = np.random.default_rng(43)
        noisy = replace(signal_a, values=signal_a.values
                        + 0.05 * rng.standard_normal(signal_a.values.shape))
        with pytest.warns(UserWarning, match="off-diagonal fit residual") as inverted:
            tomograph_state(design, noisy, signal_b)
        assert [w.filename for w in inverted] == [__file__]


class TestEndToEnd:
    def test_single_spin_pipeline(self):
        system = build_spin_system(1, [500.0], {}, 0.010)
        params = default_acquisition(system, n_t1=64, n_t2=128)
        rho0 = coefficients_to_density(system, {"x": 1.0, "y": -0.5, "z": 2.0})
        result = noiseless_tomography(build_design_matrix(system, params), rho0)
        assert result.fidelity >= 0.9999
        assert result.max_relative_element_error <= 1e-3

    def test_demo_state_pipeline(self, two_spin_setup):
        system, params, design = two_spin_setup
        rho0 = coefficients_to_density(system, DEMO_COEFFS)
        result = noiseless_tomography(design, rho0)
        assert result.fidelity >= 0.9999
        assert result.max_relative_element_error <= 1e-3
        assert abs(np.trace(result.matrix)) < 1e-10
        assert np.max(np.abs(result.matrix - result.matrix.conj().T)) < 1e-10

    def test_design_built_in_the_coordinates_basis(self, two_spin_setup):
        # a design built in the basis Q U that signal A's coordinates were
        # taken in fits them, with signal B read in the same basis; any
        # basis of the span gives the same coefficients
        system, params, design = two_spin_setup
        rho0 = coefficients_to_density(system, DEMO_COEFFS)
        rng = np.random.default_rng(16)
        rank = design.basis.shape[1]
        unitary, _ = np.linalg.qr(rng.standard_normal((rank, rank))
                                  + 1j * rng.standard_normal((rank, rank)))
        signal_a = run_sequence_A(system, rho0, params)
        signal_b = run_sequence_B(system, rho0, params)
        fits = [tomograph_state(build_design_matrix(system, params, basis),
                                fid_coordinates(signal_a, basis), signal_b).coefficients
                for basis in (design.basis, design.basis @ unitary)]
        assert max(abs(fits[0][l] - fits[1][l]) for l in fits[0]) <= 1e-12

    def test_truth_is_read_only_to_score(self, two_spin_setup):
        # the same measurements scored against the state and against twice
        # the state give the same fit: only the scores move
        system, params, design = two_spin_setup
        rho0 = coefficients_to_density(system, DEMO_COEFFS)
        measured = noiseless_measurements(design, rho0)
        results = [tomograph_state(design, *measured, truth=truth)
                   for truth in (rho0, 2.0 * rho0)]
        assert results[0].coefficients == results[1].coefficients
        assert results[0].coefficients["xo"] == pytest.approx(1.0, abs=1e-9)
        assert results[0].max_coefficient_error <= 1e-9
        assert results[1].max_coefficient_error > 1.0

    def test_without_truth_no_scores(self, two_spin_setup):
        # the truth fills the scores only: without it the fit, matrix
        # and residuals are bit for bit the same and every score is None
        system, params, design = two_spin_setup
        rho0 = coefficients_to_density(system, DEMO_COEFFS)
        measured = noiseless_measurements(design, rho0)
        scored = tomograph_state(design, *measured, truth=rho0)
        result = tomograph_state(design, *measured)
        assert list(result.coefficients.items()) == list(scored.coefficients.items())
        assert np.array_equal(result.matrix, scored.matrix)
        for name in ("residual_offdiagonal", "residual_diagonal", "condition_number",
                     "condition_number_diagonal", "notes"):
            assert getattr(result, name) == getattr(scored, name)
        for name in ("fidelity", "reference", "element_errors",
                     "max_relative_element_error", "max_coefficient_error"):
            assert getattr(result, name) is None
            assert getattr(scored, name) is not None

    def test_result_json_payload(self, two_spin_setup):
        system, params, design = two_spin_setup
        rho0 = coefficients_to_density(system, DEMO_COEFFS)
        result = noiseless_tomography(design, rho0)
        payload = result.to_json_dict()
        assert len(payload["coefficients"]) == 15 or len(payload["coefficients"]) == len(result.coefficients)
        assert payload["fidelity"] == result.fidelity
        assert np.allclose(np.array(payload["matrix_re"]), result.matrix.real)
        assert "condition_number" in payload
