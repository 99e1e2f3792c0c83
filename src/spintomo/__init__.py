"""Two-dimensional Fourier-transform state tomography for coupled spin-1/2 registers.

The package simulates the two pulse sequences of the protocol (a 2D experiment
for all off-diagonal density-matrix elements and a 1D experiment for the
diagonal), processes the signals into spectra, and inverts them back into the
deviation density matrix by forward-model least squares.
"""

from .core import (AXES, SpinSystem, Transition, all_labels, build_spin_system,
                   coefficients_to_density, density_to_coefficients,
                   diagonal_labels, format_label, offdiagonal_labels,
                   parse_label, product_operator, rotation_pulse)
from .dynamics import evolution_rates
from .errors import (ConfigError, DegenerateTransitionError, NyquistError,
                     RankDeficiencyError, SpinTomoError)
from .experiment import (AcquisitionParams, Signal1D, Signal2D,
                         default_acquisition, run_sequence_A, run_sequence_B,
                         transition_table)
from .spectral import (HybridSpectrum, Spectrum1D, Spectrum2D,
                       cross_sections, dft_fid, dft_t1, dft_t2,
                       hybrid_omega2_axis)
from .tomography import (DesignMatrix, TomographyResult, build_design_matrix,
                         detection_basis, fid_coordinates, fidelity,
                         max_relative_element_error, tomograph_state)

__version__ = "0.1.0"

__all__ = [
    "AXES", "AcquisitionParams", "ConfigError",
    "DegenerateTransitionError", "DesignMatrix", "HybridSpectrum",
    "NyquistError", "RankDeficiencyError", "Signal1D", "Signal2D",
    "SpinSystem", "SpinTomoError", "Spectrum1D", "Spectrum2D",
    "TomographyResult", "Transition", "all_labels",
    "build_design_matrix", "build_spin_system", "coefficients_to_density",
    "cross_sections", "default_acquisition", "density_to_coefficients",
    "detection_basis", "dft_fid", "dft_t1", "dft_t2", "diagonal_labels",
    "evolution_rates", "fid_coordinates", "fidelity", "format_label",
    "hybrid_omega2_axis", "max_relative_element_error",
    "offdiagonal_labels", "parse_label", "product_operator", "rotation_pulse",
    "run_sequence_A", "run_sequence_B", "tomograph_state", "transition_table",
]
