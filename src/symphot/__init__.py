"""symphot: synthesis, simulation and classification of symmetric multiqubit
photonic states produced by linear-optics multiport schemes."""

from .fock import (
    FockVector,
    PolarizationAmplitude,
    apply_creation,
    apply_operator,
    basis_state,
    inner_product,
    product_state,
    vacuum,
    H,
    V,
)
from .multiport import (
    CascadeSpec,
    build_cascade,
    distribute,
    postselect_one_per_mode,
    postselection_probability,
    run_pipeline,
)
from .schemes import (
    RateReport,
    SchemeRate,
    SourceRates,
    bell_pair,
    cl_distribution_probability,
    cl_input_state,
    dicke_2n_construction,
    ncl_joint_state,
    project_onto,
    projector_state,
    rates,
    sps_combine,
    PSI_MINUS,
    PSI_PLUS,
)
from .slocc import (
    ClassLabel,
    DegeneracyConfiguration,
    classify_coefficients,
    classify_params,
    degeneracy_configuration,
    same_class,
)
from .symmetric import (
    MajoranaPolynomial,
    QubitStateVector,
    SymmetricCoefficients,
    SynthesisError,
    coefficients_from_params,
    dicke_state,
    majorana_polynomial,
    normalization_squared,
    output_state,
    params_from_coefficients,
    project_qubits,
    scaled_coefficients_from_params,
    synthesize,
)

__version__ = "0.1.0"
