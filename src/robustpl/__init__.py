"""Outage-constrained power loading for the MU-MISO downlink under Gaussian
channel-estimate uncertainty."""

from .model import (
    BeamformerKind,
    BeamformerMatrix,
    Diverged,
    PowerAllocation,
    QoSSpec,
    QuadraticOutageForm,
    ScenarioInstance,
    SingularChannel,
    SingularSystem,
    build_outage_form,
    build_pcsi_directions,
    build_rci,
    build_zf,
    complex_normal,
    db_to_linear,
    generate_rayleigh_channels,
    init_powers_pcsi,
    simulate_uplink_estimate,
    sinr,
    uplink_error_variance,
)
from .quadform import (
    EigenSpectrum,
    EvalMethod,
    GaussianQuadratic,
    ProbabilityEstimate,
    ToleranceNotMet,
    cdf_quadrature,
    decompose,
    mc_probability,
    outage_probability,
)
from .descent import (
    DescentConfig,
    InfeasibleStartNotFound,
    OutageOracle,
    SolveReport,
    SolveStatus,
    bisect_user_power,
    find_feasible_start,
    solve_general,
)
from .zf import (
    ApproximationInapplicable,
    DegenerateSpectrum,
    ResidueSpectrum,
    ZfApproxParams,
    coord_update_init,
    coord_update_step,
    residue_probability,
    residue_spectrum,
    solve_zf_coord_descent,
    solve_zf_coord_update,
    zf_params,
)
from .bench import (
    EmptyIntersection,
    ExperimentConfig,
    METHODS,
    SummaryRow,
    TrialRecord,
    aggregate,
    export_records,
    export_summary,
    read_records,
    run_sweep,
)

__version__ = "0.1.0"
