"""Exact-arithmetic toolkit for constrained average-reward MDPs.

Everything analytic is computed over ``fractions.Fraction``; floating point
never enters except inside Monte Carlo sampling. All model values are
immutable after construction and safe to share across threads.
"""

from cmdpkit.model import (
    InstanceFormatError,
    Mdp,
    Policy,
    PolicyError,
    Trajectory,
    ValidationError,
    ValidationReport,
    format_rational,
    induced_chain,
    instance_to_json,
    load_instance,
    parse_instance,
    parse_rational,
    serialize_instance,
    validate,
)
from cmdpkit.chains import (
    ChainDecomposition,
    absorption_map,
    decompose,
    reachable_states,
    state_distribution_at,
    stationary_distribution,
)
from cmdpkit.evaluation import (
    EvaluationReport,
    PolicyAnalysis,
    analyse_policy,
    evaluate,
)
from cmdpkit.solver import (
    EnumerationCapExceeded,
    PolicyTable,
    SolveResult,
    enumerate_policies,
    solve,
)
from cmdpkit.certificate import (
    Certificate,
    CertificateReport,
    CertificateSearchError,
    CertificateUnsat,
    check_certificate,
    find_certificate,
)
from cmdpkit.residual import (
    AuditEntry,
    ConsistencyAuditReport,
    InfeasibleStartError,
    ResidualSpec,
    UnreachableStateError,
    audit_time_consistency,
    build_residual_problem,
    residual_slack,
)
from cmdpkit.samplepath import (
    ClassControllability,
    NotDecomposableError,
    SamplePathVerdict,
    SimulationReport,
    controllable_classes,
    convert_to_expected,
    samplepath_feasible,
    selective_convert,
    simulate,
    simulation_report,
)

__version__ = "0.1.0"

__all__ = [
    "AuditEntry",
    "Certificate",
    "CertificateReport",
    "CertificateSearchError",
    "CertificateUnsat",
    "ChainDecomposition",
    "ClassControllability",
    "ConsistencyAuditReport",
    "EnumerationCapExceeded",
    "EvaluationReport",
    "InfeasibleStartError",
    "InstanceFormatError",
    "Mdp",
    "NotDecomposableError",
    "Policy",
    "PolicyAnalysis",
    "PolicyError",
    "PolicyTable",
    "ResidualSpec",
    "SamplePathVerdict",
    "SimulationReport",
    "SolveResult",
    "Trajectory",
    "UnreachableStateError",
    "ValidationError",
    "ValidationReport",
    "absorption_map",
    "analyse_policy",
    "audit_time_consistency",
    "build_residual_problem",
    "check_certificate",
    "controllable_classes",
    "convert_to_expected",
    "decompose",
    "enumerate_policies",
    "evaluate",
    "find_certificate",
    "format_rational",
    "induced_chain",
    "instance_to_json",
    "load_instance",
    "parse_instance",
    "parse_rational",
    "reachable_states",
    "residual_slack",
    "samplepath_feasible",
    "selective_convert",
    "serialize_instance",
    "simulate",
    "simulation_report",
    "solve",
    "state_distribution_at",
    "stationary_distribution",
    "validate",
]
