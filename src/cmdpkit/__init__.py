"""Exact-arithmetic toolkit for constrained average-reward MDPs.

Model values are ``fractions.Fraction``s; each analysis works in integers
inside, and only its results are ``Fraction``s. Floating point never enters
except inside Monte Carlo sampling. All model values are immutable after
construction and safe to share across threads.

Importing the package loads none of its modules. Each public name is
resolved on first use (PEP 562), which imports only the module defining it,
so ``from cmdpkit import solve`` loads the solver and what it needs, and
nothing of the certificate, residual or sample-path code.
"""

__version__ = "0.1.0"

# Module -> the public names it defines. Each module here also resolves as
# ``cmdpkit.<module>`` without an import of its own.
_EXPORTS = {
    "model": (
        "EnumerationCapExceeded", "InputError", "InstanceFormatError", "Mdp", "Policy",
        "PolicyError", "Trajectory", "ValidationError", "ValidationReport", "format_rational",
        "induced_chain", "instance_to_json", "load_instance", "parse_instance",
        "parse_rational", "serialize_instance", "validate",
    ),
    "chains": (
        "ChainDecomposition", "absorption_map", "decompose", "reachable_states",
        "state_distribution_at", "stationary_distribution",
    ),
    "lp": (),
    "evaluation": ("EvaluationReport", "PolicyAnalysis", "analyse_policy", "evaluate"),
    "solver": ("PolicyTable", "SolveResult", "enumerate_policies", "solve"),
    "certificate": (
        "Certificate", "CertificateReport", "CertificateSearchError", "CertificateUnsat",
        "check_certificate", "find_certificate",
    ),
    "residual": (
        "AuditEntry", "ConsistencyAuditReport", "InfeasibleStartError", "ResidualSpec",
        "UnreachableStateError", "audit_time_consistency", "build_residual_problem",
        "residual_slack",
    ),
    "samplepath": (
        "ClassControllability", "NotDecomposableError", "SamplePathVerdict",
        "SimulationReport", "controllable_classes", "convert_to_expected",
        "samplepath_feasible", "selective_convert", "simulate", "simulation_report",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ binds the module here as a package attribute; unlike
    # importlib.import_module, it shows in ``python -X importtime``.
    __import__(f"{__name__}.{module}")
    if module != name:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
