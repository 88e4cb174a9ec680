"""steerbound: device-independent certification of the CHSH-type steering
assemblage via operator inequalities, with numerical cross-checks. Each name
is imported from its module on first use (PEP 562): the certificate core's
names come without numpy."""

import importlib

__version__ = "0.1.0"

# module -> the public names read from it; each module's own name resolves
# to the module
_EXPORTS = {
    "assemblage": (
        "Assemblage",
        "ClassicalStrategy",
        "QuantumRealization",
        "ValidationReport",
        "chsh_reference",
        "from_classical",
        "realize",
        "validate",
    ),
    "certificate": (
        "BETA_CLASSICAL",
        "BETA_QUANTUM",
        "BoundCoefficients",
        "S_OPTIMAL",
        "T_OPTIMAL",
        "THRESHOLD_BETA",
        "TRIVIAL_CLASSICAL_FIDELITY",
        "ValidationError",
        "analytic_bound",
        "coefficient_search",
        "upper_bound",
        "xi_star",
    ),
    "cli": (),
    "fidelity": (
        "ExtractionChannel",
        "appendix_b_strategy",
        "assemblage_fidelity",
        "classical_fidelity",
        "extractability",
        "state_fidelity",
    ),
    "matkernel": (),
    "numsearch": ("SandwichReport", "SearchConfig", "sandwich_sweep"),
    "selftest": ("certified_lower_bound", "dephasing_channel", "extractability_with_channel", "t_constraints"),
    "steering": ("chsh_functional", "max_violation_over_theta", "t_operators"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}


def __getattr__(name):
    """The exported name or submodule, imported on first use and then kept
    in the package's namespace, so this runs once per name."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOMES[name]}")
    value = module if name == _HOMES[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOMES})
