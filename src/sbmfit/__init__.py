"""Community detection in stochastic block models by likelihood maximization.

Provides the plug-in and integrated likelihood objectives over labelings,
exact and greedy maximizers over size-constrained label spaces, the
phase-transition constant governing exact recovery, and a simulation
harness with reproducible sweeps.
"""

from importlib import import_module as _import_module

# Public names, and the submodules that define them, resolve on first
# access, so a command imports only the modules it uses: `sbmfit sample`
# does not load the search or experiments modules.
_EXPORTS = {
    "errors": (
        "DegenerateBlockError",
        "InfeasibleError",
        "ParameterError",
        "SbmfitError",
        "SearchSpaceError",
    ),
    "graphs": (
        "BlockCounters",
        "ConfusionMatrix",
        "Graph",
        "Labeling",
        "block_counters",
        "confusion",
        "disagreement_fraction",
        "hamming_distance",
        "meets_min_size",
        "misclassification",
    ),
    "metrics": ("nmi",),
    "modularity": (
        "integrated_likelihood_modularity",
        "likelihood_modularity",
        "modularity_gap",
    ),
    "sampling": (
        "SbmParams",
        "derive_seed",
        "expected_block_density",
        "expected_edge_counts",
        "sample",
    ),
    "search": ("FitResult", "SearchConfig", "exact_argmax", "greedy_argmax"),
    "theory": (
        "PhaseConstant",
        "edge_count_deviation",
        "expected_likelihood_modularity",
        "mixture_information",
        "modularity_excess",
        "phase_transition_constant",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "divergences")

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
