"""Entanglement broadcasting simulator: a six-photon linear-optics cloning
network with qubit-level and Fock-level models, tomography, and metrics.

The names below are looked up in their home modules on first use
(PEP 562), so ``import entclone`` loads neither numpy nor any submodule,
and each CLI command imports only the modules it runs.
"""

import importlib

# name -> the submodule that defines it
_HOMES = {
    "CloneOutcome": "cloner",
    "DensityMatrix": "qmath",
    "InputSpec": "qmath",
    "NetworkConfig": "cloner",
    "PureState": "qmath",
    "bell_state": "qmath",
    "fidelity_sweep": "cloner",
    "fit_overlap": "hom",
    "hom_visibility": "cloner",
    "ideal_clone_sigma": "cloner",
    "run_ideal": "cloner",
    "run_physical": "cloner",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
