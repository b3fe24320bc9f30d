"""Every number entclone takes at its boundary is checked by the shared
predicates of `checks`: one table of the public numeric parameters, and a
walk of the source that keeps a hand-written bool check from coming back.
`hom --fit` loads `hom` and `checks`, and still no numpy."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import entclone
from entclone import tomography as tg
from entclone.cloner import (InputSpec, NetworkConfig, fidelity_sweep,
                             hom_visibility, postselection_operator)
from entclone.fock import BeamSplitterSpec, FockState, dephase_internal
from entclone.hom import fit_overlap, ideal_hom_visibility
from entclone.qmath import bell_state

PHI = InputSpec.from_name("phi+")
PHI_DM = bell_state("phi+").to_density()
RECORDS = tg.sample_counts(PHI_DM, 100, seed=1)

UNIT = r"{name} = {shown} outside \[0, 1\]"
NUMBER = "{name} must be a number, got {shown}"
POSITIVE = "{name} must be finite and positive, got {shown}"
COUNT = "count must be a non-negative integer, got {shown}"
RESAMPLES = (r"n_resamples must be 0 \(no error bars\) or at least 2, "
             "got {shown}")
WORKERS = "worker count must be at least 1, got {shown}"


def _unit(name, call):
    return name, call, "number", 0.5, NUMBER, UNIT


# (name in the message, the call with the value in place of the parameter,
# "number" or "integer", a value the call takes, the message for a value
# that is no number of that kind, and for an int too large for a float)
PARAMETERS = {
    "config-r1": _unit("r1", lambda v: NetworkConfig(PHI, v, 0.5)),
    "config-r2": _unit("r2", lambda v: NetworkConfig(PHI, 0.5, v)),
    "config-overlap": _unit("overlap_sq",
                            lambda v: NetworkConfig(PHI, 0.5, 0.5, v)),
    "postselection": _unit("reflectivity", postselection_operator),
    "hom-r": _unit("reflectivity", lambda v: hom_visibility(v, 1.0)),
    "hom-overlap": _unit("overlap_sq", lambda v: hom_visibility(0.5, v)),
    "hom-ideal": _unit("reflectivity", ideal_hom_visibility),
    "fit-r": _unit("reflectivity", lambda v: fit_overlap(0.5, v)),
    "fit-visibility": ("visibility", lambda v: fit_overlap(v, 0.5), "number",
                       0.5, NUMBER,
                       r"{name} {shown} outside physical range \[0, 1\.0\]"),
    "sweep-r": _unit("r1", lambda v: fidelity_sweep(PHI, [v], 1.0)),
    "sweep-overlap": _unit("overlap_sq",
                           lambda v: fidelity_sweep(PHI, [0.5], v)),
    "sweep-workers": ("workers",
                      lambda v: fidelity_sweep(PHI, [0.5], 1.0, workers=v),
                      "integer", 1, WORKERS, WORKERS),
    "fock-beamsplitter": _unit(
        "reflectivity", lambda v: BeamSplitterSpec(("a", "b"), ("c", "d"), v)),
    "fock-dephase": _unit("overlap", lambda v: dephase_internal(
        FockState.from_photons([("a", "H", 0), ("b", "H", 0)]),
        [("a", "b", v)])),
    "record-count": ("count", lambda v: tg.CountRecord("H", "H", v),
                     "integer", 5, COUNT, COUNT),
    "record-exposure": ("exposure",
                        lambda v: tg.CountRecord("H", "H", 5, v),
                        "number", 1.5, NUMBER, POSITIVE),
    "sample-n": ("n_per_setting", lambda v: tg.sample_counts(PHI_DM, v, 1),
                 "number", 100.0, NUMBER, POSITIVE),
    "sample-seed": ("seed", lambda v: tg.sample_counts(PHI_DM, 100, v),
                    "integer", 1, "sampling needs an integer seed, got {shown}",
                    None),
    "mle-resamples": ("n_resamples",
                      lambda v: tg.mle_reconstruct(RECORDS, v, seed=1),
                      "integer", 2, RESAMPLES, RESAMPLES),
    "mle-seed": ("seed", lambda v: tg.mle_reconstruct(RECORDS, 2, seed=v),
                 "integer", 1, "resampling needs an integer seed, got {shown}",
                 None),
}
# any non-negative integer seeds numpy's generators, however large, and the CLI passes
# its --seed on as the int it parsed
SEEDS = ("sample-seed", "mle-seed")
NON_NUMBERS = [True, False, np.True_, np.False_, "0.5", None]
HUGE = [pytest.param(10**400, id="10**400"),
        pytest.param(10**5000, id="10**5000")]


# a bool compares as 0 or 1, numpy's bool_ passed every isinstance(v, bool)
# check, and a string or None raised a TypeError from the first comparison
@pytest.mark.parametrize("value", NON_NUMBERS, ids=repr)
@pytest.mark.parametrize("key", PARAMETERS)
def test_non_number_rejected(key, value):
    name, call, _, _, message, _ = PARAMETERS[key]
    problem = message.format(name=name, shown=re.escape(repr(value)))
    with pytest.raises(ValueError, match=f"^{problem}$"):
        call(value)


# every entry point that takes a reflectivity or a squared overlap rejects
# it outside [0, 1], NaN included, with one message
@pytest.mark.parametrize("value", [np.nan, -0.1, 1.5], ids=repr)
@pytest.mark.parametrize("key", [k for k, p in PARAMETERS.items()
                                 if p[5] == UNIT])
def test_outside_unit_interval_rejected(key, value):
    name, call, *_ = PARAMETERS[key]
    problem = UNIT.format(name=name, shown=re.escape(str(value)))
    with pytest.raises(ValueError, match=f"^{problem}$"):
        call(value)


# math.isfinite raised OverflowError, str() the 4300-digit limit's
# ValueError, and a resample or worker count that large was taken
@pytest.mark.parametrize("value", HUGE)
@pytest.mark.parametrize("key", [k for k in PARAMETERS if k not in SEEDS])
def test_int_too_large_for_a_float_rejected(key, value):
    name, call, _, _, _, message = PARAMETERS[key]
    problem = message.format(name=name,
                             shown=f"an int of {value.bit_length()} bits")
    with pytest.raises(ValueError, match=f"^{problem}$"):
        call(value)


@pytest.mark.parametrize("value", HUGE)
@pytest.mark.parametrize("key", SEEDS)
def test_any_integer_seed_taken(key, value):
    PARAMETERS[key][1](value)


# numpy refused a negative seed with a bare "expected non-negative integer"
@pytest.mark.parametrize("value, shown", [
    (-1, "-1"), (-10**5000, "a negative int of 16610 bits")],
    ids=["-1", "-10**5000"])
@pytest.mark.parametrize("key, use", [("sample-seed", "sampling"),
                                      ("mle-seed", "resampling")])
def test_negative_seed_rejected(key, use, value, shown):
    with pytest.raises(ValueError,
                       match=f"^{use} needs a non-negative seed, got {shown}$"):
        PARAMETERS[key][1](value)


# fidelity_sweep took only a Python int as its worker count
@pytest.mark.parametrize("key", PARAMETERS)
def test_numpy_number_taken(key):
    _, call, kind, good, _, _ = PARAMETERS[key]
    call(np.float64(good) if kind == "number" else np.int64(good))


def _bool_checks(tree):
    """Line of each ``isinstance(..., bool)`` call, bool alone or in a
    tuple of types."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id == "isinstance" and len(node.args) == 2:
            types = node.args[1]
            names = types.elts if isinstance(types, ast.Tuple) else [types]
            if any(isinstance(t, ast.Name) and t.id == "bool"
                   for t in names):
                yield node.lineno


def test_bool_checked_only_in_checks():
    found = {}
    for path in sorted(Path(entclone.__file__).parent.glob("*.py")):
        lines = list(_bool_checks(ast.parse(path.read_text())))
        if lines:
            found[path.name] = lines
    # the walk sees the shared predicates, and nothing else
    assert "checks.py" in found
    assert set(found) == {"checks.py"}, found
