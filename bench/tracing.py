"""Per-layer tracing of entclone from outside the package.

`installed(tracer)` wraps, at run time, the public functions of every layer
module (and the public methods of the classes they define), rebinds each
wrapper under every name the package binds the original to (so
``from .qmath import herm_eig`` in ``metrics`` is traced as
``qmath.herm_eig``), and replaces the two ``ProcessPoolExecutor`` names the
package uses with subclasses whose ``with`` block is a span. Nothing under
``src/`` is edited; leaving the context restores every binding.

A span is ``[name, start, end, parent, request_id]`` with ``parent`` the
index of the enclosing span (-1 at top level). Spans stay in memory until
`Tracer.dump`. Self time is a span's duration minus the durations of its
direct children.

Worker processes are not visible: the tracer switches itself off in a forked
child, so work done inside a pool shows only as the parent's
``*.pool_wait_s``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import os
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("qmath", "fock", "cloner", "metrics", "tomography", "paperchecks",
          "cli")

# spans of the tracer's own bookkeeping; excluded from every layer
HOOK_SPAN = "trace.hook"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.mle_keys: set[str] = set()
        self.rid = None
        self.enabled = True

    def open(self, name: str) -> int:
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.rid]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "mle_keys": sorted(self.mle_keys)}


# -- counters recorded at layer boundaries ----------------------------------

def _count_validation(tracer, result, self, *args, **kwargs):
    tracer.counts["qmath.density_validations"] += bool(self.validate)


def _count_beamsplitter(tracer, result, state, *args, **kwargs):
    tracer.counts["fock.terms_in"] += len(state.terms)


def _count_postselect(tracer, result, state, arms, *args, **kwargs):
    # one photon per requested arm, given the photon number matches
    wanted = set(str(a) for a in arms)
    tracer.counts["fock.postselect.monomials_in"] += len(state.terms)
    tracer.counts["fock.postselect.monomials_kept"] += sum(
        1 for mono in state.terms if {m[0] for m in mono} == wanted)


def _count_branches(tracer, result, *args, **kwargs):
    tracer.counts["fock.branches"] += len(result)


def _count_points(tracer, result, *args, **kwargs):
    tracer.counts["cloner.points"] += len(result)


def _count_mle(tracer, result, records, *args, **kwargs):
    key = sorted((r.setting_a, r.setting_b, r.count, r.exposure)
                 for r in records)
    tracer.mle_keys.add(hashlib.sha1(repr(key).encode()).hexdigest())
    iterations = len(result.log_likelihood_history) - 1
    tracer.counts["tomography.mle.iterations"] += iterations
    tracer.counts["tomography.mle.iterations_max"] = max(
        tracer.counts["tomography.mle.iterations_max"], iterations)
    tracer.counts["tomography.mle.nonconverged"] += not result.converged


def _count_paper_failures(tracer, result, *args, **kwargs):
    tracer.counts["paperchecks.failed"] += sum(not c.passed for c in result)


HOOKS = {
    "qmath.DensityMatrix.__post_init__": _count_validation,
    "fock.apply_beamsplitter": _count_beamsplitter,
    "fock.postselect_coincidence": _count_postselect,
    "fock.dephase_internal": _count_branches,
    "cloner.fidelity_sweep": _count_points,
    "tomography.mle_reconstruct": _count_mle,
    "paperchecks.run_paper_checks": _count_paper_failures,
}


def _wrap(tracer: Tracer, fn, name: str):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            with tracer.span(HOOK_SPAN):
                hook(tracer, result, *args, **kwargs)
        return result

    return traced


def _traced_pool(tracer: Tracer, name: str, base):
    class TracedPool(base):
        def __enter__(self):
            self._trace_idx = tracer.open(name) if tracer.enabled else None
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                if self._trace_idx is not None:
                    tracer.close(self._trace_idx)

    return TracedPool


def _class_members(cls):
    """(attribute, function, rewrap) for the methods of ``cls`` to trace."""
    init = "__post_init__" if dataclasses.is_dataclass(cls) else "__init__"
    for attr, member in vars(cls).items():
        if attr.startswith("_") and attr != init:
            continue
        if isinstance(member, staticmethod):
            yield attr, member.__func__, staticmethod
        elif inspect.isfunction(member):
            yield attr, member, lambda f: f


@contextmanager
def installed(tracer: Tracer):
    """Trace every layer of entclone while the context is open."""
    import concurrent.futures

    import entclone

    modules = {layer: importlib.import_module(f"entclone.{layer}")
               for layer in LAYERS}
    undo = []

    def rebind(owner, attr, value):
        undo.append((owner, attr, attr in vars(owner), vars(owner).get(attr)))
        setattr(owner, attr, value)

    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or \
                    getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[obj] = _wrap(tracer, obj, f"{layer}.{attr}")
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for mattr, fn, rewrap in list(_class_members(obj)):
                    rebind(obj, mattr, rewrap(
                        _wrap(tracer, fn, f"{layer}.{attr}.{mattr}")))
    for mod in (entclone, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                rebind(mod, attr, wrappers[obj])

    # cloner imports the executor from concurrent.futures at call time;
    # tomography binds it at import
    base = concurrent.futures.ProcessPoolExecutor
    rebind(concurrent.futures, "ProcessPoolExecutor",
           _traced_pool(tracer, "cloner.pool", base))
    rebind(modules["tomography"], "ProcessPoolExecutor",
           _traced_pool(tracer, "tomography.pool", base))
    os.register_at_fork(after_in_child=functools.partial(
        setattr, tracer, "enabled", False))
    try:
        yield tracer
    finally:
        for owner, attr, existed, old in reversed(undo):
            if existed:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


# -- per-layer metrics -------------------------------------------------------

def _span_times(spans):
    """Per span name: call count, self seconds and inclusive seconds."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, self_s, incl_s = Counter(), defaultdict(float), defaultdict(float)
    for i, (name, t0, t1, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += t1 - t0 - child[i]
        incl_s[name] += t1 - t0
    return calls, self_s, incl_s


def layer_metrics(dumps: list[dict], import_s: list[float],
                  process_overhead_s: float) -> dict[str, float]:
    """The per-layer metrics over the spans of one or more processes.

    Times are totals over the traced requests, except ``cli.import_s``,
    the median import time of ``entclone.cli`` in a fresh interpreter.
    """
    calls, self_s, incl_s = Counter(), defaultdict(float), defaultdict(float)
    counts, mle_keys = Counter(), set()
    for dump in dumps:
        c, s, i = _span_times(dump["spans"])
        calls.update(c)
        for name in s:
            self_s[name] += s[name]
            incl_s[name] += i[name]
        for key, value in dump["counts"].items():
            if key.endswith("_max"):
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
        mle_keys.update(dump["mle_keys"])

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    mle_calls = calls["tomography.mle_reconstruct"]
    return {
        "qmath.density_validations": counts["qmath.density_validations"],
        "qmath.herm_eig.calls": calls["qmath.herm_eig"],
        "qmath.self_s": layer_self("qmath"),
        "fock.apply_beamsplitter.calls": calls["fock.apply_beamsplitter"],
        "fock.apply_beamsplitter.self_s": self_s["fock.apply_beamsplitter"],
        "fock.postselect_coincidence.calls":
            calls["fock.postselect_coincidence"],
        "fock.postselect_coincidence.self_s":
            self_s["fock.postselect_coincidence"],
        "fock.dephase_internal.self_s": self_s["fock.dephase_internal"],
        "fock.branches": counts["fock.branches"],
        "fock.terms_in": counts["fock.terms_in"],
        "fock.postselect.kept_frac": ratio(
            counts["fock.postselect.monomials_kept"],
            counts["fock.postselect.monomials_in"]),
        "cloner.run_physical.calls": calls["cloner.run_physical"],
        "cloner.run_physical.self_s": self_s["cloner.run_physical"],
        "cloner.run_ideal.calls": calls["cloner.run_ideal"],
        "cloner.run_ideal.self_s": self_s["cloner.run_ideal"],
        "cloner.fidelity_sweep.s": incl_s["cloner.fidelity_sweep"],
        "cloner.points": counts["cloner.points"],
        "cloner.pool_wait_s": incl_s["cloner.pool"],
        "metrics.calls": sum(v for k, v in calls.items()
                             if k.startswith("metrics.")),
        "metrics.self_s": layer_self("metrics"),
        "metrics.uhlmann_fidelity.s": incl_s["metrics.uhlmann_fidelity"],
        "metrics.concurrence.s": incl_s["metrics.concurrence"],
        "tomography.mle.calls": mle_calls,
        "tomography.mle.unique_frac": ratio(len(mle_keys), mle_calls),
        "tomography.mle.iterations": counts["tomography.mle.iterations"],
        "tomography.mle.iterations_max":
            counts["tomography.mle.iterations_max"],
        "tomography.mle.nonconverged": counts["tomography.mle.nonconverged"],
        "tomography.mle.self_s": self_s["tomography.mle_reconstruct"],
        "tomography.sample_counts.s": incl_s["tomography.sample_counts"],
        "tomography.monte_carlo.s":
            incl_s["tomography.monte_carlo_uncertainty"],
        "tomography.pool_wait_s": incl_s["tomography.pool"],
        "paperchecks.s": incl_s["paperchecks.run_paper_checks"],
        "paperchecks.failed": counts["paperchecks.failed"],
        "cli.import_s": statistics.median(import_s),
        "cli.main.self_s": layer_self("cli"),
        "cli.process_overhead_s": process_overhead_s,
    }


def main_span_seconds(dump: dict) -> float:
    """Total duration of the top-level ``cli.main`` spans in one dump."""
    return sum(t1 - t0 for name, t0, t1, parent, _ in dump["spans"]
               if name == "cli.main" and parent < 0)
