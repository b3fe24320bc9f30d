"""Seeded workloads of the entclone benchmark.

A workload turns a seed into an endless sequence of *requests*, the unit a
user waits for; each request does ``items`` units of work. Requests come in
blocks of fixed composition and the seed draws every value inside a block,
so two seeds give different inputs but the same mix of work. Runs measure
whole blocks, which keeps their run-to-run spread small.

Requests are plain JSON-able dicts: the program receives only what they
hold. ``execute`` runs one request through entclone's public entry points;
``check`` validates its output outside the timed region and returns an
error message, or None when the output is correct.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from entclone import cli, cloner, metrics, tomography
from entclone.cloner import InputSpec, NetworkConfig
from entclone.qmath import DensityMatrix

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# same tolerance as the paper's fock_qubit_equivalence check
MATCH_TOL = 1e-9
# fidelities of 1 come back as 1 + a few ulp
RANGE_TOL = 1e-12
TOMO_STATISTICS = ("fidelity", "witness", "concurrence", "entropy",
                   "trace_distance", "uhlmann_fidelity")


def block(workload, seed: int, k: int) -> list[dict]:
    """Block ``k`` of the request sequence of ``workload`` for ``seed``."""
    return workload.block(random.Random(f"{workload.name}:{seed}:{k}"), k)


def blocks(workload, seed: int):
    """The endless block sequence of ``workload`` for ``seed``."""
    for k in itertools.count():
        yield block(workload, seed, k)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return float(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= MATCH_TOL


def _true_state(name: str) -> DensityMatrix:
    if name == "sigma":
        return cloner.ideal_clone_sigma()
    if name == "mixed":
        return DensityMatrix(np.eye(4) / 4.0, ("a", "b"))
    return InputSpec.from_name(name).state(("a", "b")).to_density()


def check_tomo_report(req: dict, text: str) -> str | None:
    """A tomo JSON report: parses, holds a valid density matrix, and its
    point metrics match a recomputation by entclone.metrics."""
    report = json.loads(text)
    for key in ("state", "seed"):
        if report[key] != req[key]:
            return f"{key} {report[key]!r} != {req[key]!r}"
    if report["n_per_setting"] != req["n"]:
        return f"n_per_setting {report['n_per_setting']} != {req['n']}"
    rho = tomography.matrix_from_json_dict(report["reconstruction"])
    expected = {
        "fidelity_phi_plus": metrics.fidelity_to_pure(rho, metrics.PHI_PLUS),
        "witness": metrics.witness_expectation(rho),
        "concurrence": metrics.concurrence(rho),
        "entropy": metrics.von_neumann_entropy(rho),
    }
    for key, value in expected.items():
        if not _close(report["metrics"][key], value):
            return f"{key} {report['metrics'][key]} != recomputed {value}"
    f_true = metrics.uhlmann_fidelity(rho, _true_state(req["state"]))
    if not _close(report["fidelity_to_true_state"], f_true):
        return (f"fidelity_to_true_state {report['fidelity_to_true_state']}"
                f" != recomputed {f_true}")
    mc = report["monte_carlo"]
    if mc["resamples"] != req["resamples"]:
        return f"resamples {mc['resamples']} != {req['resamples']}"
    for stat in TOMO_STATISTICS:
        mean, std = mc[stat]["mean"], mc[stat]["std"]
        if not (math.isfinite(mean) and math.isfinite(std) and std >= 0.0):
            return f"monte carlo {stat}: mean {mean}, std {std}"
    return None


def check_sweep_rows(spec: InputSpec, grid, overlap_sq: float, rows,
                     ideal_index: int | None) -> str | None:
    """Sweep rows: one per grid point, fidelities in [0, 1], weights >= 0,
    and, at ``ideal_index``, agreement with the qubit-level model."""
    if len(rows) != len(grid):
        return f"{len(rows)} rows for {len(grid)} grid points"
    for (r, f_local, f_distant, weight), g in zip(rows, grid):
        if not _close(r, g):
            return f"row R {r} != grid point {g}"
        for f in (f_local, f_distant):
            if not -RANGE_TOL <= f <= 1.0 + RANGE_TOL:
                return f"fidelity {f} outside [0, 1] at R = {r}"
        if not (math.isfinite(weight) and weight >= 0.0):
            return f"success weight {weight} at R = {r}"
    if ideal_index is not None:
        r, f_local, f_distant, weight = rows[ideal_index]
        g = float(grid[ideal_index])
        ideal = cloner.run_ideal(NetworkConfig(spec, g, g, overlap_sq))
        target = spec.state().amplitudes
        expected = (metrics.fidelity_to_pure(ideal.rho_local, target),
                    metrics.fidelity_to_pure(ideal.rho_distant, target),
                    ideal.success_weight)
        for got, want in zip((f_local, f_distant, weight), expected):
            if not _close(got, want):
                return f"R = {r}: physical {got} != ideal {want}"
    return None


class NetworkSweep:
    """``cloner.fidelity_sweep(spec, grid, overlap_sq, workers=1)``.

    Request = one sweep; item = one grid point. For each range of grid
    sizes a block draws one size and sweeps it once at overlap^2 = 1 (one
    distinguishability branch) and once at overlap^2 drawn from [0.8, 1)
    (four branches), over the inputs phi+, psi+, psi- and schmidt:theta.
    Sizes vary smoothly, so the median latency does not jump between a few
    discrete request sizes.
    """

    name = "network_sweep"
    GRID_SIZES = ((1, 1), (2, 3), (4, 7), (8, 15), (16, 23), (24, 33),
                  (34, 43), (44, 51))
    INPUTS = ("phi+", "psi+", "psi-", "schmidt")
    block_s = 2.0  # one block on a 2-CPU x86 sandbox, Python 3.11

    def block(self, rng: random.Random, k: int) -> list[dict]:
        inputs = list(self.INPUTS) * (2 * len(self.GRID_SIZES)
                                      // len(self.INPUTS))
        rng.shuffle(inputs)
        block = []
        for lo, hi in self.GRID_SIZES:
            size = rng.randint(lo, hi)
            for branched in (False, True):
                name = inputs.pop()
                if name == "schmidt":
                    name = f"schmidt:{rng.uniform(0.1, math.pi / 2 - 0.1)!r}"
                if size == 1:
                    grid = [rng.random()]
                else:
                    grid = [float(r) for r in np.linspace(
                        rng.uniform(0.0, 0.5), rng.uniform(0.5, 1.0), size)]
                overlap_sq = 0.8 + 0.2 * rng.random() if branched else 1.0
                block.append({
                    "input": name, "grid": grid, "overlap_sq": overlap_sq,
                    # the point checked against run_ideal (overlap^2 = 1 only)
                    "ideal_index": None if branched else rng.randrange(size),
                })
        rng.shuffle(block)
        return block

    @staticmethod
    def items(req: dict) -> int:
        return len(req["grid"])

    @staticmethod
    def execute(req: dict):
        return cloner.fidelity_sweep(InputSpec.from_name(req["input"]),
                                     req["grid"], req["overlap_sq"],
                                     workers=1)

    @staticmethod
    def check(req: dict, rows) -> str | None:
        return check_sweep_rows(InputSpec.from_name(req["input"]),
                                req["grid"], req["overlap_sq"], rows,
                                req["ideal_index"])

    def warmup(self) -> None:
        self.execute({"input": "phi+", "grid": [1 / 3], "overlap_sq": 0.9})


class TomoReport:
    """``cli.main([... "tomo", ...])`` in-process, single-threaded.

    Request = one JSON report; item = one Monte Carlo resample delivered with
    all six statistics. A block holds one 10-resample report for each of
    sigma, phi+, psi- and mixed, each at N drawn from one of four ranges
    that split [1e3, 1e6] (the states take turns over the ranges from block
    to block), plus a 2-resample schmidt:0.4 report at N = 30: its MLE
    needs ~400 iterations on average and up to a few thousand, against ~130
    for the others (and ~31k at N = 1e6), the straggler a batched solver
    has to absorb. At N = 30 the straggler's cost has the lightest tail
    (coefficient of variation ~0.5 against ~0.9 at N = 100), and short
    reports keep the host-speed kernel close in time to the work it
    corrects.
    """

    name = "tomo_report"
    STATES = ("sigma", "phi+", "psi-", "mixed")
    N_RANGES = ((1e3, 10**3.75), (10**3.75, 10**4.5), (10**4.5, 10**5.25),
                (10**5.25, 1e6))
    RESAMPLES = 10
    SLOW = {"state": "schmidt:0.4", "n": 30.0, "resamples": 2}
    block_s = 3.5  # one block on a 2-CPU x86 sandbox, Python 3.11

    def __init__(self):
        OUT.mkdir(exist_ok=True)
        self.out_path = OUT / f"tomo-{os.getpid()}.json"

    def block(self, rng: random.Random, k: int) -> list[dict]:
        ranges = self.N_RANGES
        block = [{"state": state,
                  "n": _log_uniform(rng, *ranges[(i + k) % len(ranges)]),
                  "resamples": self.RESAMPLES}
                 for i, state in enumerate(self.STATES)]
        block.append(dict(self.SLOW))
        for req in block:
            req["seed"] = rng.randrange(2**31)
        rng.shuffle(block)
        return block

    @staticmethod
    def items(req: dict) -> int:
        return req["resamples"]

    def argv(self, req: dict) -> list[str]:
        return ["--threads", "1", "--format", "json",
                "--out", str(self.out_path), "--seed", str(req["seed"]),
                "tomo", "--state", req["state"], "--n", repr(req["n"]),
                "--resamples", str(req["resamples"])]

    def execute(self, req: dict):
        code = cli.main(self.argv(req))
        return code, self.out_path.read_text() if code == 0 else ""

    @staticmethod
    def check(req: dict, output) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        return check_tomo_report(req, text)

    def warmup(self) -> None:
        self.execute({"state": "sigma", "n": 1000.0, "resamples": 2,
                      "seed": 0})


def subprocess_env() -> dict:
    env = dict(os.environ)
    env.pop("ECLONE_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class CliSession:
    """Fresh ``python -m entclone.cli`` processes, one per request.

    Request = item = one command. A block runs, in this order, ``paper``,
    ``sweep``, ``clone --model physical``, ``hom --fit`` and
    ``--format json tomo --resamples``, each with ``--threads`` set to
    min(2, nproc), so sweeps and Monte Carlo go through the process pools.
    """

    name = "cli_session"
    STATES = ("sigma", "phi+", "psi-", "mixed")
    INPUTS = ("phi+", "psi+", "psi-")
    RESAMPLES = 6
    block_s = 2.2  # one block on a 2-CPU x86 sandbox, Python 3.11
    TIMEOUT_S = 120

    def __init__(self):
        self.threads = min(2, len(os.sched_getaffinity(0)))
        self.env = subprocess_env()

    def block(self, rng: random.Random, k: int) -> list[dict]:
        t = ["--threads", str(self.threads)]
        r = rng.uniform(0.05, 0.95)
        v = rng.uniform(0.5, 1.0) * cloner.ideal_hom_visibility(r)
        sweep = {"input": rng.choice(self.INPUTS),
                 "r_min": rng.uniform(0.0, 0.5),
                 "r_max": rng.uniform(0.5, 1.0),
                 "steps": rng.randint(21, 31),
                 "overlap_sq": 0.8 + 0.2 * rng.random()}
        clone = {"input": rng.choice(self.INPUTS), "r": rng.uniform(0.0, 1.0),
                 "overlap_sq": 0.8 + 0.2 * rng.random()}
        tomo = {"state": self.STATES[k % len(self.STATES)],
                "n": _log_uniform(rng, 1e3, 1e5),
                "resamples": self.RESAMPLES, "seed": rng.randrange(2**31)}
        return [
            {"kind": "paper", "argv": t + ["paper"]},
            {"kind": "sweep", **sweep, "argv": t + [
                "sweep", "--input", sweep["input"],
                "--r-min", repr(sweep["r_min"]),
                "--r-max", repr(sweep["r_max"]),
                "--steps", str(sweep["steps"]),
                "--overlap-sq", repr(sweep["overlap_sq"])]},
            {"kind": "clone", **clone, "argv": t + [
                "clone", "--model", "physical", "--input", clone["input"],
                "--r", repr(clone["r"]),
                "--overlap-sq", repr(clone["overlap_sq"])]},
            {"kind": "hom", "r": r, "v": v, "argv": t + [
                "hom", "--r", repr(r), "--fit", repr(v)]},
            {"kind": "tomo", **tomo, "argv": t + [
                "--format", "json", "--seed", str(tomo["seed"]),
                "tomo", "--state", tomo["state"], "--n", repr(tomo["n"]),
                "--resamples", str(tomo["resamples"])]},
        ]

    @staticmethod
    def items(req: dict) -> int:
        return 1

    def run(self, cmd: list[str]):
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                              capture_output=True, text=True,
                              timeout=self.TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def execute(self, req: dict):
        return self.run([sys.executable, "-m", "entclone.cli", *req["argv"]])

    def execute_traced(self, req: dict, dump_path: Path, rid: int):
        return self.run([sys.executable, str(BENCH / "traced_cli.py"),
                         str(dump_path), str(rid), *req["argv"]])

    @staticmethod
    def check(req: dict, output) -> str | None:
        code, out, err = output
        if code != 0:
            return f"{req['kind']}: exit code {code}: {err.strip()[-300:]}"
        kind = req["kind"]
        if kind == "paper":
            last = out.strip().splitlines()[-1].split()[0]
            passed, total = (int(x) for x in last.split("/"))
            if passed != total or total < 27:
                return f"paper: {last} checks passed"
            return None
        if kind == "tomo":
            return check_tomo_report(req, out)
        rows = list(csv.reader(io.StringIO(out)))
        if kind == "sweep":
            spec = InputSpec.from_name(req["input"])
            grid = list(np.linspace(req["r_min"], req["r_max"], req["steps"]))
            got = [tuple(float(x) for x in row) for row in rows[1:]]
            want = cloner.fidelity_sweep(spec, grid, req["overlap_sq"])
            if len(got) != len(want):
                return f"sweep: {len(got)} rows, expected {len(want)}"
            for g, w in zip(got, want):
                if not all(_close(a, b) for a, b in zip(g, w)):
                    return f"sweep row {g} != in-process {w}"
            return check_sweep_rows(spec, grid, req["overlap_sq"], got, None)
        values = dict(rows[1:])
        if kind == "clone":
            spec = InputSpec.from_name(req["input"])
            clone = cloner.run_physical(NetworkConfig(
                spec, req["r"], req["r"], req["overlap_sq"]))
            target = spec.state().amplitudes
            want = {
                "F_local": metrics.fidelity_to_pure(clone.rho_local, target),
                "F_distant": metrics.fidelity_to_pure(clone.rho_distant,
                                                      target),
                "success_weight": clone.success_weight,
            }
        else:
            want = {"overlap_sq": cloner.fit_overlap(req["v"], req["r"])}
        for key, value in want.items():
            if not _close(float(values[key]), value):
                return f"{kind}: {key} {values[key]} != in-process {value}"
        return None

    def warmup(self) -> None:
        """Nothing: every request starts a fresh interpreter."""


WORKLOADS = {w.name: w for w in (NetworkSweep, TomoReport, CliSession)}
