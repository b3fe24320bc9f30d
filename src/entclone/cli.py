"""Command-line front end.

Subcommands: ``clone``, ``sweep``, ``tomo``, ``hom``, ``paper``. Global
flags: ``--seed`` (default 0), ``--out``, ``--format {csv,json}`` (default:
text for ``paper``, JSON for ``tomo``, CSV otherwise), ``--threads``. Every
output depends only on the command line and the files it names, and is
bit-reproducible for a fixed seed. Angles (schmidt:<theta>) are in radians.

A value that a library call checks (``--n``, ``--resamples``, a reflectivity
or overlap, a state name, a matrix file) is checked there alone, and
``main`` prints that call's message; this module checks the rest: the flag
combinations, the formats, the seed, ``--threads`` and the sweep's grid of
at most ``MAX_STEPS`` points.

Each handler imports the modules it runs, so a process loads only what its
command needs: ``hom --fit`` loads `hom` and `checks` and no numpy, only
``tomo`` and ``paper`` load ``tomography``, and ``tomo`` loads neither
``cloner`` nor ``fock``: `qmath` resolves every state name, this module
only a matrix file.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .qmath import DensityMatrix


class CliError(Exception):
    pass


# the most grid points a sweep runs: at 0.4-1.3 ms a point, about 40-130 s;
# a grid is built in full before its first point runs
MAX_STEPS = 100_000


def _named_density(name: str) -> DensityMatrix:
    """A named state (`qmath.named_density`) or, for a name outside the
    table, a matrix-JSON path resolved to a density matrix."""
    from . import tomography
    from .qmath import named_density

    rho = named_density(name)
    if rho is not None:
        return rho
    if not os.path.exists(name):
        raise CliError(f"unknown state {name!r} and no such file")
    rho = tomography.matrix_from_json(name)
    if rho.num_qubits != 2:
        raise CliError(f"matrix JSON {name!r} holds a {rho.num_qubits}-qubit "
                       "state, not a two-qubit one")
    return rho


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(pairs, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        _write(json.dumps(dict(pairs), indent=2) + "\n", out_path)
    else:
        buf = io.StringIO()
        buf.write("key,value\n")
        for k, v in pairs:
            buf.write(f"{k},{v:.12g}\n" if isinstance(v, float)
                      else f"{k},{v}\n")
        _write(buf.getvalue(), out_path)


def cmd_clone(args) -> int:
    if args.r is not None and (args.r1 is not None or args.r2 is not None):
        raise CliError("--r cannot be combined with --r1 or --r2")
    from . import cloner, metrics
    from .cloner import InputSpec, NetworkConfig

    spec = InputSpec.from_name(args.input)
    r1 = args.r if args.r1 is None else args.r1
    r2 = args.r if args.r2 is None else args.r2
    if r1 is None or r2 is None:
        raise CliError("provide --r or both --r1 and --r2")
    config = NetworkConfig(spec, r1, r2, args.overlap_sq)
    run = cloner.run_ideal if args.model == "ideal" else cloner.run_physical
    out = run(config)
    target = spec.state()
    pairs = [
        ("input", args.input),
        ("model", args.model),
        ("R1", float(r1)),
        ("R2", float(r2)),
        ("overlap_sq", float(args.overlap_sq)),
        ("F_local", metrics.fidelity_to_pure(out.rho_local, target)),
        ("F_distant", metrics.fidelity_to_pure(out.rho_distant, target)),
        ("witness_local", metrics.witness_expectation(out.rho_local)),
        ("witness_distant", metrics.witness_expectation(out.rho_distant)),
        ("concurrence_local", metrics.concurrence(out.rho_local)),
        ("concurrence_distant", metrics.concurrence(out.rho_distant)),
        ("entropy_local", metrics.von_neumann_entropy(out.rho_local)),
        ("entropy_distant", metrics.von_neumann_entropy(out.rho_distant)),
        ("trace_distance_between_clones",
         metrics.trace_distance(out.rho_local, out.rho_distant)),
        ("uhlmann_fidelity_between_clones",
         metrics.uhlmann_fidelity(out.rho_local, out.rho_distant)),
        ("success_weight", out.success_weight),
    ]
    _emit_report(pairs, args.format, args.out)
    return 0


def cmd_sweep(args) -> int:
    for flag, r in (("--r-min", args.r_min), ("--r-max", args.r_max)):
        # NaN fails every comparison, so `0 <= r <= 1` rejects it too
        if not 0.0 <= r <= 1.0:
            raise CliError(f"{flag} must be in [0, 1], got {r}")
    if args.r_min > args.r_max:
        raise CliError("--r-min must not exceed --r-max")
    if args.steps < 1 or (args.steps < 2 and args.r_min != args.r_max):
        raise CliError("--steps must be at least 2 (1 for a degenerate grid)")
    if args.steps > MAX_STEPS:
        raise CliError(f"--steps must be at most {MAX_STEPS}, "
                       f"got {args.steps}")
    import numpy as np

    from . import cloner

    spec = cloner.InputSpec.from_name(args.input)
    if args.r_min == args.r_max:
        grid = [args.r_min]
    else:
        grid = list(np.linspace(args.r_min, args.r_max, args.steps))
    rows = cloner.fidelity_sweep(spec, grid, args.overlap_sq)
    if args.format == "json":
        payload = [
            {"R": r, "F_local": fl, "F_distant": fd, "success_weight": w}
            for r, fl, fd, w in rows
        ]
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        buf = io.StringIO()
        buf.write("R,F_local,F_distant,success_weight\n")
        for r, fl, fd, w in rows:
            buf.write(f"{r:.12g},{fl:.12g},{fd:.12g},{w:.12g}\n")
        _write(buf.getvalue(), args.out)
    return 0


def cmd_tomo(args) -> int:
    if args.format == "csv":
        raise CliError("tomo reports are JSON only; use --format json")
    from . import metrics, tomography

    rho_true = _named_density(args.state)
    # sample_counts and mle_reconstruct check --n and --resamples
    records = tomography.sample_counts(rho_true, args.n, seed=args.seed)
    if args.n > tomography.CERTIFIABLE_MEAN_COUNT:
        print(f"entclone: warning: --n {args.n:g} is above "
              f"{tomography.CERTIFIABLE_MEAN_COUNT:.3g} counts per setting, "
              "where the certified gap's rounding bound alone exceeds "
              f"{tomography.CERT_TOL:g}: the reconstruction cannot converge",
              file=sys.stderr)
    rec = tomography.mle_reconstruct(records, args.resamples, seed=args.seed)
    if not rec.converged:
        print("entclone: warning: the reconstruction did not converge: its "
              f"certified log-likelihood gap is {rec.certified_gap:.3g}, "
              f"above {tomography.CERT_TOL:g}", file=sys.stderr)
    report = {
        "state": args.state,
        "n_per_setting": args.n,
        "seed": args.seed,
        "log_likelihood": rec.log_likelihood,
        "converged": rec.converged,
        "fidelity_to_true_state":
            metrics.uhlmann_fidelity(rec.rho_hat, rho_true),
        "metrics": {
            "fidelity_phi_plus":
                metrics.fidelity_to_pure(rec.rho_hat, metrics.PHI_PLUS),
            "witness": metrics.witness_expectation(rec.rho_hat),
            "concurrence": metrics.concurrence(rec.rho_hat),
            "entropy": metrics.von_neumann_entropy(rec.rho_hat),
        },
        "reconstruction": tomography.matrix_to_json_dict(rec.rho_hat),
    }
    mc = rec.monte_carlo
    if mc is not None:
        if mc.nonconverged:
            print(f"entclone: warning: {mc.nonconverged} of {args.resamples} "
                  "resample reconstructions did not converge: the largest "
                  "certified log-likelihood gap is "
                  f"{mc.max_certified_gap:.3g}, above "
                  f"{tomography.CERT_TOL:g}", file=sys.stderr)
        report["monte_carlo"] = {
            "resamples": args.resamples,
            **{stat: {"mean": mean, "std": std}
               for stat, (mean, std) in mc.statistics.items()},
        }
    _write(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def cmd_hom(args) -> int:
    if args.fit is not None:
        # the closed form alone: no numpy, no Fock model
        from .hom import fit_overlap

        overlap = fit_overlap(args.fit, args.r)
        pairs = [("R", float(args.r)), ("visibility_measured", float(args.fit)),
                 ("overlap_sq", overlap)]
    else:
        from . import cloner

        v = cloner.hom_visibility(args.r, args.overlap_sq)
        pairs = [("R", float(args.r)), ("overlap_sq", float(args.overlap_sq)),
                 ("visibility", v)]
    _emit_report(pairs, args.format, args.out)
    return 0


def cmd_paper(args) -> int:
    if args.format == "csv":
        raise CliError("the paper table is text or JSON; use --format json")
    from .paperchecks import run_paper_checks

    checks = run_paper_checks(seed=args.seed)
    failed = [c for c in checks if not c.passed]
    if args.format == "json":
        payload = [
            {"name": c.name, "computed": c.computed, "expected": c.expected,
             "tolerance": c.tolerance, "passed": c.passed}
            for c in checks
        ]
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        buf = io.StringIO()
        width = max(len(c.name) for c in checks)
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            buf.write(f"{status}  {c.name:<{width}}  computed={c.computed:+.9f}"
                      f"  expected={c.expected:+.9f}  tol={c.tolerance:g}\n")
        buf.write(f"{len(checks) - len(failed)}/{len(checks)} checks passed\n")
        _write(buf.getvalue(), args.out)
    return 1 if failed else 0


# the state names `qmath` reads, spelled out so that parsing loads no
# numpy; tests/test_cli.py checks them against qmath's tables
_INPUT_HELP = "phi+ | psi+ | psi- | schmidt:<theta radians>"
_STATE_HELP = "phi+ | psi+ | psi- | sigma | mixed | schmidt:<theta> | " \
    "path to matrix JSON"


# parsing leaves the parser as it was, so one serves every call of `main`
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="entclone",
        description="Entanglement broadcasting network simulator")
    p.add_argument("--seed", type=int, default=0,
                   help="root RNG seed, non-negative (default: 0)")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="default: text for paper, json for tomo, "
                        "csv otherwise")
    p.add_argument("--threads", type=int, default=1,
                   help="at least 1; accepted and ignored: every command "
                        "runs in one process")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("clone", help="run the network once and report metrics")
    c.add_argument("--input", required=True, help=_INPUT_HELP)
    c.add_argument("--r", type=float, default=None)
    c.add_argument("--r1", type=float, default=None)
    c.add_argument("--r2", type=float, default=None)
    c.add_argument("--overlap-sq", type=float, default=1.0)
    c.add_argument("--model", choices=("ideal", "physical"), default="ideal")

    s = sub.add_parser("sweep", help="fidelity vs reflectivity sweep")
    s.add_argument("--input", required=True, help=_INPUT_HELP)
    s.add_argument("--r-min", type=float, default=0.0)
    s.add_argument("--r-max", type=float, default=1.0)
    s.add_argument("--steps", type=int, default=11,
                   help="grid points, from 2 (1 for a degenerate grid) to "
                        f"{MAX_STEPS}")
    s.add_argument("--overlap-sq", type=float, default=1.0)

    t = sub.add_parser("tomo", help="simulate tomography and reconstruct")
    t.add_argument("--state", required=True, help=_STATE_HELP)
    t.add_argument("--n", type=float, default=4000.0,
                   help="mean counts per setting")
    t.add_argument("--resamples", type=int, default=0,
                   help="Monte Carlo resamples for error bars "
                        "(0 for none, else from 2 to 100000, "
                        "tomography.MAX_RESAMPLES)")

    h = sub.add_parser("hom", help="Hong-Ou-Mandel visibility / overlap fit")
    h.add_argument("--r", type=float, required=True)
    # --fit infers overlap_sq, so the two cannot be given together
    hom_mode = h.add_mutually_exclusive_group()
    hom_mode.add_argument("--overlap-sq", type=float, default=1.0)
    hom_mode.add_argument("--fit", type=float, default=None,
                          help="measured visibility to invert into overlap_sq")

    sub.add_parser("paper", help="reproduce the reference numbers")

    return p


# the paper table is human-readable text and tomo reports are JSON only
_DEFAULT_FORMAT = {"paper": "text", "tomo": "json"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.format is None:
        args.format = _DEFAULT_FORMAT.get(args.command, "csv")
    try:
        if args.seed < 0:
            raise CliError(f"--seed must be non-negative, got {args.seed}")
        if args.threads < 1:
            raise CliError(f"--threads must be at least 1, got {args.threads}")
        # looked up per call, so the parser built once holds no handler
        handler = {"clone": cmd_clone, "sweep": cmd_sweep, "tomo": cmd_tomo,
                   "hom": cmd_hom, "paper": cmd_paper}[args.command]
        return handler(args)
    except (CliError, ValueError, KeyError, OSError) as exc:
        print(f"entclone: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
