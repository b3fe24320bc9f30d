import argparse
import ast
import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entclone
from conftest import matrix_to_json
from entclone import cli, cloner, metrics, qmath, tomography as tg
from entclone.cli import build_parser, main
from entclone.cloner import ideal_clone_sigma
from entclone.paperchecks import CheckResult


# bytes of `entclone --seed 11 --format json tomo --state sigma --n 2000
# --resamples 8`; how the resamples are scheduled must not change them
GOLDEN_TOMO = (Path(__file__).parent / "data"
               / "tomo_sigma_seed11_n2000_b8.json")
# bytes of `entclone --seed 3 paper` and `entclone --seed 3 --format json
# paper`; the JSON prints full-precision floats, so it pins every computed
# value of the reference checks bit for bit
GOLDEN_PAPER = {fmt: Path(__file__).parent / "data" / f"paper_seed3.{ext}"
                for fmt, ext in (("text", "txt"), ("json", "json"))}
# stdout of each `clone` and `sweep` command line below, keyed by the line
# joined with " ", as `cli_network_golden_text()` wrote it before the named
# inputs became plain amplitudes; every input name spelling, model and
# format the network commands take shows here
GOLDEN_CLI_NETWORK = Path(__file__).parent / "data" / "cli_network_golden.json"
_GOLDEN_INPUTS = ("phi+", "psi+", "psi-", "schmidt:0.3",
                  "schmidt:0.39269908169872414", " psi- ")
CLI_NETWORK_GOLDEN_ARGV = [
    argv for name in _GOLDEN_INPUTS for argv in (
        ["clone", "--input", name, "--r", "0.3"],
        ["--format", "json", "clone", "--input", name, "--r1", "0.5",
         "--r2", "0.2"],
        ["clone", "--input", name, "--model", "physical",
         "--r", "0.3333333333333333", "--overlap-sq", "0.5"],
        ["--format", "json", "clone", "--input", name, "--model",
         "physical", "--r1", "0.4", "--r2", "0.25", "--overlap-sq",
         "0.91375"],
    )
] + [
    ["sweep", "--input", "phi+"],
    ["--format", "json", "sweep", "--input", "psi+", "--steps", "3",
     "--overlap-sq", "0.5"],
    ["sweep", "--input", "psi-", "--r-min", "0.25", "--r-max", "0.25",
     "--steps", "1"],
    ["--format", "json", "sweep", "--input", "schmidt:0.4", "--r-min", "0.1",
     "--r-max", "0.9", "--steps", "5", "--overlap-sq", "0.91375"],
    ["sweep", "--input", "schmidt:1.2", "--steps", "4", "--overlap-sq", "0"],
]


# what `tomo` prints on stderr before the run when --n is above
# `tomography.CERTIFIABLE_MEAN_COUNT`
UNCERTIFIABLE_WARNING = (
    "entclone: warning: --n {n:g} is above 1.25e+13 counts per setting, "
    "where the certified gap's rounding bound alone exceeds 0.1: the "
    "reconstruction cannot converge\n")


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr() if capsys else None
    return code, out


def cli_network_golden_text() -> str:
    """JSON of the stdout of each command line of `CLI_NETWORK_GOLDEN_ARGV`."""
    out = {}
    for argv in CLI_NETWORK_GOLDEN_ARGV:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        assert code == 0, argv
        out[" ".join(argv)] = buf.getvalue()
    return json.dumps(out, indent=2) + "\n"


def _json_entries(m) -> list:
    """The ``matrix`` field of a matrix JSON holding ``m``."""
    return [[[float(z.real), float(z.imag)] for z in row]
            for row in np.asarray(m, dtype=complex)]


class TestClone:
    def test_symmetric_point_report(self, capsys):
        code, out = run_cli("--format", "json", "clone", "--input", "phi+",
                            "--r", "0.3333333333333333", "--model", "ideal",
                            capsys=capsys)
        assert code == 0
        report = json.loads(out.out)
        assert report["F_local"] == pytest.approx(7 / 12, abs=1e-9)
        assert report["F_distant"] == pytest.approx(7 / 12, abs=1e-9)
        assert report["witness_local"] == pytest.approx(-1 / 12, abs=1e-9)
        assert report["concurrence_local"] == pytest.approx(1 / 6, abs=1e-9)
        assert report["trace_distance_between_clones"] == \
            pytest.approx(0.0, abs=1e-9)

    def test_teleportation_endpoint(self, capsys):
        code, out = run_cli("--format", "json", "clone", "--input", "phi+",
                            "--r", "0.5", capsys=capsys)
        assert code == 0
        report = json.loads(out.out)
        assert report["F_local"] == pytest.approx(0.25, abs=1e-9)
        assert report["F_distant"] == pytest.approx(1.0, abs=1e-9)

    def test_psi_plus_matches_phi_plus(self, capsys):
        _, out_phi = run_cli("--format", "json", "clone", "--input", "phi+",
                             "--r", "0.3333333333333333", capsys=capsys)
        _, out_psi = run_cli("--format", "json", "clone", "--input", "psi+",
                             "--r", "0.3333333333333333", capsys=capsys)
        phi = json.loads(out_phi.out)
        psi = json.loads(out_psi.out)
        assert phi["F_local"] == pytest.approx(psi["F_local"], abs=1e-9)
        assert phi["F_distant"] == pytest.approx(psi["F_distant"], abs=1e-9)

    def test_physical_model_with_noise(self, capsys):
        code, out = run_cli("--format", "json", "clone", "--input", "phi+",
                            "--r", "0.5", "--model", "physical",
                            "--overlap-sq", "0.91375", capsys=capsys)
        assert code == 0
        report = json.loads(out.out)
        assert report["F_distant"] == pytest.approx(0.783, abs=0.05)

    def test_invalid_input_name_fails(self, capsys):
        code, out = run_cli("clone", "--input", "nonsense", "--r", "0.5",
                            capsys=capsys)
        assert code != 0
        assert "error" in out.err

    def test_missing_r_fails(self, capsys):
        code, out = run_cli("clone", "--input", "phi+", capsys=capsys)
        assert code != 0

    # the first CLI checks of the asymmetric network
    @pytest.mark.parametrize("model, overlap_sq, run", [
        ("ideal", 1.0, cloner.run_ideal),
        ("physical", 0.9, cloner.run_physical),
    ], ids=["ideal", "physical"])
    def test_asymmetric_reflectivities(self, capsys, model, overlap_sq, run):
        code, out = run_cli("--format", "json", "clone", "--input", "psi-",
                            "--r1", "0.2", "--r2", "0.6", "--model", model,
                            "--overlap-sq", repr(overlap_sq), capsys=capsys)
        assert code == 0
        report = json.loads(out.out)
        spec = cloner.InputSpec.from_name("psi-")
        want = run(cloner.NetworkConfig(spec, 0.2, 0.6, overlap_sq))
        target = spec.state().amplitudes
        assert (report["R1"], report["R2"]) == (0.2, 0.6)
        assert report["F_local"] == \
            metrics.fidelity_to_pure(want.rho_local, target)
        assert report["F_distant"] == \
            metrics.fidelity_to_pure(want.rho_distant, target)
        assert report["success_weight"] == want.success_weight

    @pytest.mark.parametrize("flags", [["--r1", "0.4"], ["--r2", "0.4"]],
                             ids=["r1", "r2"])
    def test_one_sided_reflectivity_rejected(self, capsys, flags):
        code, out = run_cli("clone", "--input", "phi+", *flags, capsys=capsys)
        assert code == 1
        assert out.out == ""
        assert out.err == ("entclone: error: provide --r or both --r1 and "
                           "--r2\n")

    # --r 0.3 --r1 0.4 ran R1 = 0.4, R2 = 0.3 without a word
    @pytest.mark.parametrize("flags", [
        ["--r1", "0.4"], ["--r2", "0.4"], ["--r1", "0.4", "--r2", "0.6"],
    ], ids=["r1", "r2", "both"])
    def test_r_with_r1_or_r2_rejected(self, capsys, flags):
        code, out = run_cli("clone", "--input", "phi+", "--r", "0.3", *flags,
                            capsys=capsys)
        assert code == 1
        assert out.out == ""
        assert out.err == ("entclone: error: --r cannot be combined with "
                           "--r1 or --r2\n")

    @pytest.mark.parametrize("model", ["ideal", "physical"])
    def test_zero_weight_is_an_error(self, capsys, monkeypatch, model):
        # unreachable from any input: the weight is at least 1/16
        monkeypatch.setattr(cloner.fock, "postselect_coincidence",
                            lambda state, arms: (None, 0.0))
        monkeypatch.setattr(cloner, "postselection_operator",
                            lambda r: np.zeros((4, 4), dtype=complex))
        code, out = run_cli("clone", "--input", "phi+", "--r", "0.3",
                            "--model", model, capsys=capsys)
        assert code == 1
        assert out.out == ""
        assert out.err.startswith("entclone: error: post-selection")


def test_network_commands_match_golden_bytes():
    assert cli_network_golden_text() == GOLDEN_CLI_NETWORK.read_text()


class TestSweep:
    def test_csv_schema_and_fixed_points(self, capsys):
        code, out = run_cli("--threads", "1", "sweep", "--input", "phi+",
                            "--r-min", "0", "--r-max", "1", "--steps", "3",
                            capsys=capsys)
        assert code == 0
        lines = out.out.strip().splitlines()
        assert lines[0] == "R,F_local,F_distant,success_weight"
        assert len(lines) == 4
        r0 = lines[1].split(",")
        assert float(r0[1]) == pytest.approx(1.0, abs=1e-9)
        assert float(r0[2]) == pytest.approx(0.25, abs=1e-9)
        mid = lines[2].split(",")
        assert float(mid[0]) == pytest.approx(0.5)
        assert float(mid[2]) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_grid_single_row(self, capsys):
        code, out = run_cli("--threads", "1", "sweep", "--input", "phi+",
                            "--r-min", "0.4", "--r-max", "0.4", "--steps", "5",
                            capsys=capsys)
        assert code == 0
        assert len(out.out.strip().splitlines()) == 2

    def test_bad_range_fails(self, capsys):
        code, _ = run_cli("sweep", "--input", "phi+", "--r-min", "0.9",
                          "--r-max", "0.1", capsys=capsys)
        assert code != 0

    @pytest.mark.parametrize("flag", ["--r-min", "--r-max"])
    @pytest.mark.parametrize("value", ["nan", "-0.1", "1.5", "inf"])
    def test_r_outside_unit_interval_fails(self, capsys, flag, value):
        # a NaN --r-max used to pass the order check, as NaN compares false
        code, out = run_cli("sweep", "--input", "phi+", flag, value,
                            capsys=capsys)
        assert code == 1
        assert out.out == ""
        assert out.err == (f"entclone: error: {flag} must be in [0, 1], "
                           f"got {float(value)}\n")

    # a grid was built in full before its first point ran: 3e8 steps ended
    # in numpy's memory error, and 3e6 points take 20-65 minutes
    @pytest.mark.parametrize("r_max", ["1", "0"], ids=["grid", "degenerate"])
    @pytest.mark.parametrize("steps", ["100001", "1000000000000"])
    def test_too_many_steps_rejected(self, capsys, monkeypatch, r_max, steps):
        def no_grid(*args, **kwargs):
            pytest.fail("built a grid")

        monkeypatch.setattr(np, "linspace", no_grid)
        code, out = run_cli("sweep", "--input", "phi+", "--r-min", "0",
                            "--r-max", r_max, "--steps", steps, capsys=capsys)
        assert code == 1
        assert out.out == ""
        assert out.err == ("entclone: error: --steps must be at most 100000, "
                           f"got {steps}\n")

    def test_output_file_reproducible(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("--out", str(p1), "--threads", "1", "sweep",
                "--input", "phi+", "--steps", "5", capsys=capsys)
        run_cli("--out", str(p2), "--threads", "1", "sweep",
                "--input", "phi+", "--steps", "5", capsys=capsys)
        assert p1.read_bytes() == p2.read_bytes()


class TestTomo:
    def test_sigma_large_n(self, capsys):
        code, out = run_cli("--format", "json", "--seed", "7", "tomo",
                            "--state", "sigma", "--n", "1000000",
                            capsys=capsys)
        assert code == 0
        report = json.loads(out.out)
        assert report["fidelity_to_true_state"] >= 0.999
        assert report["converged"]

    def test_phi_plus_initial_state_quality(self, capsys):
        code, out = run_cli("--format", "json", "--seed", "1", "tomo",
                            "--state", "phi+", "--n", "100000", capsys=capsys)
        assert code == 0
        report = json.loads(out.out)
        assert report["metrics"]["fidelity_phi_plus"] > 0.991

    def test_seed_reproducible_bytes(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            code, _ = run_cli("--seed", "11", "--format", "json", "--out",
                              str(p), "--threads", "1", "tomo", "--state",
                              "sigma", "--n", "2000", "--resamples", "8",
                              capsys=capsys)
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_matrix_file_round_trip(self, tmp_path, capsys):
        # export sigma, feed the file back in as the target state
        path = tmp_path / "sigma.json"
        matrix_to_json(ideal_clone_sigma(), path)
        code, out = run_cli("--format", "json", "--seed", "2", "tomo",
                            "--state", str(path), "--n", "100000",
                            capsys=capsys)
        assert code == 0
        report = json.loads(out.out)
        assert report["fidelity_to_true_state"] >= 0.99
        recon = tg.matrix_from_json_dict(report["reconstruction"])
        assert abs(metrics.concurrence(recon)
                   - report["metrics"]["concurrence"]) < 1e-12

    @pytest.mark.parametrize("payload, problem", [
        ({"labels": ["a", "b"], "matrix": np.eye(4).tolist()},
         "entries must be [re, im] pairs"),
        ([[1, 0], [0, 0]], "must be an object"),
        ({"labels": 5, "matrix": [[[1, 0]]]},
         "labels must be a list of strings"),
        ({"labels": ["a", "b"], "matrix": [[[0.25]] * 4] * 4},
         "entries must be [re, im] pairs"),
        # a bare KeyError, numpy's "inhomogeneous shape" and the
        # two-qubit message of the Born probabilities before
        ({"labels": ["a", "b"]}, "has no 'matrix'"),
        ({"labels": ["a", "b"], "matrix": [[[1, 0]] * 4] * 3 + [[[0, 0]]]},
         "must hold a square matrix, got rows of lengths [4, 4, 4, 1]"),
        ({"labels": ["a"], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
         "holds a 1-qubit state, not a two-qubit one"),
        # DensityMatrix's "expected 4x4 matrix, got (2, 2)" and "expected
        # 2x2 matrix, got (4, 4)" before
        ({"labels": ["a", "b"],
          "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
         "labels ['a', 'b'] need a 4x4 matrix, got 2x2"),
        ({"labels": ["a"], "matrix": tg.matrix_to_json_dict(
            ideal_clone_sigma())["matrix"]},
         "labels ['a'] need a 2x2 matrix, got 4x4"),
        # DensityMatrix's bare messages before
        ({"labels": ["a", "b"], "matrix": _json_entries(np.eye(4) / 2)},
         "does not hold a state: trace = 2.0, expected 1"),
        ({"labels": ["a", "b"],
          "matrix": _json_entries(np.eye(4) / 4 + np.eye(4, k=1) / 10)},
         "does not hold a state: density matrix is not Hermitian"),
        ({"labels": ["a", "b"],
          "matrix": _json_entries(np.diag([1.5, -0.5, 0.0, 0.0]))},
         "does not hold a state: min eigenvalue -5.000e-01 below -1e-9"),
        ({"labels": ["a", "b"],
          "matrix": _json_entries(np.diag([np.nan, 1.0, 0.0, 0.0]))},
         "does not hold a state: non-finite matrix entry"),
        ({"labels": ["a", "a"], "matrix": _json_entries(np.eye(4) / 4)},
         "does not hold a state: duplicate qubit labels: ('a', 'a')"),
    ])
    def test_bad_matrix_file_rejected(self, tmp_path, capsys, payload,
                                      problem):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(payload))
        code, out = run_cli("tomo", "--state", str(path), "--n", "500",
                            capsys=capsys)
        assert code == 1
        assert out.out == ""
        assert out.err.startswith("entclone: error: matrix JSON")
        assert problem in out.err

    # a file that is not JSON is named ("Expecting value: line 1 column 1
    # (char 0)" for an empty one, a bare UTF-8 codec message for a binary
    # one before)
    @pytest.mark.parametrize("content, problem", [
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        (b"\x7fELF\x02\x01\x01\x00\xd0\xff", "'utf-8' codec can't decode"),
    ], ids=["empty", "binary"])
    def test_matrix_file_not_json_rejected(self, tmp_path, capsys, content,
                                           problem):
        path = tmp_path / "rho.json"
        path.write_bytes(content)
        code, out = run_cli("tomo", "--state", str(path), "--n", "500",
                            capsys=capsys)
        assert code == 1
        assert out.out == ""
        assert out.err.startswith(f"entclone: error: matrix JSON "
                                  f"{str(path)!r} is not valid JSON: ")
        assert problem in out.err
        with pytest.raises(ValueError, match="is not valid JSON"):
            tg.matrix_from_json(path)

    # a bad schmidt angle is named as clone names it, and not taken for a
    # file name ("unknown state 'schmidt:inf' and no such file" before)
    @pytest.mark.parametrize("state, problem", [
        ("schmidt:inf", "schmidt angle must be a finite number of radians, "
                        "got 'inf'"),
        ("schmidt:", "schmidt angle must be a finite number of radians, "
                     "got ''"),
        ("werner", "unknown state 'werner' and no such file"),
    ])
    def test_bad_state_name_rejected(self, capsys, state, problem):
        code, out = run_cli("tomo", "--state", state, "--n", "500",
                            capsys=capsys)
        assert code == 1
        assert out.out == ""
        assert out.err == f"entclone: error: {problem}\n"

    # every state name is stripped by one rule (" sigma" and " mixed" were
    # unknown states while " phi+" ran); the report echoes the name as given
    @pytest.mark.parametrize("state", ["sigma", "mixed", "phi+"])
    def test_state_name_whitespace_stripped(self, capsys, state):
        argv = ("--seed", "4", "tomo", "--n", "500", "--state")
        code, out = run_cli(*argv, state, capsys=capsys)
        assert code == 0
        padded_code, padded = run_cli(*argv, f" {state}\t", capsys=capsys)
        assert padded_code == 0
        report, padded_report = json.loads(out.out), json.loads(padded.out)
        assert padded_report.pop("state") == f" {state}\t"
        assert report.pop("state") == state
        assert padded_report == report

    def test_csv_format_rejected(self, capsys):
        code, _ = run_cli("--format", "csv", "tomo", "--state", "sigma",
                          capsys=capsys)
        assert code != 0

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_report_matches_golden_bytes(self, tmp_path, capsys, threads):
        path = tmp_path / "report.json"
        code, _ = run_cli("--seed", "11", "--format", "json", "--out",
                          str(path), "--threads", threads, "tomo", "--state",
                          "sigma", "--n", "2000", "--resamples", "8",
                          capsys=capsys)
        assert code == 0
        assert path.read_bytes() == GOLDEN_TOMO.read_bytes()

    def test_defaults_to_json(self, capsys):
        argv = ("--seed", "4", "tomo", "--state", "mixed", "--n", "500")
        code, out = run_cli(*argv, capsys=capsys)
        assert code == 0
        _, explicit = run_cli("--format", "json", *argv, capsys=capsys)
        assert out.out == explicit.out
        assert json.loads(out.out)["state"] == "mixed"

    def test_one_reconstruction_per_resample(self, capsys, monkeypatch):
        # the point estimate and the resamples as the rows of one batch:
        # 1 + B reconstructions of 36 settings each
        points, batches = [], []
        real, real_batch = tg.mle_reconstruct, tg._mle_batch

        def counting(records, *args, **kwargs):
            points.append(len(records))
            return real(records, *args, **kwargs)

        def counting_batch(counts, exposures):
            batches.append(np.shape(counts))
            return real_batch(counts, exposures)

        monkeypatch.setattr(tg, "mle_reconstruct", counting)
        monkeypatch.setattr(tg, "_mle_batch", counting_batch)
        code, _ = run_cli("--seed", "3", "--threads", "1", "tomo", "--state",
                          "mixed", "--n", "500", "--resamples", "5",
                          capsys=capsys)
        assert code == 0
        assert points == [36] and batches == [(6, 36)]

    def test_nonconverged_resamples_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(tg, "MAX_ITERATIONS", 1)
        code, out = run_cli("--seed", "3", "--threads", "1", "tomo",
                            "--state", "sigma", "--n", "2000", "--resamples",
                            "4", capsys=capsys)
        assert code == 0
        assert "4 of 4 resample reconstructions did not converge" in out.err
        assert re.search(r"did not converge: the largest certified "
                         r"log-likelihood gap is \S+, above 0\.1\n", out.err)
        assert "monte_carlo" in json.loads(out.out)

    @pytest.mark.parametrize("state, n, resamples", [
        ("sigma", "2000", "8"), ("schmidt:0.4", "30", "5"),
        ("mixed", "500", "2")])
    def test_resamples_leave_the_rest_of_the_report(self, tmp_path, capsys,
                                                    state, n, resamples):
        # the point estimate has the same bits with and without error bars
        paths = {b: tmp_path / f"b{b}.json" for b in ("0", resamples)}
        for b, path in paths.items():
            code, _ = run_cli("--seed", "13", "--out", str(path), "tomo",
                              "--state", state, "--n", n, "--resamples", b,
                              capsys=capsys)
            assert code == 0
        report = json.loads(paths[resamples].read_text())
        assert report.pop("monte_carlo")["resamples"] == int(resamples)
        assert (json.dumps(report, indent=2) + "\n").encode() == \
            paths["0"].read_bytes()

    # counts too large for the last steps to reach the certified gap: the
    # report says so instead of printing a plausible state as converged
    # schmidt:0.4 at seed 100 is a draw of tests/data/frontier_scan.py at
    # 3e10 counts per setting that does not certify; 1e15 is above the
    # counts at which any reconstruction can, and says so first
    @pytest.mark.parametrize("state, n, seed, gap", [
        pytest.param("schmidt:0.4", "3e10", "100", "0.925",
                     id="schmidt:0.4-3e10-0.925"),
        pytest.param("phi+", "1e12", "7", "0.242", id="phi+-1e12-0.242"),
        pytest.param("phi+", "1e15", "7", "8.22", id="phi+-1e15-8.22")])
    def test_unconverged_point_estimate_warned(self, capsys, state, n, seed,
                                               gap):
        code, out = run_cli("--seed", seed, "--format", "json", "tomo",
                            "--state", state, "--n", n, capsys=capsys)
        assert code == 0
        assert json.loads(out.out)["converged"] is False
        limit = (UNCERTIFIABLE_WARNING.format(n=float(n))
                 if float(n) > tg.CERTIFIABLE_MEAN_COUNT else "")
        assert out.err == (limit + "entclone: warning: the reconstruction "
                           "did not converge: its certified log-likelihood "
                           f"gap is {gap}, above 0.1\n")

    # the warning comes before the run, and leaves stdout as it was
    @pytest.mark.parametrize("n", ["1e12", "1e15"])
    def test_uncertifiable_count_warned(self, capsys, monkeypatch, n):
        code, out = run_cli("--seed", "7", "--format", "json", "tomo",
                            "--state", "sigma", "--n", n, capsys=capsys)
        assert code == 0
        warned = out.err.startswith(UNCERTIFIABLE_WARNING.format(n=float(n)))
        assert warned == (n == "1e15")
        assert ("1.25e+13 counts per setting" in out.err) == warned
        # with the limit lifted the run warns of nothing before it, and
        # prints the same report
        monkeypatch.setattr(tg, "CERTIFIABLE_MEAN_COUNT", float("inf"))
        code, alone = run_cli("--seed", "7", "--format", "json", "tomo",
                              "--state", "sigma", "--n", n, capsys=capsys)
        assert alone.out == out.out
        assert "counts per setting" not in alone.err

    def test_resample_without_counts_named(self, capsys):
        # the observed counts reconstruct, but half the resamples of their
        # one count draw none; the error said "all counts are zero"
        code, out = run_cli("--seed", "1", "tomo", "--state", "sigma",
                            "--n", "0.2", capsys=capsys)
        assert code == 0
        assert json.loads(out.out)["reconstruction"]
        code, out = run_cli("--seed", "1", "tomo", "--state", "sigma",
                            "--n", "0.2", "--resamples", "10", capsys=capsys)
        assert code == 1
        assert out.out == ""
        assert out.err == ("entclone: error: degenerate data: 5 of 10 Monte "
                           "Carlo resamples drew no counts, the first "
                           "resample 2 (counting from 0); the observed "
                           "counts total 1\n")

    def test_too_many_resamples_rejected(self, capsys, no_spawn):
        code, out = run_cli("tomo", "--state", "mixed", "--n", "500",
                            "--resamples", "1000000000000", capsys=capsys)
        assert code == 1
        assert out.out == ""
        assert out.err == ("entclone: error: n_resamples must be at most "
                           "100000, got 1000000000000\n")

    def test_largest_mean_count_resampled(self, capsys):
        # its HH count, 1000000000393912576, is above MAX_MEAN_COUNT
        code, _ = run_cli("tomo", "--state", "schmidt:0", "--n", "1e18",
                          "--resamples", "2", capsys=capsys)
        assert code == 0

    def test_zero_resamples_means_no_error_bars(self, capsys):
        code, out = run_cli("tomo", "--state", "mixed", "--n", "500",
                            "--resamples", "0", capsys=capsys)
        assert code == 0
        assert "monte_carlo" not in json.loads(out.out)

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_rejected(self, capsys, threads):
        code, out = run_cli("--threads", threads, "tomo", "--state", "mixed",
                            "--n", "500", "--resamples", "3", capsys=capsys)
        assert code == 1
        assert out.err.startswith("entclone: error: --threads")


def _tomo_counts(state: str, n: float):
    return tg.sample_counts(qmath.named_density(state), n, seed=0)


def _library_checked(argv, call, *values):
    """One case per value: ``argv`` with the value appended, and ``call``,
    the library call that owns the rule, taking the value as given."""
    return [pytest.param(argv + [v], call, id=f"{argv[0]} {argv[-1]} {v}")
            for v in values]


# each bad value that `main` leaves to the library call owning its rule: the
# command line ending in the value, and that call raising for it
LIBRARY_CHECKED = [
    *_library_checked(
        ["tomo", "--state", "mixed", "--n", "500", "--resamples"],
        lambda v: tg.mle_reconstruct(_tomo_counts("mixed", 500), int(v),
                                     seed=0), "1", "-1"),
    *_library_checked(
        ["tomo", "--state", "sigma", "--n"],
        lambda v: _tomo_counts("sigma", float(v)),
        "nan", "inf", "0", "-3", "1e20"),
    *_library_checked(
        ["clone", "--input", "phi+", "--r", "0.5", "--model", "ideal",
         "--overlap-sq"],
        lambda v: cloner.run_ideal(cloner.NetworkConfig(
            cloner.InputSpec.from_name("phi+"), 0.5, 0.5, float(v))), "0.9"),
]


@pytest.mark.parametrize("argv, call", LIBRARY_CHECKED)
def test_library_message_passed_through(capsys, argv, call):
    with pytest.raises(ValueError) as raised:
        call(argv[-1])
    code, out = run_cli(*argv, capsys=capsys)
    assert code == 1
    assert out.out == ""
    assert out.err == f"entclone: error: {raised.value}\n"


class TestHom:
    def test_ideal(self, capsys):
        code, out = run_cli("--format", "json", "hom", "--r",
                            "0.3333333333333333", capsys=capsys)
        assert code == 0
        assert json.loads(out.out)["visibility"] == pytest.approx(0.8, abs=1e-9)

    def test_balanced(self, capsys):
        _, out = run_cli("--format", "json", "hom", "--r", "0.5",
                         capsys=capsys)
        assert json.loads(out.out)["visibility"] == pytest.approx(1.0, abs=1e-9)

    def test_fit(self, capsys):
        code, out = run_cli("--format", "json", "hom", "--r",
                            "0.3333333333333333", "--fit", "0.731",
                            capsys=capsys)
        assert code == 0
        assert json.loads(out.out)["overlap_sq"] == \
            pytest.approx(0.91375, abs=1e-6)

    def test_fit_above_bound_fails(self, capsys):
        code, out = run_cli("hom", "--r", "0.3333333333333333", "--fit",
                            "0.95", capsys=capsys)
        assert code != 0
        assert "error" in out.err

    # every overlap gives visibility 0 at R = 0 or 1; "overlap_sq,0" came out
    @pytest.mark.parametrize("r", ["0", "1"])
    def test_fit_where_no_overlap_shows_fails(self, capsys, r):
        code, out = run_cli("hom", "--r", r, "--fit", "0", capsys=capsys)
        assert code == 1
        assert out.out == ""
        assert out.err == (f"entclone: error: at R = {float(r)} the "
                           "visibility is 0 for every overlap, so none can "
                           "be fitted\n")

    def test_fit_nan_fails(self, capsys):
        code, out = run_cli("hom", "--r", "0.3", "--fit", "nan",
                            capsys=capsys)
        assert code == 1
        assert out.err.startswith("entclone: error:")
        assert out.out == ""

    @pytest.mark.parametrize("flags", [
        ["--fit", "0.5", "--overlap-sq", "nan"],
        ["--overlap-sq", "0.9", "--fit", "0.5"],
    ])
    def test_fit_with_overlap_sq_rejected(self, capsys, flags):
        # --fit infers overlap_sq; a given one would be silently ignored
        with pytest.raises(SystemExit) as exc:
            main(["hom", "--r", "0.3", *flags])
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert "not allowed with argument" in out.err
        assert out.out == ""

    def test_consistency_error_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(cloner, "ideal_hom_visibility", lambda r: 0.5)
        code, out = run_cli("hom", "--r", "0.3", capsys=capsys)
        assert code == 1
        assert "entclone: error: fock visibility" in out.err

    def test_witness_consistency_error_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(metrics, "pauli_correlation", lambda *a: 0.0)
        code, out = run_cli("clone", "--input", "phi+", "--r", "0.5",
                            capsys=capsys)
        assert code == 1
        assert "entclone: error: witness forms disagree" in out.err


class TestPaper:
    def test_default_run_passes(self, capsys):
        code, out = run_cli("--seed", "3", "paper", capsys=capsys)
        assert code == 0
        assert "FAIL" not in out.out
        assert "checks passed" in out.out

    def test_json_format(self, capsys):
        code, out = run_cli("--seed", "3", "--format", "json", "paper",
                            capsys=capsys)
        assert code == 0
        checks = json.loads(out.out)
        assert len(checks) >= 20
        assert all(c["passed"] for c in checks)
        assert all({"name", "computed", "expected", "tolerance"} <= set(c)
                   for c in checks)

    def test_csv_rejected(self, capsys):
        code, out = run_cli("--format", "csv", "paper", capsys=capsys)
        assert code == 1
        assert out.out == ""
        assert out.err.startswith("entclone: error: the paper table")

    def test_margin_is_distance_inside_tolerance(self):
        inside = CheckResult("inside", 0.6, 0.5, 0.15)
        outside = CheckResult("outside", 0.3, 0.5, 0.15)
        assert inside.passed and inside.margin == pytest.approx(0.05)
        assert not outside.passed and outside.margin == pytest.approx(-0.05)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_matches_golden_bytes(self, tmp_path, capsys, fmt):
        path = tmp_path / "paper.out"
        argv = ["--seed", "3", "--out", str(path)]
        if fmt == "json":
            argv += ["--format", "json"]
        code, _ = run_cli(*argv, "paper", capsys=capsys)
        assert code == 0
        assert path.read_bytes() == GOLDEN_PAPER[fmt].read_bytes()


class TestGlobalFlags:
    # `paper` failed inside numpy with a message naming no input, and
    # `sweep`, which draws nothing, accepted the seed
    @pytest.mark.parametrize("command", [
        ["paper"], ["sweep", "--input", "phi+"], ["tomo", "--state", "sigma"],
    ], ids=["paper", "sweep", "tomo"])
    def test_negative_seed_rejected(self, capsys, command):
        code, out = run_cli("--seed", "-1", *command, capsys=capsys)
        assert code == 1
        assert out.out == ""
        assert out.err == ("entclone: error: --seed must be non-negative, "
                           "got -1\n")

    def test_calls_in_one_process_match_separate_processes(self, capsys):
        # one parser serves every call of `main` in a process
        commands = [["--format", "json", "hom", "--r", "0.3"],
                    ["sweep", "--input", "psi-", "--steps", "3"],
                    ["--seed", "2", "tomo", "--state", "mixed", "--n", "500"],
                    ["--format", "csv", "paper"],
                    ["hom", "--r", "0.3", "--fit", "0.731"],
                    ["clone", "--model", "physical", "--input", "psi-",
                     "--r", "0.3", "--overlap-sq", "0.9"]]
        in_process = [run_cli(*argv, capsys=capsys) for argv in commands]
        assert build_parser() is build_parser()
        for argv, (code, out) in zip(commands, in_process):
            alone = _fresh_python("-m", "entclone.cli", *argv)
            assert (code, out.out, out.err) == \
                (alone.returncode, alone.stdout, alone.stderr)

    # the seed came from the ECLONE_SEED environment variable when --seed
    # was absent, and the paper table printed it nowhere
    def test_environment_leaves_the_output(self, capsys, monkeypatch):
        commands = [["paper"], ["--format", "json", "tomo", "--state",
                                "mixed", "--n", "500"]]
        plain = [run_cli(*argv, capsys=capsys) for argv in commands]
        monkeypatch.setenv("ECLONE_SEED", "23")
        for argv, (code, out) in zip(commands, plain):
            assert run_cli(*argv, capsys=capsys) == (code, out)
        assert json.loads(plain[1][1].out)["seed"] == 0

    def test_handler_looked_up_per_call(self, capsys, monkeypatch):
        # a wrapper installed after the first call still runs
        run_cli("hom", "--r", "0.3", capsys=capsys)
        calls = []
        monkeypatch.setattr(cli, "cmd_hom",
                            lambda args: calls.append(args.r) or 0)
        assert run_cli("hom", "--r", "0.3", capsys=capsys)[0] == 0
        assert calls == [0.3]


def _help(command: str, dest: str) -> str:
    """The help text of ``command``'s ``dest`` option."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions if a.dest == dest)
    return action.help


def _help_names(command: str, dest: str) -> list[str]:
    """The entries of the help text of ``command``'s ``dest`` option."""
    return _help(command, dest).split(" | ")


class TestStateNameHelp:
    """The help texts spell the state names for a parser that loads no
    numpy; they must be the names `qmath` reads, no more and no fewer."""

    @pytest.mark.parametrize("command", ["clone", "sweep"])
    def test_input_help_lists_every_input_name(self, command):
        names = _help_names(command, "input")
        plain = [n for n in names if not n.startswith("schmidt:<")]
        assert len(names) == len(plain) + 1
        for name in plain + ["schmidt:0.3"]:
            qmath.InputSpec.from_name(name)
        assert sorted(plain) == sorted(qmath._INPUT_NAMES)

    def test_state_help_lists_every_state_name(self):
        *names, path = _help_names("tomo", "state")
        assert path == "path to matrix JSON"
        plain = [n for n in names if not n.startswith("schmidt:<")]
        assert len(names) == len(plain) + 1
        for name in plain + ["schmidt:0.3"]:
            assert qmath.named_density(name) is not None
        assert sorted(plain) == \
            sorted(qmath._INPUT_NAMES + tuple(qmath._DENSITIES))


# the --resamples help spells its bound for a parser that loads no numpy;
# a bound changed in the code fails here until its help changes too
@pytest.mark.parametrize("command, dest, bound", [
    ("tomo", "resamples", tg.MAX_RESAMPLES), ("sweep", "steps", cli.MAX_STEPS),
], ids=["resamples", "steps"])
def test_help_names_the_bound(command, dest, bound):
    assert max(map(int, re.findall(r"\d+", _help(command, dest)))) == bound


def _fresh_python(*args) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh interpreter importing this entclone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(entclone.__file__).parents[1])
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _modules_loaded(*args) -> set[str]:
    """The modules a fresh ``python ARGS`` imports, read from the report
    of ``-X importtime`` on stderr."""
    proc = _fresh_python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def _numpy_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "numpy"}


class TestImportGraph:
    """A fresh process imports only what its command runs."""

    def test_hom_fit_loads_no_numpy(self):
        # the calibration is one division
        loaded = _modules_loaded("-m", "entclone.cli", "hom", "--r", "0.3",
                                 "--fit", "0.5")
        assert "entclone.hom" in loaded
        assert _numpy_modules(loaded) == set()

    @pytest.mark.parametrize("argv", [
        ["clone", "--model", "physical", "--input", "phi+", "--r", "0.3",
         "--overlap-sq", "0.9"],
        ["sweep", "--input", "psi-", "--steps", "3"],
        ["hom", "--r", "0.3"],
    ], ids=["clone", "sweep", "hom"])
    def test_network_commands_skip_tomography(self, argv):
        loaded = _modules_loaded("-m", "entclone.cli", *argv)
        assert "entclone.cloner" in loaded
        assert not loaded & {"entclone.tomography", "entclone.paperchecks"}

    # a state name is read in qmath: tomo runs no network code
    @pytest.mark.parametrize("state", ["mixed", "sigma", "phi+", "psi+",
                                       "psi-", "schmidt:0.3"])
    def test_tomo_skips_network_code(self, state):
        loaded = _modules_loaded("-m", "entclone.cli", "tomo", "--state",
                                 state, "--n", "500")
        assert "entclone.tomography" in loaded
        assert not loaded & {"entclone.cloner", "entclone.fock"}

    def test_tomo_skips_paperchecks(self):
        loaded = _modules_loaded("-m", "entclone.cli", "tomo", "--state",
                                 "mixed", "--n", "500")
        assert "entclone.tomography" in loaded
        assert "entclone.paperchecks" not in loaded

    def test_fock_loads_no_qmath(self):
        # the read-out is a plain matrix: cloner builds the checked state
        loaded = _modules_loaded("-c", "import entclone.fock")
        assert "entclone.fock" in loaded
        assert "entclone.qmath" not in loaded

    def test_package_import_loads_no_numpy(self):
        loaded = _modules_loaded("-c", "import entclone")
        assert "entclone" in loaded
        assert _numpy_modules(loaded) == set()

    @pytest.mark.parametrize("name", entclone.__all__)
    def test_export_is_home_binding(self, name):
        obj = getattr(entclone, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("entclone.")
        assert getattr(home, name) is obj
        assert name in dir(entclone)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            getattr(entclone, "no_such_name")


def _absolute_imports():
    """``(module file name, imported name)`` for every absolute import in
    the package's modules."""
    for path in Path(entclone.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, name


def test_no_module_imports_a_process_pool():
    # every command runs in one process; a pool would reintroduce workers
    banned = {"concurrent", "multiprocessing"}
    for module, name in _absolute_imports():
        assert name.split(".")[0] not in banned, f"{module} imports {name}"


def test_no_module_imports_beyond_numpy():
    # numpy is the package's one declared dependency; these are installed
    # next to it for the tests, so an import of one would pass here and
    # fail for a user
    banned = {"scipy", "sympy", "mpmath", "hypothesis"}
    for module, name in _absolute_imports():
        assert name.split(".")[0] not in banned, f"{module} imports {name}"


def test_no_module_reads_the_environment():
    # an output depends only on the command line and the files it names;
    # the seed fell back to the ECLONE_SEED environment variable
    reads = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(Path(entclone.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in names if name in reads]
    assert found == []


def test_no_module_reads_a_private_name():
    # an underscore name is its module's own: a rule that two modules share
    # has a public home, as the numeric checks have in `checks`
    found = []
    for path in sorted(Path(entclone.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        # `from .mod import ...` and `from entclone... import ...`
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and (
                       node.level or node.module.split(".")[0] == "entclone")]
        # the names `from . import fock` binds to the package's modules
        siblings = {alias.asname or alias.name for node in imports
                    if node.module in (None, "entclone")
                    for alias in node.names}
        reads = [(node.lineno, alias.name)
                 for node in imports for alias in node.names]
        reads += [(node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in siblings]
        found += [f"{path.name}:{line} {name}" for line, name in reads
                  if name.startswith("_") and not name.endswith("__")]
    assert found == []


def test_every_public_name_is_used_in_the_package():
    # a public name that only tests reach belongs in the tests;
    # `counts_from_csv` waits for the command that will read a counts file
    trees = {path.stem: ast.parse(path.read_text()) for path in
             sorted(Path(entclone.__file__).parent.glob("*.py"))}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [ast.Name(node.name)]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            unused += [f"{module}.{name.id}" for target in targets
                       for name in ast.walk(target)
                       if isinstance(name, ast.Name)
                       and not name.id.startswith("_")
                       and name.id not in loaded]
    assert unused == ["tomography.counts_from_csv"]
