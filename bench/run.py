"""Benchmark of entclone: one seeded workload, timed end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a copy of the repository; it imports entclone from
that copy's ``src`` and reads the metric names and units from its
``BENCHMARK.json``. Workloads are defined in ``workloads.py``; one client
sends requests back to back (a closed loop).

--trace 0  sets up in fresh interpreters (median of several), then sends
           whole blocks of requests for at least S seconds and reports the
           end-to-end metrics, scaled to the reference host speed
           (hostspeed.py; raw values are in the details).
--trace 1  runs a fixed prefix of the request list (whole blocks, about S/2
           seconds of work) untraced, then again with every layer traced,
           and reports the per-layer metrics and the tracing overhead.

Every output is checked after the timed region; a request that raised or
failed its check counts in ``failed``. Progress, provenance and the metrics
that apply only to some workloads go to stdout first; the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``. Results and spans
are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# one BLAS thread: the library workloads are the plain single-threaded
# baseline, and a second BLAS thread on a shared 2-CPU machine adds noise
BLAS_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

SETUP_PROBES = 5
TRACE_PROBES = 3
P90_MIN_REQUESTS = 100
LOAD_HASH_BLOCKS = 4


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def sha256_json(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def git_commit() -> str | None:
    """HEAD of the copy being measured, read without running git (which
    could look outside the copy); None when it is not a git checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, workload, numpy_version: str) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version,
        "platform": platform.platform(), "machine": platform.machine(),
        "git_commit": git_commit(), "src_sha256": src_sha256(),
        "threads": getattr(workload, "threads", 1),
        "blas_threads": BLAS_THREADS,
    }


def probe(name: str, count: int, env: dict) -> list[dict]:
    """Set-up times of ``count`` fresh interpreters, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), name],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def run_requests(blocks, execute, seconds: float | None = None):
    """Send the requests of ``blocks`` back to back, stopping after the
    first whole block that ends ``seconds`` or more after the start, and
    time the host-speed kernel between requests. Returns
    ``[(request, latency_s, speed, output, error)]`` and the elapsed time.
    """
    import hostspeed

    done = []
    start = perf_counter()
    before = hostspeed.kernel_s()
    for block in blocks:
        for req in block:
            t0 = perf_counter()
            try:
                output, error = execute(len(done), req), None
            except Exception as exc:  # a failed request is counted
                output, error = None, f"{type(exc).__name__}: {exc}"
            latency = perf_counter() - t0
            after = hostspeed.kernel_s()
            done.append((req, latency, hostspeed.speed(before, after),
                         output, error))
            before = after
        if seconds is not None and perf_counter() - start >= seconds:
            break
    return done, perf_counter() - start


def check_all(workload, done) -> list[tuple[int, str]]:
    failures = []
    for k, (req, _, _, output, error) in enumerate(done):
        if error is None:
            try:
                error = workload.check(req, output)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failures.append((k, error))
    return failures


def rates(workload, done, failures) -> dict[str, float]:
    """Throughput and latencies, at the reference host speed and raw."""
    failed = {k for k, _ in failures}
    items = sum(workload.items(req) for k, (req, *_) in enumerate(done)
                if k not in failed)
    raw = [lat for _, lat, _, _, _ in done]
    ref = [lat / speed for _, lat, speed, _, _ in done]
    out = {
        "items_per_s": items / sum(ref),
        "request_s_p50": statistics.median(ref),
        "items_per_s_raw": items / sum(raw),
        "request_s_p50_raw": statistics.median(raw),
        "host_speed_median": statistics.median(
            speed for _, _, speed, _, _ in done),
    }
    if len(done) >= P90_MIN_REQUESTS:
        out["request_s_p90"] = statistics.quantiles(
            ref, n=10, method="inclusive")[8]
        out["request_s_p90_raw"] = statistics.quantiles(
            raw, n=10, method="inclusive")[8]
    return out


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_session" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(args, workload, env) -> tuple[dict, dict, list, int]:
    """The --trace 0 run: end-to-end metrics plus details."""
    import workloads

    probes = probe(workload.name, SETUP_PROBES, env)
    workload.warmup()
    done, elapsed = run_requests(
        workloads.blocks(workload, args.seed),
        lambda k, req: workload.execute(req), args.seconds)
    failures = check_all(workload, done)
    timing = rates(workload, done, failures)
    values = {
        "setup_s": statistics.median(p["setup_s"] / p["speed"]
                                     for p in probes),
        "items_per_s": timing["items_per_s"],
        "request_s_p50": timing["request_s_p50"],
        "peak_rss_mb": peak_rss_mb(workload),
    }
    details = {
        "requests": len(done), "run_s": elapsed,
        "fail_frac": len(failures) / len(done), "request_s_p90": None,
        **{k: v for k, v in timing.items() if k not in values},
        "setup_s_raw": statistics.median(p["setup_s"] for p in probes),
        "setup_probes": probes,
        "issued_sha256": sha256_json([req for req, *_ in done]),
    }
    return values, details, failures, len(done)


def trace(args, workload, env) -> tuple[dict, dict, list, int]:
    """The --trace 1 run: per-layer metrics over a fixed request prefix."""
    import tracing
    import workloads

    n_blocks = max(1, round(args.seconds / (2 * workload.block_s)))
    prefix = list(itertools.islice(workloads.blocks(workload, args.seed),
                                   n_blocks))
    reqs = [req for block in prefix for req in block]
    workload.warmup()
    done_plain, _ = run_requests(
        prefix, lambda k, req: workload.execute(req))

    OUT.mkdir(exist_ok=True)
    if workload.name == "cli_session":
        paths = [OUT / f"dump-{os.getpid()}-{k}.json"
                 for k in range(len(reqs))]
        done, _ = run_requests(
            prefix, lambda k, req: workload.execute_traced(req, paths[k], k))
        dumps = [json.loads(p.read_text()) for p in paths]
        for p in paths:
            p.unlink()
        import_s = [d["import_s"] for d in dumps]
        overhead = sum(lat - tracing.main_span_seconds(d)
                       for (_, lat, *_), d in zip(done, dumps))
    else:
        tracer = tracing.Tracer()

        def execute(k, req):
            tracer.rid = k
            return workload.execute(req)

        with tracing.installed(tracer):
            done, _ = run_requests(prefix, execute)
        dumps = [tracer.dump()]
        import_s = [p["import_s"] for p in probe(workload.name, TRACE_PROBES,
                                                 env)]
        overhead = 0.0

    failures = check_all(workload, done_plain + done)
    fail_plain = [(k, e) for k, e in failures if k < len(done_plain)]
    fail_traced = [(k - len(done_plain), e) for k, e in failures
                   if k >= len(done_plain)]
    plain_ips = rates(workload, done_plain, fail_plain)["items_per_s"]
    traced_ips = rates(workload, done, fail_traced)["items_per_s"]
    values = tracing.layer_metrics(dumps, import_s, overhead)
    values["trace.overhead_items_per_s"] = traced_ips - plain_ips
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(dumps))
    details = {
        "requests": len(reqs), "blocks": n_blocks,
        "untraced_items_per_s": plain_ips, "traced_items_per_s": traced_ips,
        "spans": sum(len(d["spans"]) for d in dumps),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "issued_sha256": sha256_json(reqs),
        "note": "inside pool worker processes nothing is traced; their "
                "work shows only as *.pool_wait_s",
    }
    return values, details, failures, len(done_plain) + len(done)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entclone" / "__init__.py").is_file():
        print(f"bench: no entclone package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_THREADS)
    import numpy

    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    env = workloads.subprocess_env()
    prov = provenance(args, workload, numpy.__version__)
    prov["load_sha256"] = sha256_json(list(itertools.islice(
        workloads.blocks(workload, args.seed), LOAD_HASH_BLOCKS)))

    run = trace if args.trace else measure
    values, details, failures, attempted = run(args, workload, env)

    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    result_metrics = {name: {"value": float(values[name]), "unit": unit}
                      for name, unit in units.items()}
    for k, error in failures[:20]:
        print(f"FAILED request {k}: {error}", file=sys.stderr)
    print("provenance " + json.dumps(prov))
    print("details " + json.dumps(details))
    width = max(map(len, result_metrics))
    for name, m in result_metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": result_metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"provenance": prov, "details": details,
                              "failures": failures, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
