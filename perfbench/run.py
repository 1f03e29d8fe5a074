"""gausshom benchmark: seeded sweep workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pnr_delay_scan --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``pnr_delay_scan``,
``threshold_power_sweep``, ``pnr_filter_cli``.  The package is imported from
``src/`` of the checkout the script sits in; nothing under ``src/`` is
changed.  The loop is closed: one client, the next op starts when the
previous one returns.

``--trace 0`` times ops back to back for ``--seconds`` (an op is started
only while the median op still fits) and reports the end-to-end metrics:
``setup_s`` (median over this process and fresh set-up processes),
``rows_per_s``, ``op_s_p50`` and ``peak_rss_mib``.  ``--trace 1`` runs each
op untraced and then traced on the same inputs (and, for the CLI workload,
untraced at ``--threads 1``) and reports the per-layer metrics from the
spans, which it also writes to ``.perfbench_out/spans-<workload>-seed<n>.jsonl``.
Every op's outputs are checked; an op that raises or fails a check counts
in ``failed``.  ``--smoke`` runs one op on the smallest valid grid.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the metrics as text, ``failed_frac`` (failed / attempted, which is 0
on a correct run and so is not a JSON metric) and the run record (versions,
BLAS threads, seed, op counts, source size).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # set-up time counts the imports below

import argparse
import glob
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOAD_NAMES = ("pnr_delay_scan", "threshold_power_sweep", "pnr_filter_cli")
SETUP_CHILDREN = 4     # fresh processes timed for setup_s, besides this one

END_TO_END_UNITS = {"setup_s": "s", "rows_per_s": "rows/s", "op_s_p50": "s",
                    "peak_rss_mib": "MiB"}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def load_workload(name: str, seed: int, smoke: bool, workdir: str):
    """Import the package from this checkout, generate inputs, warm up."""
    if not os.path.isfile(os.path.join(SRC, "gausshom", "__init__.py")):
        raise SetupError(f"no gausshom package under {SRC}")
    sys.path.insert(0, SRC)
    import gausshom
    import workloads

    if os.path.dirname(os.path.abspath(gausshom.__file__)) != os.path.join(SRC, "gausshom"):
        raise SetupError(f"imported gausshom from {gausshom.__file__}, not {SRC}")
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"][name]
    w = workloads.WORKLOADS[name](seed, smoke, reference, workdir)
    if w.reference is not None and w.inputs() != reference["inputs"]:
        raise SetupError("inputs of the default seed differ from the reference inputs")
    w.warm_up()
    return w


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"set-up process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Ops:
    """Runs and checks ops, keeping timings and failure counts."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.rows_ok = 0

    def run(self, i: int, threads: int | None = None, tracer=None) -> float:
        """One op; returns its wall time in seconds (checks excluded)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.w.run_op(i, threads)
            else:
                tracer.op = i
                result = tracer.span("bench.op", self.w.run_op, i, threads)
            elapsed = time.perf_counter() - t0
            problems = self.w.check(i, result)
        except Exception as exc:   # an op that raises is a failed op, not an abort
            elapsed = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"op {i} failed: {p}", file=sys.stderr)
        else:
            self.rows_ok += result["rows"]
        return elapsed


def timed_run(ops: Ops, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics over ops run back to back; also the op counts."""
    times = []
    start = time.perf_counter()
    i = 0
    while True:
        times.append(ops.run(i))
        i += 1
        if time.perf_counter() - start + statistics.median(times) > seconds:
            break
    return {"rows_per_s": ops.rows_ok / sum(times),
            "op_s_p50": statistics.median(times)}, {"timed": len(times)}


def traced_run(ops: Ops, seconds: float, spans_path: str) -> tuple[dict, dict]:
    """Per-layer metrics from untraced/traced op pairs; also the op counts."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced, serial, rounds = [], [], [], []
    cli_workload = ops.w.name == "pnr_filter_cli"
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        plain.append(ops.run(i))
        tracer.install()
        try:
            traced.append(ops.run(i, tracer=tracer))
        finally:
            tracer.remove()
        if cli_workload:
            serial.append(ops.run(i, threads=1))
        rounds.append(time.perf_counter() - t0)
        i += 1
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    tracer.dump(spans_path)
    metrics = tracing.layer_metrics(tracer.spans, len(traced))
    metrics["cli.pool.speedup"] = sum(serial) / sum(plain) if serial else 0.0
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1
    counts = {"untraced": len(plain), "traced": len(traced)}
    if serial:
        counts["threads_1"] = len(serial)
    return metrics, counts


def src_files() -> list[str]:
    return sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))


def src_lines() -> int:
    """Non-blank lines of the package source."""
    n = 0
    for path in src_files():
        with open(path, encoding="utf-8") as fh:
            n += sum(1 for line in fh if line.strip())
    return n


def src_digest() -> str:
    """Content hash of the package source, for checkouts without git."""
    h = hashlib.sha256()
    for path in src_files():
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.exists(git_dir):
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def blas_info() -> dict:
    """OpenBLAS version and thread count of numpy's BLAS, as the program runs it."""
    import ctypes

    import numpy as np

    info = {"openblas": None, "blas_threads": None}
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                info["blas_threads"] = threads()
                info["openblas"] = config().decode()
                return info
    return info


def run_record(args, counts: dict) -> dict:
    import numpy as np
    import scipy

    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "smoke": args.smoke, "git_sha": git_sha(), "src_sha256": src_digest(),
            "src_lines": src_lines(), "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, **blas_info(), "ops": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one op on the smallest valid grid")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.smoke:
        warnings.filterwarnings("ignore", "frequency grid does not cover")
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        w = load_workload(args.workload, args.seed, args.smoke, workdir)
        setup = [time.perf_counter() - T_START]
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0]}))
            return 0
        ops = Ops(w)
        seconds = 0.0 if args.smoke else args.seconds
        if args.trace:
            spans_path = os.path.join(WORKDIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics, counts = traced_run(ops, seconds, spans_path)
            print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
            metrics["src.lines"] = src_lines()
        else:
            setup += [child_setup_seconds(args)
                      for _ in range(1 if args.smoke else SETUP_CHILDREN)]
            metrics, counts = timed_run(ops, seconds)
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                       / 1024)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass

    import tracing

    units = {**END_TO_END_UNITS, **tracing.UNITS}
    failed_frac = ops.failed / ops.attempted
    for name, value in sorted(metrics.items()):
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(f"{'failed_frac':40s} {failed_frac:.6g} ratio "
          f"({ops.failed} of {ops.attempted} ops)")
    print("run_record " + json.dumps(run_record(args, counts)))
    print(json.dumps({
        "correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
