"""The three benchmark workloads: seeded inputs, one op, and output checks.

Each workload draws its swept values from the seed and hands the package
only the generated inputs.  An op is one call into the program:

* ``pnr_delay_scan``: library ``sweep(cfg, "delay", [tau])`` plus
  ``pnr_distribution`` on a herald arm (the PNR jet expansion).
* ``threshold_power_sweep``: library ``sweep(cfg, "xi", [xi])`` with
  visibilities, threshold detectors and loss (circuit builds and
  inclusion-exclusion; never touches ``series``).
* ``pnr_filter_cli``: in-process ``gausshom.cli.main`` on a generated
  ``filter_study`` YAML (config parsing, thread pool, CSV and SVG output).

Checks return a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import os
import random
import shutil
import tempfile
import warnings

from gausshom import cli, detection, experiments
from gausshom.core import FrequencyGrid
from gausshom.jsa import JsaSpec

DEFAULT_SEED = 0
REL_TOL = 1e-12        # agreement with the recorded reference outputs
INVARIANT_TOL = 1e-9   # identities that hold exactly up to rounding
PROB_TOL = 1e-12       # slack on probability bounds

ZETA = 1e11            # rad/s, source bandwidth
WALKOFF = 29e-12       # s
XI = 0.3
N_INPUTS = 12          # distinct swept values per seed for the library workloads


def waveguide(xi: float = XI) -> JsaSpec:
    return JsaSpec("waveguide", xi, ZETA, walkoff=WALKOFF)


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


def _probability_problems(row: dict, names) -> list[str]:
    out = []
    for name in names:
        v = row[name]
        if v is None or not math.isfinite(v) or not -PROB_TOL <= v <= 1 + PROB_TOL:
            out.append(f"{name} = {v} is not a probability")
    return out


def _reference_problems(values, reference, abs_tol: float) -> list[str]:
    if len(values) != len(reference):
        return [f"{len(values)} outputs, reference has {len(reference)}"]
    return [f"output {k} = {a!r} differs from reference {b!r}"
            for k, (a, b) in enumerate(zip(values, reference))
            if not _close(a, b, REL_TOL, abs_tol)]


@contextlib.contextmanager
def quiet_small_grids():
    """Silence the coverage warning that the small warm-up and smoke grids raise."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "frequency grid does not cover")
        yield


class LibraryWorkload:
    """Common loop over a seeded list of swept values, one row per op."""

    name = ""
    row_columns: tuple = ()
    abs_tol = 0.0   # absolute slack of the reference comparison

    def __init__(self, seed: int, smoke: bool, reference: dict | None,
                 workdir: str | None = None):
        self.seed = seed
        rng = random.Random(seed)
        self.values = [self.draw(rng) for _ in range(1 if smoke else N_INPUTS)]
        self.distinct_ops = len(self.values)
        self.config = self.make_config(self.small_bins if smoke else self.n_bins)
        self.reference = reference if seed == DEFAULT_SEED and not smoke else None
        self.first = None

    def warm_up(self) -> None:
        """One op on a small grid, so lazy caches are filled before timing."""
        with quiet_small_grids():
            type(self)(self.seed, smoke=True, reference=None).run_op(0)

    def inputs(self) -> list[float]:
        return list(self.values)

    def outputs(self, result) -> list[float]:
        return [result["row"][c] for c in self.row_columns]

    def check(self, i: int, result) -> list[str]:
        problems = _probability_problems(result["row"], self.probabilities)
        problems += self.invariant_problems(result)
        if self.first is None:
            self.first = result
        if self.reference is not None:
            ref = self.reference["outputs"][i % self.distinct_ops]
            problems += _reference_problems(self.outputs(result), ref, self.abs_tol)
        return problems


class PnrDelayScan(LibraryWorkload):
    name = "pnr_delay_scan"
    axis = "delay"
    n_bins = 41
    small_bins = 5
    row_columns = ("p4", "p_bunch", "p_herald")
    probabilities = ("p4", "p_bunch", "p_herald")

    @staticmethod
    def draw(rng: random.Random) -> float:
        return rng.uniform(-40e-12, 40e-12)

    @staticmethod
    def make_config(n_bins: int) -> experiments.HhomConfig:
        spec = waveguide()
        grid = FrequencyGrid(spec.signal_center, 2e10, n_bins)
        return experiments.HhomConfig(spec, spec, grid, detector="pnr")

    def run_op(self, i: int, threads: int | None = None):
        tau = self.values[i % len(self.values)]
        result = experiments.sweep(self.config, "delay", [tau], visibilities=False)
        state = experiments.build_hhom(dataclasses.replace(self.config, delay=tau))
        dist = detection.pnr_distribution(state, 0, 6)
        return {"rows": 1, "row": result.rows[0], "dist": [float(p) for p in dist]}

    def outputs(self, result) -> list[float]:
        return super().outputs(result) + result["dist"]

    def invariant_problems(self, result) -> list[str]:
        row, dist = result["row"], result["dist"]
        out = []
        if not _close(row["p_herald"], row["p4"] + row["p_bunch"], INVARIANT_TOL):
            out.append(f"p_herald {row['p_herald']} != p4 + p_bunch "
                       f"{row['p4'] + row['p_bunch']}")
        if self.first is not None and not _close(
                row["p_herald"], self.first["row"]["p_herald"], INVARIANT_TOL):
            out.append(f"p_herald {row['p_herald']} depends on the delay "
                       f"(first op: {self.first['row']['p_herald']})")
        if any(not math.isfinite(p) or not 0 <= p <= 1 for p in dist):
            out.append(f"pnr_distribution {dist} has a value outside [0, 1]")
        if sum(dist) > 1 + PROB_TOL:
            out.append(f"pnr_distribution sums to {sum(dist)} > 1")
        return out


class ThresholdPowerSweep(LibraryWorkload):
    name = "threshold_power_sweep"
    axis = "xi"
    n_bins = 61
    small_bins = 5
    row_columns = ("p4", "p_bunch", "p_herald", "eta_herald", "v_hom", "v_mzi")
    probabilities = ("p4", "p_bunch", "p_herald", "eta_herald")
    # Inclusion-exclusion cancels 16 vacuum probabilities of order 1, so
    # these outputs repeat to ~1e-15 absolute, not relative: p4 differs by
    # 2e-12 relative between one and two BLAS threads.
    abs_tol = 1e-12

    @staticmethod
    def draw(rng: random.Random) -> float:
        return rng.uniform(0.1, 1.0)

    @staticmethod
    def make_config(n_bins: int) -> experiments.HhomConfig:
        spec = waveguide()
        grid = FrequencyGrid(spec.signal_center, 8e11 / 60, n_bins)
        return experiments.HhomConfig(spec, spec, grid, loss=(0.1,) * 4,
                                      detector="threshold")

    def run_op(self, i: int, threads: int | None = None):
        xi = self.values[i % len(self.values)]
        result = experiments.sweep(self.config, "xi", [xi], visibilities=True)
        return {"rows": 1, "row": result.rows[0]}

    def invariant_problems(self, result) -> list[str]:
        row = result["row"]
        return [f"|{name}| = {row[name]} exceeds 1" for name in ("v_hom", "v_mzi")
                if not math.isfinite(row[name]) or abs(row[name]) > 1 + PROB_TOL]


FILTER_YAML = """\
experiment: filter_study
detector: pnr
xi: {xi!r}
n_bins: {n_bins}
output_prefix: {prefix}
sweep:
  axis: filter_width
  values: [{values}]
"""

# A tiny custom-source filter study: exercises parsing, the pool and the
# output path on a 5-bin grid during warm-up.
WARM_UP_YAML = """\
experiment: filter_study
detector: pnr
output_prefix: warm_up
source: {{variant: waveguide, xi: {xi!r}, bandwidth: "{zeta!r} rad/s", walkoff: "29 ps"}}
grid: {{n_bins: 5, step: "2e10 rad/s"}}
filter: {{half_width: "1e11 rad/s", modes: [0, 1, 2, 3]}}
sweep:
  values: ["0.5e11 rad/s", "1e11 rad/s"]
"""


class PnrFilterCli:
    """The CLI on a generated filter-study config, one full run per op.

    Every op runs the same config, so any two ops of a run must write
    byte-identical CSV.
    """

    name = "pnr_filter_cli"
    n_widths = 2
    n_bins = 33   # smallest grid the built-in filter study accepts
    prefix = "filter"
    distinct_ops = 1

    def __init__(self, seed: int, smoke: bool, reference: dict | None, workdir: str):
        self.seed = seed
        rng = random.Random(seed)
        self.widths = [rng.uniform(0.8e11, 4e11)
                       for _ in range(1 if smoke else self.n_widths)]
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "filter_study.yaml")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(FILTER_YAML.format(
                xi=XI, n_bins=self.n_bins, prefix=self.prefix,
                values=", ".join(f'"{w!r} rad/s"' for w in self.widths)))
        self.threads = os.cpu_count() or 1
        self.reference = reference if seed == DEFAULT_SEED and not smoke else None
        self.first_csv = None

    def inputs(self) -> list[float]:
        return list(self.widths)

    def _run(self, config_path: str, prefix: str, threads: int) -> dict:
        out_dir = tempfile.mkdtemp(prefix="cli-", dir=self.workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--threads", str(threads), "--output-dir", out_dir,
                                 "run", config_path])
            base = os.path.join(out_dir, prefix)
            csv_text = None
            if os.path.exists(base + ".csv"):
                with open(base + ".csv", encoding="ascii") as fh:
                    csv_text = fh.read()
            svg_bytes = (os.path.getsize(base + ".svg")
                         if os.path.exists(base + ".svg") else 0)
        finally:
            shutil.rmtree(out_dir)
        return {"code": code, "csv": csv_text, "svg_bytes": svg_bytes}

    def warm_up(self) -> None:
        path = os.path.join(self.workdir, "warm_up.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(WARM_UP_YAML.format(xi=XI, zeta=ZETA))
        with quiet_small_grids():
            result = self._run(path, "warm_up", self.threads)
        if result["code"] != 0:
            raise RuntimeError(f"warm-up CLI run exited with {result['code']}")

    def run_op(self, i: int, threads: int | None = None):
        result = self._run(self.config_path, self.prefix, threads or self.threads)
        result["rows"] = len(self.widths)
        return result

    def outputs(self, result) -> list[float]:
        rows = list(csv.DictReader(io.StringIO(result["csv"])))
        return [float(r[c]) for r in rows for c in experiments.CSV_COLUMNS[1:]]

    def check(self, i: int, result) -> list[str]:
        if result["code"] != 0:
            return [f"CLI exited with code {result['code']}"]
        if result["csv"] is None:
            return ["CLI wrote no CSV"]
        problems = []
        lines = result["csv"].splitlines()
        if tuple(lines[0].split(",")) != experiments.CSV_COLUMNS:
            problems.append(f"CSV header {lines[0]!r} is not CSV_COLUMNS")
        rows = list(csv.DictReader(io.StringIO(result["csv"])))
        if len(rows) != len(self.widths):
            problems.append(f"CSV has {len(rows)} rows, expected {len(self.widths)}")
        if result["svg_bytes"] == 0:
            problems.append("CLI wrote no SVG plot")
        for row in rows:
            values = {c: float(row[c]) for c in experiments.CSV_COLUMNS[2:]}
            problems += _probability_problems(
                values, ("p4", "p_bunch", "p_herald", "eta_herald"))
            problems += [f"|{c}| = {values[c]} exceeds 1" for c in ("v_hom", "v_mzi")
                         if not math.isfinite(values[c]) or abs(values[c]) > 1 + PROB_TOL]
        if self.first_csv is None:
            self.first_csv = result["csv"]
        elif result["csv"] != self.first_csv:
            problems.append("CSV differs from the first op on identical inputs")
        if self.reference is not None and not problems:
            problems += _reference_problems(self.outputs(result),
                                            self.reference["outputs"][0], 0.0)
        return problems


WORKLOADS = {w.name: w for w in (PnrDelayScan, ThresholdPowerSweep, PnrFilterCli)}
