"""Command-line runner: configuration ingestion, sweeps, CSV and SVG output.

Configs are YAML files in which every dimensioned quantity carries an
explicit unit suffix ("0.1 THz", "29 ps", "1.2e11 rad/s"); dimensionless
quantities (squeezing, angles in radians, loss fractions) are plain
numbers.  Unknown keys are rejected before any computation.  A run
evaluates its sweep rows one at a time through ``experiments.sweep``.

Exit codes: 0 success, 2 configuration error, 3 numerical or
unphysical-state error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np
import yaml

from . import experiments
from .core import FrequencyGrid, ModeLayout, Transform, vacuum_state, apply
from .detection import DetectionPattern, UnphysicalStateError, p_pnr, probability
from .elements import beam_splitter, delay as delay_element, loss as loss_element, squeezer
from .experiments import (
    HhomConfig,
    N_SPATIAL,
    filter_study_config,
    structured_source_config,
)
from .jsa import JsaSpec, build_jsa, default_grid

EXPERIMENTS = ("hom_delay_sweep", "mzi_angle_sweep", "power_sweep",
               "loss_sweep", "filter_study", "structured_sources", "probe")

AXIS_OF_EXPERIMENT = {
    "hom_delay_sweep": "delay",
    "mzi_angle_sweep": "bs_angle",
    "power_sweep": "xi",
    "loss_sweep": "loss",
    "filter_study": "filter_width",
    "structured_sources": "delay",
}

PRIMARY_METRIC = {
    "hom_delay_sweep": "p4",
    "mzi_angle_sweep": "p4",
    "power_sweep": "v_hom",
    "loss_sweep": "v_hom",
    "filter_study": "v_hom",
    "structured_sources": "p4",
}

FREQUENCY_UNITS = {"rad/s": 1.0, "THz": 2 * math.pi * 1e12,
                   "GHz": 2 * math.pi * 1e9}
TIME_UNITS = {"s": 1.0, "ps": 1e-12, "ns": 1e-9, "fs": 1e-15}


class ConfigError(ValueError):
    """A configuration problem, carrying the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


def parse_quantity(value, kind: str, field: str) -> float:
    """A number with a unit suffix, converted to rad/s or seconds."""
    units = FREQUENCY_UNITS if kind == "frequency" else TIME_UNITS
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if value == 0:
            return 0.0
        raise ConfigError(field, f"dimensioned quantity needs a unit suffix "
                                 f"({', '.join(units)}), got bare {value!r}")
    if not isinstance(value, str):
        raise ConfigError(field, f"expected 'NUMBER UNIT' string, got {value!r}")
    parts = value.rsplit(None, 1)
    if len(parts) != 2 or parts[1] not in units:
        raise ConfigError(field, f"expected 'NUMBER UNIT' with unit in "
                                 f"{sorted(units)}, got {value!r}")
    try:
        magnitude = float(parts[0])
    except ValueError:
        raise ConfigError(field, f"cannot parse number in {value!r}") from None
    return _number(magnitude * units[parts[1]], field)


def _require_mapping(node, field: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(field, f"expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed, field: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigError(f"{field}.{unknown[0]}" if field else unknown[0],
                          "unknown key")


def _number(node, field: str, lo=None, hi=None) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(field, f"expected a number, got {node!r}")
    v = float(node)
    if not math.isfinite(v):
        raise ConfigError(field, f"must be finite, got {v}")
    if lo is not None and v < lo:
        raise ConfigError(field, f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(field, f"must be <= {hi}, got {v}")
    return v


def _whole(node, field: str, lo=None) -> int:
    v = _number(node, field)
    if not v.is_integer():
        raise ConfigError(field, f"must be a whole number, got {v}")
    return int(_number(node, field, lo=lo))


SOURCE_KEYS = ("variant", "xi", "bandwidth", "signal_center", "idler_center",
               "walkoff", "lobe_separation", "relative_sign")


def parse_source(node, field: str) -> JsaSpec:
    node = _require_mapping(node, field)
    _check_keys(node, SOURCE_KEYS, field)
    for key in ("variant", "xi", "bandwidth"):
        if key not in node:
            raise ConfigError(f"{field}.{key}", "required key missing")
    kwargs = dict(
        variant=node["variant"],
        xi=_number(node["xi"], f"{field}.xi", lo=0.0),
        zeta=parse_quantity(node["bandwidth"], "frequency", f"{field}.bandwidth"),
    )
    if "signal_center" in node:
        kwargs["signal_center"] = parse_quantity(node["signal_center"],
                                                 "frequency", f"{field}.signal_center")
    if "idler_center" in node:
        kwargs["idler_center"] = parse_quantity(node["idler_center"],
                                                "frequency", f"{field}.idler_center")
    if "walkoff" in node:
        kwargs["walkoff"] = parse_quantity(node["walkoff"], "time", f"{field}.walkoff")
    if "lobe_separation" in node:
        kwargs["lobe_separation"] = parse_quantity(node["lobe_separation"],
                                                   "frequency", f"{field}.lobe_separation")
    if "relative_sign" in node:
        sign = node["relative_sign"]
        if sign not in (1, -1):
            raise ConfigError(f"{field}.relative_sign", f"must be 1 or -1, got {sign!r}")
        kwargs["relative_sign"] = sign
    try:
        return JsaSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from None


GRID_KEYS = ("n_bins", "step", "span_factor")


def parse_grid(node, source: JsaSpec, field: str) -> FrequencyGrid:
    if node is None:
        return default_grid(source)
    node = _require_mapping(node, field)
    _check_keys(node, GRID_KEYS, field)
    n_bins = _whole(node.get("n_bins", 41), f"{field}.n_bins", lo=1)
    if "step" in node:
        if "span_factor" in node:
            raise ConfigError(f"{field}.span_factor", "give step or span_factor, not both")
        step = parse_quantity(node["step"], "frequency", f"{field}.step")
        if step <= 0:
            raise ConfigError(f"{field}.step", "must be positive")
        return FrequencyGrid(source.signal_center, step, n_bins)
    span = _number(node.get("span_factor", 4.0), f"{field}.span_factor", lo=0.1)
    return default_grid(source, n_bins=n_bins, span_factor=span)


FILTER_KEYS = ("center", "half_width", "modes")


def parse_filter(node, source: JsaSpec, field: str) -> dict:
    node = _require_mapping(node, field)
    _check_keys(node, FILTER_KEYS, field)
    if "half_width" not in node or "modes" not in node:
        raise ConfigError(field, "filter needs half_width and modes")
    center = (parse_quantity(node["center"], "frequency", f"{field}.center")
              if "center" in node else source.signal_center)
    half_width = parse_quantity(node["half_width"], "frequency", f"{field}.half_width")
    modes = node["modes"]
    if (not isinstance(modes, list) or not modes
            or any(not isinstance(m, int) or isinstance(m, bool) for m in modes)):
        raise ConfigError(f"{field}.modes", f"expected a list of spatial modes, got {modes!r}")
    return dict(filter_center=center, filter_half_width=half_width,
                filter_modes=tuple(modes))


SWEEP_KEYS = ("axis", "values", "start", "stop", "count")


def parse_sweep(node, experiment: str, field: str) -> tuple[str, list[float]]:
    axis = AXIS_OF_EXPERIMENT[experiment]
    kind = "time" if axis == "delay" else None
    node = _require_mapping(node, field)
    _check_keys(node, SWEEP_KEYS, field)
    if "axis" in node and node["axis"] != axis:
        raise ConfigError(f"{field}.axis",
                          f"experiment {experiment} sweeps '{axis}', got {node['axis']!r}")

    def one(v, f):
        if kind == "time":
            return parse_quantity(v, "time", f)
        if axis == "filter_width":
            return parse_quantity(v, "frequency", f)
        return _number(v, f)

    if "values" in node:
        if any(k in node for k in ("start", "stop", "count")):
            raise ConfigError(field, "give either values or start/stop/count")
        raw = node["values"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{field}.values", "expected a non-empty list")
        return axis, [one(v, f"{field}.values[{i}]") for i, v in enumerate(raw)]
    for key in ("start", "stop", "count"):
        if key not in node:
            raise ConfigError(f"{field}.{key}", "required key missing")
    count = _whole(node["count"], f"{field}.count", lo=2)
    lo = one(node["start"], f"{field}.start")
    hi = one(node["stop"], f"{field}.stop")
    return axis, list(np.linspace(lo, hi, count))


TOP_KEYS = ("experiment", "detector", "output_prefix", "plot", "source",
            "source_a", "source_b", "grid", "delay", "bs_angle", "loss",
            "filter", "sweep", "n_bins", "xi")


@dataclass(frozen=True)
class RunConfig:
    """A validated run: the circuit, the swept axis, and output naming."""

    experiment: str
    config: HhomConfig
    axis: str | None
    values: tuple
    output_prefix: str
    plot: bool


def parse_run_config(doc) -> RunConfig:
    doc = _require_mapping(doc, "")
    _check_keys(doc, TOP_KEYS, "")
    experiment = doc.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError("experiment", f"must be one of {EXPERIMENTS}, got {experiment!r}")
    detector = doc.get("detector", "pnr")
    if detector not in ("pnr", "threshold"):
        raise ConfigError("detector", f"must be 'pnr' or 'threshold', got {detector!r}")
    prefix = doc.get("output_prefix", experiment)
    if not isinstance(prefix, str) or not prefix:
        raise ConfigError("output_prefix", f"expected a non-empty string, got {prefix!r}")
    plot = doc.get("plot", True)
    if not isinstance(plot, bool):
        raise ConfigError("plot", f"expected true/false, got {plot!r}")

    if experiment == "structured_sources":
        for key in ("source", "source_a", "source_b", "grid", "filter", "xi"):
            if key in doc:
                raise ConfigError(key, "structured_sources uses its built-in "
                                       "sources, grid and filter")
        n_bins = _whole(doc.get("n_bins", experiments.STRUCTURED_N_BINS), "n_bins", lo=3)
        config = structured_source_config(detector=detector, n_bins=n_bins)
    elif experiment == "filter_study" and "source" not in doc:
        for key in ("source_a", "source_b", "grid", "filter"):
            if key in doc:
                raise ConfigError(key, "the built-in filter study sets this itself")
        n_bins = _whole(doc.get("n_bins", experiments.FILTER_STUDY_N_BINS), "n_bins",
                        lo=experiments.FILTER_STUDY_MIN_BINS)
        xi = _number(doc.get("xi", 0.1), "xi", lo=0.0)
        config = filter_study_config(xi, detector=detector, n_bins=n_bins)
    else:
        for key in ("xi", "n_bins"):
            if key in doc:
                raise ConfigError(key, "only valid for the built-in filter study")
        if "source" in doc:
            if "source_a" in doc or "source_b" in doc:
                raise ConfigError("source", "give source or source_a/source_b, not both")
            source_a = source_b = parse_source(doc["source"], "source")
        elif "source_a" in doc and "source_b" in doc:
            source_a = parse_source(doc["source_a"], "source_a")
            source_b = parse_source(doc["source_b"], "source_b")
        else:
            raise ConfigError("source", "required key missing")
        grid = parse_grid(doc.get("grid"), source_a, "grid")
        kwargs = dict(detector=detector)
        if "filter" in doc:
            kwargs.update(parse_filter(doc["filter"], source_a, "filter"))
        elif experiment == "filter_study":
            raise ConfigError("filter", "a filter study with its own source "
                                        "needs a filter to sweep")
        try:
            config = HhomConfig(source_a, source_b, grid, **kwargs)
        except ValueError as exc:
            raise ConfigError("", str(exc)) from None

    circuit = {}
    if "delay" in doc:
        circuit["delay"] = parse_quantity(doc["delay"], "time", "delay")
    if "bs_angle" in doc:
        circuit["bs_angle"] = _number(doc["bs_angle"], "bs_angle")
    if "loss" in doc:
        raw = doc["loss"]
        if not isinstance(raw, list) or len(raw) != N_SPATIAL:
            raise ConfigError("loss", f"expected {N_SPATIAL} values, got {raw!r}")
        circuit["loss"] = tuple(_number(v, f"loss[{i}]", lo=0.0, hi=1.0)
                                for i, v in enumerate(raw))
    config = replace(config, **circuit)

    if experiment == "probe":
        if "sweep" in doc:
            raise ConfigError("sweep", "probe evaluates a single point; no sweep")
        return RunConfig(experiment, config, experiments.PROBE_AXIS, (0.0,), prefix, plot)
    if "sweep" not in doc:
        raise ConfigError("sweep", "required key missing")
    axis, values = parse_sweep(doc["sweep"], experiment, "sweep")
    if experiment == "filter_study" and "source" not in doc:
        if any(v <= 0 for v in values):
            raise ConfigError("sweep.values", "filter widths must be positive")
    return RunConfig(experiment, config, axis, tuple(values), prefix, plot)


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read {path}: {exc.strerror}") from None
    except yaml.YAMLError as exc:
        raise ConfigError("", f"invalid YAML in {path}: {exc}") from None
    return parse_run_config(doc)


def svg_plot(x, y, xlabel: str, ylabel: str, path: str) -> None:
    """Self-contained 640 x 420 SVG polyline plot with axis labels and range ticks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y)
    x, y = x[keep], y[keep]
    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 20, 50
    pw, ph = width - ml - mr, height - mt - mb

    def scale(v, lo, hi, extent):
        # a range at rounding level is drawn flat, like a constant column
        if hi - lo <= 1e-12 * max(abs(lo), abs(hi)):
            return np.full_like(v, extent / 2)
        return (v - lo) / (hi - lo) * extent

    if x.size:
        x0, x1 = float(np.min(x)), float(np.max(x))
        y0, y1 = float(np.min(y)), float(np.max(y))
        px = ml + scale(x, x0, x1, pw)
        py = mt + ph - scale(y, y0, y1, ph)
        points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    else:
        x0 = x1 = y0 = y1 = 0.0
        points = ""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>',
        f'<text x="{ml + pw / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{xlabel}</text>',
        f'<text x="16" y="{mt + ph / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 16 {mt + ph / 2:.0f})">{ylabel}</text>',
        f'<text x="{ml}" y="{mt + ph + 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{x0:.4g}</text>',
        f'<text x="{ml + pw}" y="{mt + ph + 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{x1:.4g}</text>',
        f'<text x="{ml - 6}" y="{mt + ph}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y0:.4g}</text>',
        f'<text x="{ml - 6}" y="{mt + 10}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y1:.4g}</text>',
        "</svg>",
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")


def run_command(config_path: str, output_dir: str) -> int:
    rc = load_run_config(config_path)
    result = experiments.sweep(rc.config, rc.axis, rc.values)
    os.makedirs(output_dir, exist_ok=True)
    prefix = os.path.join(output_dir, rc.output_prefix)
    result.to_csv(prefix + ".csv")
    metric = PRIMARY_METRIC.get(rc.experiment, "p4")
    if rc.plot and rc.experiment != "probe":
        svg_plot(result.column("value"), result.column(metric),
                 rc.axis, metric, prefix + ".svg")
    last = result.rows[-1]
    shown = metric if last[metric] is not None else "p4"
    print(f"{rc.experiment}: {shown} = {last[shown]:.6g} "
          f"at {last['param']} = {last['value']:.6g}; wrote {prefix}.csv")
    return 0


# ---------------------------------------------------------------------------
# verification suite


def _oracle_gap(f: np.ndarray, element: Transform, patterns) -> float:
    """Largest |Gaussian - Fock| probability over ``patterns`` for the source
    ``f`` on arms (0, 1) followed by one element.

    The Fock side evolves passively through a symplectic element and by
    dilation through a passive (contractive) one.
    """
    from .fock import apply_contractive_fock, apply_passive_fock, fock_detection, fock_from_jsa

    layout = element.layout
    state = apply(apply(vacuum_state(layout), squeezer(f, 0, 1, layout)), element)
    fock = fock_from_jsa(f, 0, 1, layout, cutoff=8)
    if element.kind == "symplectic":
        n = layout.n_modes
        fock = apply_passive_fock(fock, element.matrix[:n, :n])
    else:
        fock = apply_contractive_fock(fock, element.matrix)
    return max(abs(probability(state, p) - fock_detection(fock, p)) for p in patterns)


def _verify_oracle() -> tuple[bool, str]:
    f = 0.3 * np.array([[0.8, 0.2], [0.15, 0.55]], dtype=complex)
    f *= 0.3 / np.linalg.norm(f)
    patterns = [DetectionPattern((0, 1), c)
                for c in ((0, 0), (1, 1), (2, 0), (1, 2), ("on", "off"))]
    worst = _oracle_gap(f, beam_splitter(0.6, (0, 1), ModeLayout(2, 2)), patterns)
    return worst < 1e-6, f"max |gaussian - fock| = {worst:.2e}"


def _verify_invariants() -> tuple[bool, str]:
    """The real blocks and V that the pipeline runs on: S J S^T = J, det V = 1."""
    layout = ModeLayout(2, 3)
    grid = FrequencyGrid(0.0, 1.0, 3)
    worst = 0.0
    import warnings
    spec = JsaSpec("gaussian", 0.3, 4.0, signal_center=0.0, idler_center=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        j = build_jsa(spec, grid)
    for tr in (squeezer(j, 0, 1, layout), beam_splitter(0.7, (0, 1), layout),
               delay_element(0.4, 0, grid, layout)):
        s = tr.block
        form = ModeLayout(len(tr.modes), layout.n_spectral).symplectic_form()
        worst = max(worst, float(np.max(np.abs(s @ form @ s.T - form))))
    state = vacuum_state(layout)
    state = apply(state, squeezer(j, 0, 1, layout))
    det = np.linalg.det(state.v)
    worst_det = abs(det - 1)
    total = sum(p_pnr(state, (0, 1), (a, b))
                for a in range(7) for b in range(7))
    worst_sum = abs(total - 1)
    ok = worst < 1e-12 and worst_det < 1e-8 and worst_sum < 1e-6
    return ok, (f"symplectic {worst:.1e}, det V {worst_det:.1e}, "
                f"pattern sum {worst_sum:.1e}")


def _verify_lossy_oracle() -> tuple[bool, str]:
    patterns = [DetectionPattern((0, 1), c) for c in ((0, 0), (1, 1), (1, 0), (2, 2))]
    worst = _oracle_gap(np.array([[0.35]], dtype=complex),
                        loss_element(0.3, [1], ModeLayout(2, 1)), patterns)
    return worst < 1e-6, f"max |gaussian - fock| with loss = {worst:.2e}"


def _verify_csv_determinism() -> tuple[bool, str]:
    spec = JsaSpec("gaussian", 0.2, 2 * math.pi * 1e11)
    grid = default_grid(spec, n_bins=33)
    config = HhomConfig(spec, spec, grid)
    delays = [0.0, 2e-12]
    threshold = HhomConfig(spec, spec, grid, detector="threshold")
    texts = []
    for _ in range(2):
        texts.append(experiments.sweep(config, "xi", [0.1, 0.2], visibilities=False).to_csv()
                     + experiments.sweep(threshold, "delay", delays).to_csv())
    # the delay sweep shares one Schmidt decomposition between its rows;
    # one-row sweeps make their own, and the rows must not differ by a bit
    singles = [experiments.sweep(threshold, "delay", [d]).to_csv().splitlines(keepends=True)
               for d in delays]
    ok = (texts[0] == texts[1]
          and texts[0].endswith(singles[0][0] + "".join(lines[1] for lines in singles)))
    return ok, ("byte-identical CSV" if ok else
                "CSV output differs between runs or from one-row sweeps")


VERIFY_SUITES = (
    ("oracle equivalence (pure circuit)", _verify_oracle),
    ("oracle equivalence (lossy circuit)", _verify_lossy_oracle),
    ("element and state invariants", _verify_invariants),
    ("CSV determinism", _verify_csv_determinism),
)


def verify_command() -> int:
    failures = 0
    for name, fn in VERIFY_SUITES:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash in a suite is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{status}  {elapsed:7.2f} s  {name:40s} {detail}")
    print(f"{len(VERIFY_SUITES) - failures}/{len(VERIFY_SUITES)} suites passed")
    return 0 if failures == 0 else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gausshom",
        description="Heralded Hong-Ou-Mandel sweeps over Gaussian states")
    parser.add_argument("--threads", type=int, default=1,
                        help="has no effect: sweep rows run one at a time "
                             "(must be at least 1)")
    parser.add_argument("--output-dir", default=".",
                        help="directory for CSV/SVG artifacts")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", help="YAML config file")
    sub.add_parser("verify", help="run the built-in verification suites")
    args = parser.parse_args(argv)

    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 2
    try:
        if args.command == "verify":
            return verify_command()
        return run_command(args.config, args.output_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnphysicalStateError, np.linalg.LinAlgError, ZeroDivisionError,
            FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # domain validation raised after parsing (e.g. grid too coarse)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
