"""Config parsing, experiment runner, CSV/SVG emission, exit codes."""

import math
import re
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

from gausshom import experiments
from gausshom.cli import (
    ConfigError,
    main,
    parse_quantity,
    parse_run_config,
    svg_plot,
)
from gausshom.experiments import CSV_COLUMNS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

TINY_POWER_SWEEP = {
    "experiment": "power_sweep",
    "detector": "pnr",
    "output_prefix": "tiny",
    "source": {
        "variant": "gaussian",
        "xi": 0.1,
        "bandwidth": "1e11 rad/s",
    },
    "grid": {"n_bins": 1, "step": "1e10 rad/s"},
    "sweep": {"axis": "xi", "values": [0.1, 0.3]},
}


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_parse_quantity_units():
    assert parse_quantity("0.1 THz", "frequency", "f") == pytest.approx(
        2 * math.pi * 1e11)
    assert parse_quantity("2.5e11 rad/s", "frequency", "f") == pytest.approx(2.5e11)
    assert parse_quantity("29 ps", "time", "t") == pytest.approx(29e-12)
    assert parse_quantity(0, "time", "t") == 0.0


def test_parse_quantity_rejects_bare_and_bad_units():
    with pytest.raises(ConfigError, match="unit suffix"):
        parse_quantity(1.5, "frequency", "f")
    with pytest.raises(ConfigError, match="NUMBER UNIT"):
        parse_quantity("1.5 parsec", "frequency", "f")
    with pytest.raises(ConfigError, match="NUMBER UNIT"):
        parse_quantity("fast", "time", "t")
    with pytest.raises(ConfigError):
        parse_quantity("one THz", "frequency", "f")


def test_unknown_keys_rejected():
    doc = dict(TINY_POWER_SWEEP)
    doc["surprise"] = 1
    with pytest.raises(ConfigError, match="surprise"):
        parse_run_config(doc)
    nested = dict(TINY_POWER_SWEEP)
    nested["source"] = dict(nested["source"], color="blue")
    with pytest.raises(ConfigError, match="source.color"):
        parse_run_config(nested)


def test_missing_required_keys_named():
    with pytest.raises(ConfigError, match="experiment"):
        parse_run_config({"source": {}})
    doc = {k: v for k, v in TINY_POWER_SWEEP.items() if k != "sweep"}
    with pytest.raises(ConfigError, match="sweep"):
        parse_run_config(doc)
    doc = {k: v for k, v in TINY_POWER_SWEEP.items() if k != "source"}
    with pytest.raises(ConfigError, match="source"):
        parse_run_config(doc)


def test_sweep_axis_must_match_experiment():
    doc = dict(TINY_POWER_SWEEP)
    doc["sweep"] = {"axis": "delay", "values": ["1 ps"]}
    with pytest.raises(ConfigError, match="sweeps 'xi'"):
        parse_run_config(doc)


def test_sweep_linspace_form():
    doc = dict(TINY_POWER_SWEEP)
    doc["sweep"] = {"start": 0.1, "stop": 0.5, "count": 5}
    rc = parse_run_config(doc)
    np.testing.assert_allclose(rc.values, np.linspace(0.1, 0.5, 5))


def test_delay_sweep_values_carry_units():
    doc = {
        "experiment": "hom_delay_sweep",
        "source": TINY_POWER_SWEEP["source"],
        "grid": TINY_POWER_SWEEP["grid"],
        "sweep": {"axis": "delay", "values": ["-1 ps", 0, "1 ps"]},
    }
    rc = parse_run_config(doc)
    np.testing.assert_allclose(rc.values, [-1e-12, 0.0, 1e-12])


def test_structured_sources_rejects_source_overrides():
    doc = {"experiment": "structured_sources",
           "source": TINY_POWER_SWEEP["source"],
           "sweep": {"values": ["0 ps"]}}
    with pytest.raises(ConfigError, match="built-in"):
        parse_run_config(doc)


def test_run_writes_csv_svg_and_summary(tmp_path, capsys):
    path = write_config(tmp_path, TINY_POWER_SWEEP)
    out = tmp_path / "artifacts"
    code = main(["--output-dir", str(out), "--threads", "2", "run", path])
    assert code == 0
    csv_text = (out / "tiny.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0] == "param,value,p4,p_bunch,p_herald,eta_herald,v_hom,v_mzi"
    assert len(lines) == 3
    # pure separable sources: unit visibility in every row
    for line in lines[1:]:
        v_hom = float(line.split(",")[6])
        assert v_hom == pytest.approx(1.0, abs=1e-9)
    svg = (out / "tiny.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert "power_sweep" in capsys.readouterr().out


def test_run_is_byte_deterministic(tmp_path):
    path = write_config(tmp_path, TINY_POWER_SWEEP)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["--output-dir", str(out), "run", path]) == 0
        outs.append((out / "tiny.csv").read_bytes())
    assert outs[0] == outs[1]


def test_probe_single_row(tmp_path):
    doc = {
        "experiment": "probe",
        "output_prefix": "one",
        "source": TINY_POWER_SWEEP["source"] | {"xi": 0.2},
        "grid": TINY_POWER_SWEEP["grid"],
    }
    path = write_config(tmp_path, doc)
    assert main(["--output-dir", str(tmp_path), "run", path]) == 0
    lines = (tmp_path / "one.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("probe,")
    assert not (tmp_path / "one.svg").exists()


def test_probe_row_carries_every_metric(tmp_path):
    doc = {
        "experiment": "probe",
        "output_prefix": "one",
        "source": TINY_POWER_SWEEP["source"] | {"xi": 0.2},
        "grid": TINY_POWER_SWEEP["grid"],
    }
    path = write_config(tmp_path, doc)
    assert main(["--output-dir", str(tmp_path), "run", path]) == 0
    header, row = (tmp_path / "one.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["param"] == "probe" and float(cells["value"]) == 0.0
    assert all(cells[name] for name in CSV_COLUMNS[2:])


def test_config_error_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "nope"})
    assert main(["run", path]) == 2
    assert "experiment" in capsys.readouterr().err


@pytest.mark.parametrize("edit, field", [
    ({"grid": {"n_bins": 7.9, "step": "1e10 rad/s"}}, "grid.n_bins"),
    ({"sweep": {"start": 0.1, "stop": 0.3, "count": 2.7}}, "sweep.count"),
    ({"experiment": "filter_study", "n_bins": 7.9, "source": None, "grid": None,
      "sweep": {"values": ["1e11 rad/s"]}}, "n_bins"),
])
def test_non_whole_counts_are_config_errors(tmp_path, capsys, edit, field):
    """Bin and row counts are not truncated: 7.9 bins is an error, not 7."""
    doc = {k: v for k, v in {**TINY_POWER_SWEEP, **edit}.items() if v is not None}
    path = write_config(tmp_path, doc)
    assert main(["--output-dir", str(tmp_path), "run", path]) == 2
    assert f"'{field}': must be a whole number" in capsys.readouterr().err
    whole = dict(TINY_POWER_SWEEP, sweep={"start": 0.1, "stop": 0.3, "count": 3.0})
    assert len(parse_run_config(whole).values) == 3


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("edit, field", [
    (lambda doc, v: doc["source"].update(xi=v), "source.xi"),
    (lambda doc, v: doc.update(bs_angle=v), "bs_angle"),
    (lambda doc, v: doc.update(loss=[0.0, v, 0.0, 0.0]), "loss[1]"),
    (lambda doc, v: doc.update(grid={"n_bins": 1, "span_factor": v}), "grid.span_factor"),
    (lambda doc, v: doc["source"].update(bandwidth=f"{v} rad/s"), "source.bandwidth"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, edit, field, value):
    """NaN and infinities stop at parsing, with exit code 2 and the field name."""
    doc = {**TINY_POWER_SWEEP, "source": dict(TINY_POWER_SWEEP["source"])}
    edit(doc, value)
    path = write_config(tmp_path, doc)
    assert main(["--output-dir", str(tmp_path), "run", path]) == 2
    assert f"'{field}': must be finite" in capsys.readouterr().err


def test_unreadable_config_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.yaml")]) == 2
    capsys.readouterr()
    bad = tmp_path / "broken.yaml"
    bad.write_text("a: [unclosed")
    assert main(["run", str(bad)]) == 2
    assert "invalid YAML" in capsys.readouterr().err


def test_too_coarse_grid_is_config_error(tmp_path, capsys):
    doc = dict(TINY_POWER_SWEEP)
    doc["grid"] = {"n_bins": 5, "step": "1e11 rad/s"}
    path = write_config(tmp_path, doc)
    assert main(["--output-dir", str(tmp_path), "run", path]) == 2
    assert "too coarse" in capsys.readouterr().err


def test_threads_validation(capsys):
    assert main(["--threads", "0", "verify"]) == 2


def test_svg_plot_contents(tmp_path):
    path = tmp_path / "plot.svg"
    svg_plot([0, 1, 2], [0.5, 0.1, 0.4], "delay", "p4", str(path))
    text = path.read_text()
    assert text.startswith("<svg")
    assert "delay" in text and "p4" in text
    assert "polyline" in text


def test_svg_plot_flat_column_at_rounding_level(tmp_path):
    """A column equal to 1 up to its last bits plots as one flat line."""
    x = [0.0, 1.0, 2.0, 3.0]
    texts = []
    for i, y in enumerate(([1.0, 1 + 2.2e-16, 1 - 1.1e-16, 1.0],
                           [1 - 1.1e-16, 1.0, 1 + 2.2e-16, 1 - 1.1e-16])):
        path = tmp_path / f"flat{i}.svg"
        svg_plot(x, y, "xi", "v_hom", str(path))
        texts.append(path.read_text())
    points = re.search(r'<polyline points="([^"]*)"', texts[0]).group(1).split()
    assert len({p.split(",")[1] for p in points}) == 1
    assert texts[0] == texts[1]


def test_verify_reports_all_suites(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out
    # each suite line carries its wall time next to the status
    timed = re.findall(r"^PASS +(\d+\.\d{2}) s  \S", out, flags=re.MULTILINE)
    assert len(timed) == 4


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.yaml")),
                         ids=lambda p: p.name)
def test_shipped_config_runs(config, tmp_path):
    """Every shipped config runs as is: exit code 0 and the fixed CSV header."""
    prefix = yaml.safe_load(config.read_text())["output_prefix"]
    assert main(["--output-dir", str(tmp_path), "run", str(config)]) == 0
    header = (tmp_path / f"{prefix}.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_rows_run_on_the_calling_thread_through_sweep(tmp_path, monkeypatch):
    """``--threads`` is accepted but starts no workers: rows go through ``sweep``."""
    row_threads = []
    sweep_row = experiments.sweep_row

    def recording_row(*args, **kwargs):
        row_threads.append(threading.get_ident())
        return sweep_row(*args, **kwargs)

    monkeypatch.setattr(experiments, "sweep_row", recording_row)
    path = write_config(tmp_path, TINY_POWER_SWEEP)
    assert main(["--output-dir", str(tmp_path), "--threads", "2", "run", path]) == 0
    assert row_threads == [threading.get_ident()] * 2
    rc = parse_run_config(TINY_POWER_SWEEP)
    expected = experiments.sweep(rc.config, rc.axis, rc.values).to_csv()
    assert (tmp_path / "tiny.csv").read_text() == expected


BUILT_IN_FILTER_STUDY = {
    "experiment": "filter_study",
    "xi": 0.1,
    "n_bins": 33,
    "output_prefix": "fs",
    "sweep": {"values": ["1.12e11 rad/s"]},
}


def test_built_in_studies_apply_delay_angle_and_loss(tmp_path):
    """delay, bs_angle and loss reach the circuit of every experiment."""
    edits = {"loss": [0.5] * 4, "delay": "3 ps", "bs_angle": 0.3}
    for doc in (BUILT_IN_FILTER_STUDY,
                {"experiment": "structured_sources", "sweep": {"values": ["0 ps"]}}):
        config = parse_run_config({**doc, **edits}).config
        assert (config.loss, config.delay, config.bs_angle) == ((0.5,) * 4, 3e-12, 0.3)
    p_herald = []
    for sub, loss in (("open", [0.0] * 4), ("lossy", [0.5] * 4)):
        path = write_config(tmp_path, {**BUILT_IN_FILTER_STUDY, "loss": loss}, f"{sub}.yaml")
        assert main(["--output-dir", str(tmp_path / sub), "run", path]) == 0
        rows = (tmp_path / sub / "fs.csv").read_text().splitlines()
        p_herald.append(float(dict(zip(rows[0].split(","), rows[1].split(",")))["p_herald"]))
    assert p_herald[1] < p_herald[0]


@pytest.mark.parametrize("edit, field", [
    ({"loss": [0.5, 0.5, 1.5, 0.5]}, "loss[2]"),
    ({"loss": [0.5, 0.5]}, "loss"),
    ({"delay": "3 parsec"}, "delay"),
    ({"bs_angle": "wide"}, "bs_angle"),
    # the grid spans 8 zeta and build_jsa needs a step of at most zeta / 4
    ({"n_bins": 21}, "n_bins"),
    # the built-in study always filters; a probe gives the unfiltered numbers
    ({"filtered": False}, "filtered"),
])
def test_built_in_circuit_keys_are_validated(edit, field):
    with pytest.raises(ConfigError) as info:
        parse_run_config({**BUILT_IN_FILTER_STUDY, **edit})
    assert info.value.field == field


def test_probe_gives_the_unfiltered_filter_study():
    """The unfiltered reference of the built-in filter study, as a probe."""
    doc = {"experiment": "probe",
           "source": {"variant": "waveguide", "xi": 0.2, "bandwidth": "1e11 rad/s",
                      "walkoff": "29 ps"},
           "grid": {"n_bins": 33, "step": "2.5e10 rad/s"}}
    config = parse_run_config(doc).config
    assert config == experiments.filter_study_config(0.2, filtered=False, n_bins=33)


def test_custom_source_filter_study_needs_a_filter(tmp_path, capsys):
    """Sweeping filter_width over a circuit with no filter is a config error."""
    doc = {"experiment": "filter_study",
           "source": TINY_POWER_SWEEP["source"],
           "grid": TINY_POWER_SWEEP["grid"],
           "sweep": {"values": ["1e10 rad/s", "2e10 rad/s", "3e10 rad/s"]}}
    path = write_config(tmp_path, doc)
    assert main(["--output-dir", str(tmp_path), "run", path]) == 2
    assert "'filter'" in capsys.readouterr().err
