import json
import math
import time
from dataclasses import replace

import pytest
from click.testing import CliRunner

from susywell import analysis
from susywell.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_spectrum_csv(runner):
    result = runner.invoke(main, ["spectrum", "--B", "7", "--p", "0.5", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == "n,E"
    assert len(lines) == 9
    assert lines[-1] == "7,238"


def test_spectrum_json(runner):
    result = runner.invoke(main, ["spectrum", "--B", "7", "--p", "0.5", "--format", "json"])
    assert result.exit_code == 0
    d = json.loads(result.output)
    assert d["n_max"] == 7
    assert d["asymptote"] == 240.25
    assert d["asymptote_exact"] == "961/4"
    assert d["A_exact"] == "45/2"
    assert d["levels"][0] == {"n": 0, "E": 0.0, "E_exact": "0"}
    assert [lv["E"] for lv in d["levels"]] == [0, 58, 108, 150, 184, 210, 228, 238]


def test_spectrum_rejects_bad_parameters(runner):
    result = runner.invoke(main, ["spectrum", "--B", "1", "--p", "2"])
    assert result.exit_code == 2
    assert "0 < p < B" in result.output


@pytest.mark.parametrize("command", ["spectrum", "minimum"])
@pytest.mark.parametrize(
    "couplings, message",
    [(["--B", "1e309", "--p", "1e308"], "B overflows float64"),
     (["--B", "7", "--p", "1e-400"], "p underflows float64 to 0")],
)
def test_couplings_outside_float64_are_parameter_errors(runner, command, couplings, message):
    result = runner.invoke(main, [command, *couplings])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip().splitlines() == [f"invalid parameters: {message}"]


@pytest.mark.parametrize(
    "args, message",
    [(["spectrum", "--B", "1e200", "--p", "1e199"], "threshold (2B+3p)^2 overflows"),
     (["minimum", "--B", "1e200", "--p", "1e199"], "threshold (2B+3p)^2 overflows"),
     (["figure", "--B", "1e200", "--p", "1e199", "--grid-points", "100"],
      "threshold (2B+3p)^2 overflows"),
     (["spectrum", "--B", "7", "--p", "1e-300"], "(2B+3p)/(4p) exceeds 1000000"),
     (["eigenfunction", "--B", "7", "--p", "1e-300", "-n", "0", "--grid-points", "100"],
      "(2B+3p)/(4p) exceeds 1000000"),
     # n_max = 5, but the coefficients grow like B^n past float64
     (["figure", "--B", "1e150", "--p", "1e149", "--grid-points", "100"],
      "exact form with top index 6 overflow float64"),
     (["eigenfunction", "--B", "1e150", "--p", "1e149", "-n", "3"],
      "exact form with top index 6 overflow float64"),
     (["validate", "--B", "1e150", "--p", "1e149"],  # psi_1'' already overflows
      "exact form with top index 2 overflow float64"),
     (["minimum", "--B", "1e150", "--p", "1e149"], "V' overflows float64")],
)
def test_capped_wells_fail_before_any_work(runner, args, message):
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid parameters: ")
    assert message in lines[0]


def test_spectrum_deterministic(runner):
    args = ["spectrum", "--B", "7", "--p", "0.5", "--format", "json"]
    first = runner.invoke(main, args).output
    second = runner.invoke(main, args).output
    assert first == second


def test_eigenfunction_first_excited(runner):
    result = runner.invoke(
        main,
        ["eigenfunction", "--B", "7", "--p", "0.5", "-n", "1", "--grid-points", "150"],
    )
    assert result.exit_code == 0
    d = json.loads(result.output)
    assert d["form"]["sigma"] == [-15, 1]
    assert d["form"]["tau"] == [14, 1]
    assert d["form"]["p"] == [1, 2]
    assert d["form"]["coeffs"] == [[0, 1], [-29, 1], [29, 2]]
    assert len(d["samples"]) == 150
    assert d["decay_exponent"] == -13.5


def test_eigenfunction_ground_csv(runner):
    result = runner.invoke(
        main,
        ["eigenfunction", "--B", "7", "--p", "0.5", "-n", "0", "--grid-points", "120",
         "--format", "csv"],
    )
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0].startswith("# n=0 sigma=-15 tau=14")
    assert lines[2] == "x,psi"
    assert len(lines) == 123


def test_eigenfunction_rejects_unbound_index(runner):
    result = runner.invoke(
        main, ["eigenfunction", "--B", "7", "--p", "0.5", "-n", "8", "--grid-points", "150"]
    )
    assert result.exit_code == 3
    assert "not normalizable" in result.output
    assert "n = 7" in result.output


def test_minimum_json(runner):
    result = runner.invoke(main, ["minimum", "--B", "7", "--p", "0.5"])
    assert result.exit_code == 0
    d = json.loads(result.output)
    assert d["V_min"] < 0.0
    assert abs(d["derivative_residual"]) <= 1e-8 * 0.5 * 240.25
    assert set(d["poly_root_probe"]) == {"exp_p_x0", "exp_x0"}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_minimum_probe_beyond_float_range(runner, fmt):
    # x0 = 415.7 here: exp(x0)^2 overflows float64, so that probe reads inf
    result = runner.invoke(main, ["minimum", "--B", "1000", "--p", "1/1000", "--format", fmt])
    assert result.exit_code == 0
    assert result.exception is None
    if fmt == "json":
        probe = json.loads(result.output)["poly_root_probe"]
    else:
        rows = dict(line.split(",") for line in result.output.strip().splitlines()[1:])
        probe = {"exp_p_x0": float(rows["probe_exp_p_x0"]), "exp_x0": float(rows["probe_exp_x0"])}
    assert math.isfinite(probe["exp_p_x0"])
    # JSON has no infinity: strict output writes null, CSV keeps inf
    assert probe["exp_x0"] == (None if fmt == "json" else math.inf)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON token {name}")


@pytest.mark.parametrize(
    "args",
    [
        ["figure", "--B", "7", "--p", "0.5", "--x-min", "1e-12", "--x-max", "1e-9",
         "--grid-points", "100"],
        ["minimum", "--B", "1000", "--p", "1/1000"],
    ],
)
def test_json_output_is_strict(runner, args):
    # both payloads hold non-finite numbers: V inside the wall, an overflowed probe
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    d = json.loads(result.output, parse_constant=_reject_constant)
    assert None in (d["V"] if args[0] == "figure" else d["poly_root_probe"].values())


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_validate_overflowed_probe(runner, monkeypatch, fmt):
    # as on deep, narrow wells such as B=1/10 p=1/1000, where exp(x0)^2 overflows
    real = analysis.find_minimum

    def overflowed(params):
        report = real(params)
        return replace(report, poly_root_probe=(report.poly_root_probe[0], math.inf))

    monkeypatch.setattr(analysis, "find_minimum", overflowed)
    result = runner.invoke(
        main,
        ["validate", "--B", "0.6", "--p", "0.5", "--grid-points", "6000", "--format", fmt],
    )
    assert result.exit_code == 0
    if fmt == "json":
        extras = json.loads(result.output, parse_constant=_reject_constant)["extras"]
        assert extras["poly_root_probe"]["exp_x0"] is None
        assert extras["minimum"]["poly_root_probe"]["exp_x0"] is None
    else:
        assert "|P(exp(x0))|=inf" in result.output.splitlines()[-1]


def test_figure_csv(runner):
    result = runner.invoke(
        main, ["figure", "--B", "7", "--p", "0.5", "--grid-points", "400", "--format", "csv"]
    )
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    header = lines[0].split(",")
    assert header == ["x", "V"] + [f"E{n}" for n in range(8)] + ["asymptote"]
    rows = [ln.split(",") for ln in lines[1:]]
    v_col = [float(r[1]) for r in rows]
    assert min(v_col) < 0.0
    assert v_col[-1] == pytest.approx(240.25, abs=0.5)
    # level lines carry the ladder energy only inside their span
    e1 = [r[3] for r in rows]
    present = [c for c in e1 if c]
    assert present and all(float(c) == 58.0 for c in present)
    assert e1[0] == "" and e1[-1] == ""


def test_figure_json_spans(runner):
    result = runner.invoke(
        main, ["figure", "--B", "7", "--p", "0.5", "--grid-points", "400"]
    )
    d = json.loads(result.output)
    assert d["asymptote"] == 240.25
    assert len(d["levels"]) == 8
    for lv in d["levels"]:
        assert lv["x_start"] < lv["x_end"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_figure_levels_without_resolvable_samples(runner, fmt):
    # every state underflows to 0 this close to the origin: no level lines
    result = runner.invoke(
        main,
        ["figure", "--B", "7", "--p", "0.5", "--grid-points", "100", "--x-min", "1e-300",
         "--x-max", "1e-299", "--format", fmt],
    )
    assert result.exit_code == 0
    assert result.exception is None
    if fmt == "json":
        d = json.loads(result.output, parse_constant=_reject_constant)
        assert len(d["levels"]) == 8
        assert all(lv["x_start"] is None and lv["x_end"] is None for lv in d["levels"])
        assert d["asymptote"] == 240.25
    else:
        lines = result.output.strip().split("\n")
        assert len(lines) == 101
        for row in lines[1:]:
            cells = row.split(",")
            assert cells[2:10] == [""] * 8 and cells[-1] == "240.25"


def test_validate_small_well_passes(runner):
    result = runner.invoke(
        main,
        ["validate", "--B", "0.6", "--p", "0.5", "--grid-points", "6000", "--format", "json"],
    )
    assert result.exit_code == 0
    d = json.loads(result.output)
    assert d["passed"] is True
    assert d["B"] == "3/5" and d["p"] == "1/2"
    names = [c["name"] for c in d["checks"]]
    assert "spectrum-vs-oracle" in names and "minimum-and-polynomial" in names
    assert set(d["extras"]["poly_root_probe"]) == {"exp_p_x0", "exp_x0"}
    assert d["extras"]["minimum"]["poly_root_probe"] == d["extras"]["poly_root_probe"]


def test_validate_deep_well_reports_hierarchy_failures(runner):
    result = runner.invoke(
        main, ["validate", "--B", "7", "--p", "0.5", "--format", "json"]
    )
    assert result.exit_code == 1
    assert "first failing check" in result.output
    payload = result.output[: result.output.rindex("}") + 1]
    d = json.loads(payload)
    failed = {c["name"] for c in d["checks"] if not c["passed"]}
    assert failed == {
        "shape-invariance",
        "spectrum-vs-oracle",
        "eigenfunction-residual",
        "orthogonality",
    }


def test_validate_perturbation_control(runner):
    result = runner.invoke(
        main,
        ["validate", "--B", "0.6", "--p", "0.5", "--grid-points", "6000",
         "--perturb-potential", "0.1", "--format", "csv"],
    )
    assert result.exit_code == 1
    assert "spectrum-vs-oracle,FAIL" in result.output


def test_validate_csv_records_probe(runner):
    result = runner.invoke(
        main,
        ["validate", "--B", "0.6", "--p", "0.5", "--grid-points", "6000", "--format", "csv"],
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "check,status,detail"
    assert "poly-root-probe,RECORDED" in result.output


def test_out_file_and_env_dir(runner, tmp_path, monkeypatch):
    target = tmp_path / "spec.csv"
    result = runner.invoke(
        main,
        ["spectrum", "--B", "7", "--p", "0.5", "--format", "csv", "--out", str(target)],
    )
    assert result.exit_code == 0
    assert target.read_text().splitlines()[-1] == "7,238"

    monkeypatch.setenv("SUSYWELL_OUT_DIR", str(tmp_path))
    result = runner.invoke(
        main, ["spectrum", "--B", "7", "--p", "0.5", "--format", "csv", "--out", "bare.csv"]
    )
    assert result.exit_code == 0
    assert (tmp_path / "bare.csv").exists()


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_is_a_parameter_error(runner, tmp_path, where):
    path = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    result = runner.invoke(main, ["spectrum", "--B", "7", "--p", "1/2", "--out", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and str(path) in lines[0]


@pytest.mark.parametrize(
    "args",
    [
        ["eigenfunction", "--B", "7", "--p", "0.5", "-n", "1", "--grid-points", "50"],
        ["eigenfunction", "--B", "7", "--p", "0.5", "-n", "1", "--grid-points", "50",
         "--x-min", "0"],
        ["eigenfunction", "--B", "7", "--p", "0.5", "-n", "1", "--x-min", "0"],
        ["eigenfunction", "--B", "7", "--p", "0.5", "-n", "1", "--x-max", "inf"],
        ["figure", "--B", "7", "--p", "0.5", "--x-min", "3", "--x-max", "2"],
        ["validate", "--B", "7", "--p", "0.5", "--grid-points", "50"],
        ["validate", "--B", "7", "--p", "0.5", "--x-min", "1e-12", "--x-max", "1e-9"],
        ["validate", "--B", "1000", "--p", "1/1000"],
        ["eigenfunction", "--B", "7", "--p", "0.5", "-n", "1",
         "--grid-points", "100000000000"],
        ["eigenfunction", "--B", "7", "--p", "0.5", "-n", "0", "--grid-points", "100",
         "--x-min", "1e-300", "--x-max", "1e-299"],
        ["eigenfunction", "--B", "7", "--p", "0.5", "-n", "0", "--grid-points", "100",
         "--x-min", "2000", "--x-max", "3000"],
    ],
)
def test_bad_grid_is_a_parameter_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    message = result.output.strip().splitlines()
    assert len(message) == 1 and message[0].startswith("invalid grid: ")
