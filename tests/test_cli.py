import json
import math
import time
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from susywell import analysis, cli, hyperpoly, oracle, validate
from susywell.cli import main
from susywell.params import Float64RangeError, make_params
from susywell.potential import potential_closed_form
from susywell.spectrum import full_spectrum, max_bound_states


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
     (["minimum", "--B", "1e150", "--p", "1e149"], "V' overflows float64"),
     (["minimum", "--B", "1e-110", "--p", "1e-111"], "V' underflows float64"),
     (["minimum", "--B", "1e-300", "--p", "1e-301"], "V' underflows float64"),
     # n_max = 3500; the top coefficient of form 1000 overflows, and is
     # tested before the 1000-step creation chain is built
     (["eigenfunction", "--B", "7", "--p", "1/1000", "-n", "1000"],
      "exact form with top index 2000 overflow float64"),
     # n_max = 500000: the top's log2 sum runs over 499999 factors
     (["eigenfunction", "--B", "1000", "--p", "1/1000", "-n", "499999"],
      "exact form with top index 999998 overflow float64"),
     # the top, 1.68 * 2^1024, lies in the one-bit band the check lets
     # through; the built form's own float64 test raises the same line
     (["eigenfunction", "--B", f"{17 * 2**340}/5", "--p", f"{2**341}/5", "-n", "3"],
      "exact form with top index 6 overflow float64")],
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


@pytest.mark.parametrize(
    "args, line",
    [(["spectrum", "--B", "abc", "--p", "1"], "could not parse B='abc', p='1' as rationals"),
     (["spectrum", "--B", "7", "--p", "1/0"], "could not parse B='7', p='1/0' as rationals"),
     (["eigenfunction", "--B", "7", "--p", "1/2", "-n", "-1"], "state index must be nonnegative")],
)
def test_unreadable_input_exits_2_with_one_line(runner, args, line):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == line + "\n"


def test_minimum_search_failure_exits_1_with_one_line(runner, monkeypatch):
    def fail(*_args, **_kwargs):
        raise RuntimeError("no sign change of V' on the scan")

    monkeypatch.setattr(analysis, "find_minimum", fail)
    result = runner.invoke(main, ["minimum", "--B", "7", "--p", "1/2"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == "minimum search failed: no sign change of V' on the scan\n"


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


@pytest.mark.parametrize("per_call", [None, 3])
def test_figure_spans_match_per_form_evaluate_on_a_deep_well(runner, monkeypatch, per_call):
    if per_call:  # sample the forms three at a time
        monkeypatch.setattr(cli, "_FIGURE_SAMPLES", per_call * 400)
    params = make_params("1261/64", "1/4")
    n_max = max_bound_states(params)
    assert n_max == 40
    result = runner.invoke(main, ["figure", "--B", "1261/64", "--p", "1/4",
                                  "--grid-points", "400"])
    assert result.exit_code == 0
    xs = oracle.default_grid(params, 400).points()
    expect = []
    for n in range(n_max + 1):
        vals = np.abs(hyperpoly.evaluate(hyperpoly.eigenfunction(n, params), xs))
        idx = np.flatnonzero(vals > 0.02 * float(np.max(vals)))
        expect.append((cli.sig12(xs[idx[0]]), cli.sig12(xs[idx[-1]])))
    levels = json.loads(result.output)["levels"]
    assert [(lv["x_start"], lv["x_end"]) for lv in levels] == expect


def test_figure_builds_no_form_past_the_first_that_overflows(runner, monkeypatch):
    built = []
    eigenfunction = hyperpoly.eigenfunction

    def counting(n, params):
        built.append(n)
        return eigenfunction(n, params)

    monkeypatch.setattr(hyperpoly, "eigenfunction", counting)
    # n_max = 5; form 3 is the first whose coefficients overflow float64, and
    # its top coefficient already does, so it fails before its chain is built
    result = runner.invoke(main, ["figure", "--B", "1e150", "--p", "1e149",
                                  "--grid-points", "100"])
    assert result.exit_code == 2
    assert result.stderr == ("invalid parameters: coefficients of the exact form with "
                             "top index 6 overflow float64\n")
    assert built == [0, 1, 2]


def test_validate_builds_no_form_past_the_first_that_overflows(runner, monkeypatch):
    candidate_form = hyperpoly.candidate_form

    def capped(n, params):
        assert n < 3, f"form {n} built after form 2 overflowed"
        return candidate_form(n, params)

    monkeypatch.setattr(hyperpoly, "candidate_form", capped)
    # n_max = 500; form 2 (top index 4) is the first whose derivatives overflow
    result = runner.invoke(main, ["validate", "--B", "1e100", "--p", "1e97"])
    assert result.exit_code == 2
    assert result.stderr == ("invalid parameters: coefficients of the exact form with "
                             "top index 4 overflow float64\n")


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


def test_validate_perturbation_control(runner, perturbed_oracle):
    result = runner.invoke(
        main,
        ["validate", "--B", "0.6", "--p", "0.5", "--grid-points", "6000", "--format", "csv"],
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


def test_out_that_fails_only_at_write_time_is_a_parameter_error(runner, tmp_path, monkeypatch):
    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli, "open", denied, raising=False)
    path = tmp_path / "x.json"
    result = runner.invoke(main, ["spectrum", "--B", "7", "--p", "1/2", "--out", str(path)])
    assert result.exit_code == 2
    assert result.stderr == f"cannot write output file {path}: Permission denied\n"


@pytest.mark.parametrize("where", ["missing-directory", "directory", "empty", "under-a-file"])
def test_unwritable_out_is_rejected_before_any_work(runner, tmp_path, monkeypatch, where):
    def no_work(*args, **kwargs):
        raise AssertionError("validation ran before the --out check")

    monkeypatch.setattr(validate, "run_validation", no_work)
    monkeypatch.delenv("SUSYWELL_OUT_DIR", raising=False)  # with it set, "" names a directory
    (tmp_path / "file").write_text("")
    path = {"missing-directory": tmp_path / "missing" / "x.json", "directory": tmp_path,
            "empty": "", "under-a-file": tmp_path / "file" / "x.json"}[where]
    reason = {"directory": "Is a directory",
              "under-a-file": "Not a directory"}.get(where, "No such file or directory")
    result = runner.invoke(
        main, ["validate", "--B", "1143/40", "--p", "3/5", "--out", str(path)]
    )
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"cannot write output file {path}: {reason}\n"


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
        # psi_0 underflows to 0 at every point; no point lies at x >= 0.2/p
        ["validate", "--B", "7", "--p", "1/2", "--x-max", "1e6", "--grid-points", "200"],
        ["validate", "--B", "7", "--p", "1/2", "--x-min", "1e-3", "--x-max", "0.3",
         "--grid-points", "200"],
    ],
)
def test_bad_grid_is_a_parameter_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    message = result.output.strip().splitlines()
    assert len(message) == 1 and message[0].startswith("invalid grid: ")


@pytest.mark.parametrize(
    "error, prefix",
    [(Float64RangeError, "invalid parameters: "), (oracle.GridError, "invalid grid: ")],
    ids=["float64", "grid"],
)
@pytest.mark.parametrize(
    "module, target, args",
    [
        pytest.param(cli, "full_spectrum", ["spectrum"], id="spectrum"),
        pytest.param(analysis, "find_minimum", ["minimum"], id="minimum"),
        pytest.param(hyperpoly, "evaluate", ["eigenfunction", "-n", "1", "--grid-points", "100"],
                     id="eigenfunction"),
        pytest.param(hyperpoly, "sample_forms", ["figure", "--grid-points", "100"], id="figure"),
        pytest.param(validate, "run_validation", ["validate", "--grid-points", "100"],
                     id="validate"),
    ],
)
def test_range_and_grid_errors_exit_2_from_every_command(
    runner, monkeypatch, module, target, args, error, prefix
):
    def fail(*_args, **_kwargs):
        raise error("stub reason")

    monkeypatch.setattr(module, target, fail)
    result = runner.invoke(main, [*args, "--B", "7", "--p", "1/2"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.stdout == ""
    assert result.stderr == f"{prefix}stub reason\n"


def test_solver_failure_in_validate_exits_1_with_one_line(runner, monkeypatch):
    # the oracle raises RuntimeError when a solve fails, as inverse iteration
    # still does at --B 1e90 --p 5e89 (ROADMAP item 3)
    def fail(*_args, **_kwargs):
        raise RuntimeError("inverse iteration produced a degenerate vector")

    monkeypatch.setattr(oracle, "eigenvector_for", fail)
    result = runner.invoke(main, ["validate", "--B", "7", "--p", "1/2", "--grid-points", "1000"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == "validation failed: inverse iteration produced a degenerate vector\n"


# `eigenfunction` and `figure` write their long arrays without json.dumps;
# the tests below hold that text to the bytes json.dumps(indent=2) would give
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
         1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e22,
         123456789012.0, 999999999999.5, 1e-4, 1e-5, math.inf, -math.inf, math.nan,
         1e12, 1e15, 9.999999999995e15, 999999999999.9, 2.0000000000001,
         2.225073858507201e-308]
# a mantissa times 10^e, e in -330..310: every layout band of the writer
# (subnormals, integers, 1e12 <= |x| < 1e16, overflow to inf), where
# st.floats() rarely lands
BANDED = st.builds(lambda m, e: float(Decimal(m).scaleb(e)),
                   st.one_of(st.floats(-10, 10), st.integers(-10**17, 10**17)),
                   st.integers(-330, 310))


def _token(x: float) -> str:
    """The token json.dumps writes for x in a strict payload."""
    return json.dumps(cli._strict(cli.sig12(x)), allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), BANDED), max_size=20))
@example(EDGES)
@example([])
def test_json_numbers_match_the_encoder(values):
    assert cli._json_numbers(np.array(values, dtype=float)) == [_token(x) for x in values]


def _laid_out(tree, depth=0) -> str:
    if isinstance(tree, list):
        return cli._json_list([_laid_out(v, depth + 1) for v in tree], depth)
    return cli._json_numbers([tree])[0]


def _rounded(tree):
    return [_rounded(v) for v in tree] if isinstance(tree, list) else cli.sig12(tree)


@settings(max_examples=100, deadline=None)
@given(st.recursive(st.floats(), lambda inner: st.lists(inner, max_size=4), max_leaves=12))
@example([])
@example([1.5])
@example([[]])
@example([[1.0, -0.0], [], [[math.inf]], 2.0])
def test_json_list_matches_the_encoder_layout(tree):
    expect = json.dumps(cli._strict(_rounded(tree)), indent=2, allow_nan=False)
    assert _laid_out(tree) == expect


def test_raw_values_keep_the_payload_order():
    numbers = [1.0, math.nan, -2.5e-300]
    payload = {"a": 1, "x": numbers, "b": {"c": [math.inf], "d": "\\"}, "y": [], "z": None}
    raw = {**payload, "x": cli._Raw(cli._json_list(cli._json_numbers(numbers), 1)),
           "y": cli._Raw(cli._json_list([], 1))}
    assert cli._json_text(raw) == json.dumps(cli._strict(payload), indent=2) + "\n"


@pytest.mark.parametrize("args", [
    ["eigenfunction", "--B", "7", "--p", "1/2", "-n", "0", "--grid-points", "2000"],
    ["eigenfunction", "--B", "20", "--p", "1/4", "-n", "20", "--grid-points", "1000"],
    ["eigenfunction", "--B", "3/5", "--p", "1/2", "-n", "0", "--x-min", "1e-300"],
    ["figure", "--B", "7", "--p", "1/2", "--grid-points", "2000"],
    # V is not finite on this grid, inside the wall
    ["figure", "--B", "7", "--p", "0.5", "--x-min", "1e-12", "--x-max", "1e-9",
     "--grid-points", "100"],
])
def test_json_commands_write_the_encoders_bytes(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    out = result.output
    assert json.dumps(json.loads(out, parse_constant=_reject_constant), indent=2) + "\n" == out


def _g12(x) -> str:
    return f"{float(x):.12g}"


@pytest.mark.parametrize("b, p, grid", [
    ("7", "1/2", []),
    ("1261/64", "1/4", []),  # n_max = 40: the level columns start and stop at many rows
    ("7", "1/2", ["--x-min", "1e-12", "--x-max", "1e-9"]),  # V is not finite here
])
def test_figure_csv_cells_are_the_values_at_12_digits(runner, b, p, grid):
    result = runner.invoke(main, ["figure", "--B", b, "--p", p, "--grid-points", "400",
                                  "--format", "csv", *grid])
    assert result.exit_code == 0
    params = make_params(b, p)
    base = oracle.default_grid(params, 400)
    xs = oracle.RadialGrid(float(grid[1]) if grid else base.x_min,
                           float(grid[3]) if grid else base.x_max, 400).points()
    spec = full_spectrum(params)
    columns = [[_g12(x) for x in xs], [_g12(v) for v in potential_closed_form(xs, params)]]
    for n, e in spec.levels:
        vals = np.abs(hyperpoly.evaluate(hyperpoly.eigenfunction(n, params), xs))
        idx = np.flatnonzero(vals > 0.02 * float(np.max(vals)))
        inside = range(idx[0], idx[-1] + 1) if idx.size else range(0)
        columns.append([_g12(e) if i in inside else "" for i in range(len(xs))])
    columns.append([_g12(spec.asymptote)] * len(xs))
    assert result.output.splitlines()[1:] == [",".join(cells) for cells in zip(*columns)]


@pytest.mark.parametrize("n", [0, 3])
def test_eigenfunction_csv_cells_are_the_values_at_12_digits(runner, n):
    result = runner.invoke(main, ["eigenfunction", "--B", "7", "--p", "1/2", "-n", str(n),
                                  "--grid-points", "1000", "--format", "csv"])
    assert result.exit_code == 0
    params = make_params("7", "1/2")
    grid = oracle.default_grid(params, 1000)
    xs = grid.points()
    psi = hyperpoly.evaluate(hyperpoly.eigenfunction(n, params), xs)
    psi = psi / np.sqrt(oracle.inner_product(psi, psi, grid))
    lines = result.output.splitlines()
    assert lines[2] == "x,psi"
    assert lines[3:] == [f"{_g12(x)},{_g12(y)}" for x, y in zip(xs, psi)]
