"""Command-line front end: spectra, wavefunction tables, validation reports,
and potential/level plot data in JSON or CSV.

Exit codes: 0 success, 1 validation failure, 2 bad parameters or grid,
3 state index out of range.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import click
import numpy as np

from . import analysis, hyperpoly, oracle
from .params import make_params
from .spectrum import full_spectrum, max_bound_states, state_decay_rate
from .validate import run_validation

EXIT_VALIDATION_FAILURE = 1
EXIT_BAD_PARAMETERS = 2
EXIT_INDEX_OUT_OF_RANGE = 3


def sig12(x: float) -> float:
    """Round through 12 significant digits for stable, readable output."""
    return float(f"{float(x):.12g}")


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _parse_params(b_text: str, p_text: str):
    try:
        b = Fraction(b_text)
        p = Fraction(p_text)
    except (ValueError, ZeroDivisionError):
        click.echo(f"could not parse B={b_text!r}, p={p_text!r} as rationals", err=True)
        sys.exit(EXIT_BAD_PARAMETERS)
    try:
        return make_params(b, p)
    except ValueError as exc:
        click.echo(f"invalid parameters: {exc}", err=True)
        sys.exit(EXIT_BAD_PARAMETERS)


def _resolve_out(out: "str | None") -> "str | None":
    if out is None:
        return None
    base = os.environ.get("SUSYWELL_OUT_DIR", "")
    if base and not os.path.dirname(out):
        return os.path.join(base, out)
    return out


def _emit(text: str, out: "str | None") -> None:
    path = _resolve_out(out)
    if path is None:
        click.echo(text, nl=False)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _model_options(f):
    f = click.option("--B", "b_text", required=True, help="coupling B (rational, e.g. 7 or 1/2)")(f)
    f = click.option("--p", "p_text", required=True, help="coupling p (rational, 0 < p < B)")(f)
    return f


def _grid_options(f):
    f = click.option("--x-min", type=float, default=None, help="grid left end (default auto)")(f)
    f = click.option("--x-max", type=float, default=None, help="grid right end (default auto)")(f)
    f = click.option("--grid-points", type=int, default=12000, show_default=True,
                     help="interior grid points")(f)
    return f


def _output_options(f):
    f = click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
                     show_default=True)(f)
    f = click.option("--out", type=str, default=None,
                     help="output path (joined with $SUSYWELL_OUT_DIR when bare)")(f)
    return f


def _make_grid(params, x_min, x_max, grid_points):
    try:
        base = oracle.default_grid(params, grid_points)
        return oracle.RadialGrid(
            x_min=base.x_min if x_min is None else x_min,
            x_max=base.x_max if x_max is None else x_max,
            n_points=grid_points,
        )
    except ValueError as exc:
        click.echo(f"invalid grid: {exc}", err=True)
        sys.exit(EXIT_BAD_PARAMETERS)


@click.group()
def main():
    """Closed-form hyperbolic-well solver with an independent numeric cross-check."""


@main.command("spectrum")
@_model_options
@_output_options
def cmd_spectrum(b_text, p_text, fmt, out):
    """Print the closed-form level ladder with the continuum asymptote."""
    params = _parse_params(b_text, p_text)
    spec = full_spectrum(params)
    if fmt == "csv":
        text = "\n".join(spec.to_csv_lines()) + "\n"
    else:
        d = spec.to_json_dict()
        d["asymptote"] = sig12(d["asymptote"])
        for lv in d["levels"]:
            lv["E"] = sig12(lv["E"])
        text = json.dumps(d, indent=2) + "\n"
    _emit(text, out)


@main.command("eigenfunction")
@_model_options
@_grid_options
@_output_options
@click.option("-n", "state_index", type=int, required=True, help="state index")
def cmd_eigenfunction(b_text, p_text, x_min, x_max, grid_points, fmt, out, state_index):
    """Exact coefficients of state n plus a normalized sampled table."""
    params = _parse_params(b_text, p_text)
    grid = _make_grid(params, x_min, x_max, grid_points)
    n_max = max_bound_states(params)
    if state_index < 0:
        click.echo("state index must be nonnegative", err=True)
        sys.exit(EXIT_BAD_PARAMETERS)
    if state_index > n_max:
        rate = state_decay_rate(params, state_index)
        click.echo(
            f"state {state_index} is not normalizable: its large-x decay rate "
            f"4np - (2B+3p) = {rate} is nonnegative; bound states stop at n = {n_max}",
            err=True,
        )
        sys.exit(EXIT_INDEX_OUT_OF_RANGE)
    form = hyperpoly.eigenfunction(state_index, params)
    xs = grid.points()
    values = hyperpoly.evaluate(form, xs)
    values = values / np.sqrt(oracle.inner_product(values, values, grid))
    if fmt == "csv":
        lines = [
            f"# n={state_index} sigma={form.sigma} tau={form.tau} p={form.p}",
            "# coeffs=" + ";".join(str(c) for c in form.coeffs),
            "x,psi",
        ]
        lines += [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(xs, values)]
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "n": state_index,
            "B_exact": str(params.B),
            "p_exact": str(params.p),
            "form": form.to_json_dict(),
            "decay_exponent": sig12(hyperpoly.decay_exponent(form)),
            "samples": [
                {"x": sig12(x), "psi": sig12(v)} for x, v in zip(xs, values)
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    _emit(text, out)


@main.command("validate")
@_model_options
@_grid_options
@_output_options
@click.option("--perturb-potential", type=float, default=0.0,
              help="test-only: scale the numeric potential by (1+EPS)")
def cmd_validate(b_text, p_text, x_min, x_max, grid_points, fmt, out, perturb_potential):
    """Run the full cross-validation suite; exit 0 only if every check passes."""
    params = _parse_params(b_text, p_text)
    grid = _make_grid(params, x_min, x_max, grid_points)
    report = run_validation(
        params, n_points=grid.n_points, x_min=grid.x_min, x_max=grid.x_max,
        perturb=perturb_potential,
    )
    if fmt == "json":
        text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    else:
        lines = ["check,status,detail"]
        lines += [
            f"{c.name},{'PASS' if c.passed else 'FAIL'},\"{c.detail}\""
            for c in report.checks
        ]
        probe = report.extras.get("poly_root_probe", {})
        lines.append(
            f"poly-root-probe,RECORDED,\"|P(exp(p*x0))|={probe.get('exp_p_x0', float('nan')):.3e} "
            f"|P(exp(x0))|={probe.get('exp_x0', float('nan')):.3e}\""
        )
        text = "\n".join(lines) + "\n"
    _emit(text, out)
    if not report.passed:
        first = report.first_failure()
        click.echo(f"validation failed: first failing check is '{first.name}'", err=True)
        sys.exit(EXIT_VALIDATION_FAILURE)


@main.command("figure")
@_model_options
@_grid_options
@_output_options
def cmd_figure(b_text, p_text, x_min, x_max, grid_points, fmt, out):
    """Plot data: x, V(x), one level line per bound state, and the asymptote."""
    params = _parse_params(b_text, p_text)
    grid = _make_grid(params, x_min, x_max, grid_points)
    n_max = max_bound_states(params)
    spec = full_spectrum(params)
    xs = grid.points()
    from .potential import potential_closed_form

    v = potential_closed_form(xs, params)
    asym = float(spec.asymptote)
    spans = []
    threshold = 0.02
    for n in range(n_max + 1):
        vals = np.abs(hyperpoly.evaluate(hyperpoly.eigenfunction(n, params), xs))
        on = vals > threshold * float(np.max(vals))
        idx = np.where(on)[0]
        spans.append((int(idx[0]), int(idx[-1])))
    if fmt == "csv":
        header = "x,V," + ",".join(f"E{n}" for n in range(n_max + 1)) + ",asymptote"
        lines = [header]
        for i, x in enumerate(xs):
            cells = [_fmt(x), _fmt(v[i])]
            for n in range(n_max + 1):
                lo, hi = spans[n]
                cells.append(_fmt(float(spec.levels[n][1])) if lo <= i <= hi else "")
            cells.append(_fmt(asym))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "x": [sig12(x) for x in xs],
            "V": [sig12(val) for val in v],
            "levels": [
                {
                    "n": n,
                    "E": sig12(float(spec.levels[n][1])),
                    "x_start": sig12(xs[spans[n][0]]),
                    "x_end": sig12(xs[spans[n][1]]),
                }
                for n in range(n_max + 1)
            ],
            "asymptote": sig12(asym),
        }
        text = json.dumps(payload, indent=2) + "\n"
    _emit(text, out)


@main.command("minimum")
@_model_options
@_output_options
def cmd_minimum(b_text, p_text, fmt, out):
    """Locate the well minimum and report the polynomial root probe."""
    params = _parse_params(b_text, p_text)
    try:
        report = analysis.find_minimum(params)
    except RuntimeError as exc:
        click.echo(f"minimum search failed: {exc}", err=True)
        sys.exit(EXIT_VALIDATION_FAILURE)
    d = report.to_json_dict()
    d["B_exact"] = str(params.B)
    d["p_exact"] = str(params.p)
    if fmt == "csv":
        lines = ["key,value"]
        lines.append(f"x0,{_fmt(d['x0'])}")
        lines.append(f"V_min,{_fmt(d['V_min'])}")
        lines.append(f"derivative_residual,{_fmt(d['derivative_residual'])}")
        lines.append(f"probe_exp_p_x0,{_fmt(d['poly_root_probe']['exp_p_x0'])}")
        lines.append(f"probe_exp_x0,{_fmt(d['poly_root_probe']['exp_x0'])}")
        text = "\n".join(lines) + "\n"
    else:
        d["x0"] = sig12(d["x0"])
        d["V_min"] = sig12(d["V_min"])
        d["derivative_residual"] = sig12(d["derivative_residual"])
        d["poly_root_probe"] = {
            k: sig12(val) for k, val in d["poly_root_probe"].items()
        }
        text = json.dumps(d, indent=2) + "\n"
    _emit(text, out)


if __name__ == "__main__":
    main()
