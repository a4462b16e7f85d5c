"""Command-line front end: spectra, wavefunction tables, validation reports,
and potential/level plot data in JSON or CSV.

Exit codes: 0 success, 1 validation failure, 2 bad parameters, grid or
output path, 3 state index out of range.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from fractions import Fraction

import click
import numpy as np

from . import analysis, hyperpoly, oracle
from .params import Float64RangeError, make_params
from .potential import potential_closed_form
from .spectrum import full_spectrum, max_bound_states, state_decay_rate
from .validate import run_validation

EXIT_VALIDATION_FAILURE = 1
EXIT_BAD_PARAMETERS = 2
EXIT_INDEX_OUT_OF_RANGE = 3


def sig12(x: float) -> float:
    """Round through 12 significant digits for stable, readable output."""
    return float(f"{float(x):.12g}")


def _strict(tree):
    """Copy of a JSON payload with every non-finite float as None (null)."""
    if isinstance(tree, float):
        return tree if math.isfinite(tree) else None
    if isinstance(tree, dict):
        return {k: _strict(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_strict(v) for v in tree]
    return tree


def _json_text(payload) -> str:
    """Indented strict JSON: inf and nan are written as null."""
    return json.dumps(_strict(payload), indent=2, allow_nan=False) + "\n"


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _pair(f: Fraction) -> list:
    return [f.numerator, f.denominator]


def _minimum_fields(report: analysis.MinimumReport) -> dict:
    """The minimum's output fields as plain floats, for `minimum` and `validate`;
    a probe that overflowed float64 is inf."""
    return {
        "x0": report.x0,
        "V_min": report.v_min,
        "derivative_residual": report.derivative_residual,
        "poly_root_probe": dict(zip(("exp_p_x0", "exp_x0"), report.poly_root_probe)),
    }


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


def _float64_limits(command):
    """Exit 2 with one line when the well's numbers leave the float64 range."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except Float64RangeError as exc:
            click.echo(f"invalid parameters: {exc}", err=True)
            sys.exit(EXIT_BAD_PARAMETERS)

    return run


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
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        click.echo(f"cannot write output file {path}: {exc.strerror}", err=True)
        sys.exit(EXIT_BAD_PARAMETERS)


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
    except oracle.GridError as exc:
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
        text = "n,E\n" + "".join(f"{n},{_fmt(e)}\n" for n, e in spec.levels)
    else:
        text = _json_text({
            "B": float(params.B),
            "p": float(params.p),
            "A": float(params.A),
            "B_exact": str(params.B),
            "p_exact": str(params.p),
            "A_exact": str(params.A),
            "n_max": spec.n_max,
            "asymptote": sig12(spec.asymptote),
            "asymptote_exact": str(spec.asymptote),
            "levels": [{"n": n, "E": sig12(e), "E_exact": str(e)} for n, e in spec.levels],
        })
    _emit(text, out)


@main.command("eigenfunction")
@_model_options
@_grid_options
@_output_options
@click.option("-n", "state_index", type=int, required=True, help="state index")
@_float64_limits
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
    norm = oracle.inner_product(values, values, grid)
    if not 0.0 < norm < math.inf:
        click.echo(
            f"invalid grid: state {state_index} cannot be normalized on it (sampled "
            f"norm {norm}: the samples underflow to 0 or overflow float64)",
            err=True,
        )
        sys.exit(EXIT_BAD_PARAMETERS)
    values = values / np.sqrt(norm)
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
            "form": {
                "sigma": _pair(form.sigma),
                "tau": _pair(form.tau),
                "p": _pair(form.p),
                "coeffs": [_pair(c) for c in form.coeffs],
            },
            "decay_exponent": sig12(hyperpoly.decay_exponent(form)),
            "samples": [
                {"x": sig12(x), "psi": sig12(v)} for x, v in zip(xs, values)
            ],
        }
        text = _json_text(payload)
    _emit(text, out)


@main.command("validate")
@_model_options
@_grid_options
@_output_options
@click.option("--perturb-potential", type=float, default=0.0,
              help="test-only: scale the numeric potential by (1+EPS)")
@_float64_limits
def cmd_validate(b_text, p_text, x_min, x_max, grid_points, fmt, out, perturb_potential):
    """Run the full cross-validation suite; exit 0 only if every check passes."""
    params = _parse_params(b_text, p_text)
    grid = _make_grid(params, x_min, x_max, grid_points)
    try:
        report = run_validation(params, grid, perturb=perturb_potential)
    except oracle.GridError as exc:  # inside the singular wall, or too few points
        click.echo(f"invalid grid: {exc}", err=True)
        sys.exit(EXIT_BAD_PARAMETERS)
    if fmt == "json":
        minimum = _minimum_fields(report.extras["minimum"])
        text = _json_text({
            "B": str(params.B),
            "p": str(params.p),
            "passed": report.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in report.checks
            ],
            "extras": {**report.extras, "minimum": minimum,
                       "poly_root_probe": minimum["poly_root_probe"]},
        })
    else:
        lines = ["check,status,detail"]
        lines += [
            f"{c.name},{'PASS' if c.passed else 'FAIL'},\"{c.detail}\""
            for c in report.checks
        ]
        probe = report.extras["minimum"].poly_root_probe
        lines.append(
            f"poly-root-probe,RECORDED,\"|P(exp(p*x0))|={probe[0]:.3e} "
            f"|P(exp(x0))|={probe[1]:.3e}\""
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
@_float64_limits
def cmd_figure(b_text, p_text, x_min, x_max, grid_points, fmt, out):
    """Plot data: x, V(x), one level line per bound state, and the asymptote."""
    params = _parse_params(b_text, p_text)
    grid = _make_grid(params, x_min, x_max, grid_points)
    spec = full_spectrum(params)
    n_max = spec.n_max
    xs = grid.points()
    v = potential_closed_form(xs, params)
    spans = []
    threshold = 0.02
    for n in range(n_max + 1):
        vals = np.abs(hyperpoly.evaluate(hyperpoly.eigenfunction(n, params), xs))
        # empty, so no line, when no sample clears the threshold: every
        # sample underflowed to 0, or the largest one is not finite
        idx = np.flatnonzero(vals > threshold * float(np.max(vals)))
        spans.append(range(idx[0], idx[-1] + 1) if idx.size else range(0))
    if fmt == "csv":
        header = "x,V," + ",".join(f"E{n}" for n in range(n_max + 1)) + ",asymptote"
        rows = len(xs)
        columns = [[_fmt(x) for x in xs], [_fmt(val) for val in v]]
        for (_, e), span in zip(spec.levels, spans):
            columns.append([""] * span.start + [_fmt(e)] * len(span) + [""] * (rows - span.stop))
        columns.append([_fmt(spec.asymptote)] * rows)
        text = header + "\n" + "".join(",".join(cells) + "\n" for cells in zip(*columns))
    else:
        payload = {
            "x": [sig12(x) for x in xs],
            "V": [sig12(val) for val in v],
            "levels": [
                {
                    "n": n,
                    "E": sig12(e),
                    "x_start": sig12(xs[span[0]]) if span else None,
                    "x_end": sig12(xs[span[-1]]) if span else None,
                }
                for (n, e), span in zip(spec.levels, spans)
            ],
            "asymptote": sig12(spec.asymptote),
        }
        text = _json_text(payload)
    _emit(text, out)


@main.command("minimum")
@_model_options
@_output_options
@_float64_limits
def cmd_minimum(b_text, p_text, fmt, out):
    """Locate the well minimum and report the polynomial root probe."""
    params = _parse_params(b_text, p_text)
    try:
        report = analysis.find_minimum(params)
    except RuntimeError as exc:
        click.echo(f"minimum search failed: {exc}", err=True)
        sys.exit(EXIT_VALIDATION_FAILURE)
    fields = _minimum_fields(report)
    probe = fields.pop("poly_root_probe")
    if fmt == "csv":
        rows = [*fields.items(), *((f"probe_{k}", v) for k, v in probe.items())]
        text = "key,value\n" + "".join(f"{k},{_fmt(v)}\n" for k, v in rows)
    else:
        d = {k: sig12(v) for k, v in fields.items()}
        d["poly_root_probe"] = {k: sig12(v) for k, v in probe.items()}
        d["B_exact"] = str(params.B)
        d["p_exact"] = str(params.p)
        text = _json_text(d)
    _emit(text, out)


if __name__ == "__main__":
    main()
