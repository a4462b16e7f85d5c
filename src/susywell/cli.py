"""Command-line front end: spectra, wavefunction tables, validation reports,
and potential/level plot data in JSON or CSV.

Exit codes: 0 success, 1 validation failure, 2 bad parameters, grid or
output path, 3 state index out of range.  The command group maps a
Float64RangeError or GridError raised by any command to one line and exit 2.
"""

from __future__ import annotations

import errno
import itertools
import json
import math
import os
import stat
import sys
from fractions import Fraction

import click
import numpy as np

from . import analysis, hyperpoly, oracle, validate
from .params import Float64RangeError, make_params
from .potential import potential_closed_form
from .spectrum import full_spectrum, max_bound_states, state_decay_rate

EXIT_VALIDATION_FAILURE = 1
EXIT_BAD_PARAMETERS = 2
EXIT_INDEX_OUT_OF_RANGE = 3
# most float64 samples that one sample_forms call in `figure` returns (32 MB):
# a fine grid does not hold every state's samples at once
_FIGURE_SAMPLES = 2**22


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


# what `%.12g` writes for a value that is not finite; JSON writes null
_NULLS = {"inf": "null", "-inf": "null", "nan": "null"}
# the smallest normal float64: below it, `%.12g` writes more digits than repr
_TINY = sys.float_info.min
# a _Raw value's stand-in while json.dumps writes the rest of its payload
_HOLE = "\0"
# one `eigenfunction` sample as json.dumps lays it out inside a top-level list
_SAMPLE = '{\n      "x": %s,\n      "psi": %s\n    }'


class _Raw(str):
    """JSON text of a top-level value, already laid out at depth 1."""


def _json_numbers(values) -> list[str]:
    """The JSON token json.dumps writes for sig12(x) of each value: its
    float repr, or null when the value is not finite.

    One C-level format rounds the whole array.  For a normal double it
    writes the digits of the repr of the value it parses to, since two
    decimals of at most 15 digits never round to one normal double; only
    integral values (repr adds ".0", and writes 1e12 <= |x| < 1e16
    positionally), subnormals (fewer digits) and non-finite values are
    rewritten."""
    values = np.ravel(values).tolist()
    tokens = (("%.12g " * len(values)) % tuple(values)).split()
    rounded = list(map(float, tokens))
    r = np.abs(rounded)
    relaid = ~np.isfinite(r) | (r < 1e16) & ((r == np.floor(r)) | (r < _TINY))
    for i in np.flatnonzero(relaid).tolist():
        tokens[i] = _NULLS.get(tokens[i]) or repr(rounded[i])
    return tokens


def _json_list(items: list[str], depth: int) -> str:
    """A list of JSON item texts in json.dumps's indent-2 layout at `depth`."""
    if not items:
        return "[]"
    pad = "\n" + "  " * depth
    return "[" + pad + "  " + ("," + pad + "  ").join(items) + pad + "]"


def _json_text(payload: dict) -> str:
    """Indented strict JSON: inf and nan are written as null.  A _Raw value is
    written as it is, so a long array never passes through json.dumps."""
    raw = [v for v in payload.values() if isinstance(v, _Raw)]
    head = {k: _HOLE if isinstance(v, _Raw) else v for k, v in payload.items()}
    text = json.dumps(_strict(head), indent=2, allow_nan=False)
    parts = text.split(json.dumps(_HOLE), len(raw))
    return "".join(itertools.chain(*zip(parts, raw), parts[-1:])) + "\n"


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


def _unwritable(path: str, reason: str):
    click.echo(f"cannot write output file {path}: {reason}", err=True)
    sys.exit(EXIT_BAD_PARAMETERS)


def _resolve_out(ctx, param, out: "str | None") -> "str | None":
    """The --out path, joined with $SUSYWELL_OUT_DIR when bare.  A path that
    is empty, names a directory, or whose directory is missing or not a
    directory, exits 2 before any work, with the reason open() would give."""
    if out is None:
        return None
    base = os.environ.get("SUSYWELL_OUT_DIR", "")
    path = os.path.join(base, out) if base and not os.path.dirname(out) else out
    if not path:
        _unwritable(path, os.strerror(errno.ENOENT))
    if path.endswith(os.sep) or os.path.isdir(path):
        _unwritable(path, os.strerror(errno.EISDIR))
    try:
        parent_is_dir = stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode)
    except OSError as exc:
        _unwritable(path, exc.strerror)
    if not parent_is_dir:
        _unwritable(path, os.strerror(errno.ENOTDIR))
    return path


def _emit(text: str, path: "str | None") -> None:
    if path is None:
        click.echo(text, nl=False)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:  # e.g. permissions, which only the write shows
        _unwritable(path, exc.strerror)


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
    f = click.option("--out", type=str, default=None, callback=_resolve_out,
                     help="output path (joined with $SUSYWELL_OUT_DIR when bare)")(f)
    return f


def _make_grid(params, x_min, x_max, grid_points):
    base = oracle.default_grid(params, grid_points)
    return oracle.RadialGrid(
        x_min=base.x_min if x_min is None else x_min,
        x_max=base.x_max if x_max is None else x_max,
        n_points=grid_points,
    )


class _Group(click.Group):
    """Exit 2 with one line when a command's well leaves the float64 range or
    its grid cannot carry the problem."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except Float64RangeError as exc:
            click.echo(f"invalid parameters: {exc}", err=True)
        except oracle.GridError as exc:
            click.echo(f"invalid grid: {exc}", err=True)
        sys.exit(EXIT_BAD_PARAMETERS)


@click.group(cls=_Group)
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
    form = next(hyperpoly.ladder_forms(params, [state_index]))
    xs = grid.points()
    values = hyperpoly.evaluate(form, xs)
    norm = oracle.inner_product(values, values, grid)
    if not 0.0 < norm < math.inf:
        raise oracle.GridError(
            f"state {state_index} cannot be normalized on it (sampled norm "
            f"{norm}: the samples underflow to 0 or overflow float64)"
        )
    # x0, psi0, x1, psi1, ...
    samples = np.column_stack((xs, values / np.sqrt(norm)))
    if fmt == "csv":
        text = (
            f"# n={state_index} sigma={form.sigma} tau={form.tau} p={form.p}\n"
            "# coeffs=" + ";".join(str(Fraction(c, form.den)) for c in form.coeffs) + "\n"
            "x,psi\n"
            + ("%.12g,%.12g\n" * len(samples)) % tuple(samples.ravel().tolist())
        )
    else:
        payload = {
            "n": state_index,
            "B_exact": str(params.B),
            "p_exact": str(params.p),
            "form": {
                "sigma": _pair(form.sigma),
                "tau": _pair(form.tau),
                "p": _pair(form.p),
                "coeffs": [_pair(Fraction(c, form.den)) for c in form.coeffs],
            },
            "decay_exponent": sig12(hyperpoly.decay_exponent(form)),
            "samples": _Raw(_json_list([_SAMPLE] * len(samples), 1)
                            % tuple(_json_numbers(samples))),
        }
        text = _json_text(payload)
    _emit(text, out)


@main.command("validate")
@_model_options
@_grid_options
@_output_options
def cmd_validate(b_text, p_text, x_min, x_max, grid_points, fmt, out):
    """Run the full cross-validation suite; exit 0 only if every check passes."""
    params = _parse_params(b_text, p_text)
    grid = _make_grid(params, x_min, x_max, grid_points)
    try:
        report = validate.run_validation(params, grid)
    except RuntimeError as exc:
        click.echo(f"validation failed: {exc}", err=True)
        sys.exit(EXIT_VALIDATION_FAILURE)
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
    # the forms are built as sample_forms draws them, so one that overflows
    # float64 exits 2 before any later one is built; each call holds at most
    # _FIGURE_SAMPLES values
    forms = hyperpoly.ladder_forms(params, range(n_max + 1))
    per_call = max(1, _FIGURE_SAMPLES // xs.size)
    for _ in range(0, n_max + 1, per_call):
        for vals in hyperpoly.sample_forms(itertools.islice(forms, per_call), xs):
            vals = np.abs(vals)
            # empty, so no line, when no sample clears the threshold: every
            # sample underflowed to 0, or the largest one is not finite
            idx = np.flatnonzero(vals > threshold * float(np.max(vals)))
            spans.append(range(idx[0], idx[-1] + 1) if idx.size else range(0))
    if fmt == "csv":
        blocks = ["x,V," + ",".join(f"E{n}" for n in range(n_max + 1)) + ",asymptote\n"]
        # the level cells change only where a span starts or stops, so each
        # run of rows between two such cuts is one format over its x, V pairs
        cuts = sorted({0, len(xs), *(s.start for s in spans), *(s.stop for s in spans)})
        energies = [_fmt(e) for _, e in spec.levels]
        xv = tuple(np.column_stack((xs, v)).ravel().tolist())
        for a, b in zip(cuts, cuts[1:]):
            cells = ",".join(e if a in span else "" for e, span in zip(energies, spans))
            row = f"%.12g,%.12g,{cells},{_fmt(spec.asymptote)}\n"
            blocks.append((row * (b - a)) % xv[2 * a:2 * b])
        text = "".join(blocks)
    else:
        payload = {
            "x": _Raw(_json_list(_json_numbers(xs), 1)),
            "V": _Raw(_json_list(_json_numbers(v), 1)),
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
