"""Independent references and per-operation output checks.

Nothing here imports susywell: the closed-form levels, the cutoff, V(x), the
oracle grid and the reference eigenvalues are written out again from the
paper's formulas and the documented grid rule, so a defect in the package
cannot also hide in its reference.

`check(op, outcome)` returns a Verdict.  `problems` are unexpected failures
(the operation counts as failed); `known` names known defects observed on
that operation, which are reported but not counted as failures.
"""

from __future__ import annotations

import ast
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal

DOCUMENTED_EXIT_CODES = {0, 1, 2, 3}
GRID_POINTS = 12000  # the CLI default every workload uses

# |V_out - V_ref| <= V_RTOL * max(|V_ref|, (2B+3p)^2); the floor covers the
# zero crossing of V, where a relative error has no meaning.
V_RTOL = 1e-9
# outputs carry 12 significant digits, so the trapezoid norm of a unit vector
# read back from them is 1 to ~1e-12
NORM_TOL = 1e-9
# lowest_eigenvalues documents an absolute tolerance of 1e-10 * ||H||
ORACLE_REL_TOL = 1e-10

# checks whose claims the model makes true for every admissible well
MODEL_TRUE_CHECKS = (
    "telescoping",
    "normalizability-cutoff",
    "prefactor-exponents",
    "first-excited-coefficients",
    "convergence-order",
    "node-count",
    "annihilation",
    "intertwining",
    "oracle-selfcheck",
    "minimum-and-polynomial",
)

# Known defect: evaluate_scaled loses every digit to cancellation in float64
# for states n >= 11, so node-count reports mismatches there (the exact forms
# evaluated at high precision have exactly n nodes).
FLOAT64_NODE_DEFECT = "float64-node-count"
FLOAT64_NODE_FIRST_STATE = 11

# Known defect: the default grid spreads its points over six decay lengths of
# the slowest bound state.  When that state is barely bound the grid reaches
# past the 10/p floor, its spacing h grows, and the finite-difference
# residuals of annihilation and intertwining, which grow as h^2, exceed their
# tolerances.  On grids that end at 10/p both stay well inside them.
STRETCHED_GRID_DEFECT = "stretched-grid-stencil"
STENCIL_CHECKS = ("annihilation", "intertwining")

# Known defect: the orthogonality check integrates psi_0 psi_1 by the
# trapezoid rule on 60000 interior points of (0.005/p, 30/p) with a zero
# implied at 0.005/p, so it drops the integral over (0, 0.005/p] and half
# the first panel.  Near the origin psi_0 psi_1 grows as x^(2B/p), so for
# soft exponents (B/p near 1) that piece alone exceeds the 1e-6 tolerance,
# although psi_0 and psi_1 are exactly orthogonal.  The defect is named only
# when the reported overlap of the pair (0, 1) matches the benchmark's own
# estimate of the dropped piece within ORTHOGONALITY_CUTOFF_RTOL.
ORTHOGONALITY_CUTOFF_DEFECT = "orthogonality-origin-cutoff"
ORTHOGONALITY_GRID = (0.005, 30.0, 60_000)  # x_min * p, x_max * p, interior points
ORTHOGONALITY_CUTOFF_RTOL = 0.1


@dataclass
class Outcome:
    exit_code: int
    text: str
    error: "str | None" = None  # traceback text when the command raised


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)
    energy_dev: "float | None" = None  # max |oracle - reference| for validate


# ----------------------------------------------------------------- references

def n_max_ref(B: Fraction, p: Fraction) -> int:
    """Largest n whose decay rate 4np - (2B+3p) is negative."""
    s = (2 * B + 3 * p) / (4 * p)
    return math.ceil(s) - 1


def level_ref(n: int, B: Fraction, p: Fraction) -> Fraction:
    return 8 * n * p * (2 * B + 3 * p - 2 * n * p)


def asymptote_ref(B: Fraction, p: Fraction) -> Fraction:
    return (2 * B + 3 * p) ** 2


def potential_ref(x: np.ndarray, B: Fraction, p: Fraction) -> np.ndarray:
    """V(x) = -Bp csch^2(px) - 9p(B+p) sech^2(3px) + (B coth(px) - 3(B+p) tanh(3px))^2."""
    b, q = float(B), float(p)
    u = q * np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        csch2 = 1.0 / np.sinh(u) ** 2
        sech2 = 1.0 / np.cosh(3.0 * u) ** 2
    return (-b * q * csch2 - 9.0 * q * (b + q) * sech2
            + (b / np.tanh(u) - 3.0 * (b + q) * np.tanh(3.0 * u)) ** 2)


def slowest_decay_ref(B: Fraction, p: Fraction) -> Fraction:
    return 2 * B + 3 * p - 4 * n_max_ref(B, p) * p


def grid_stretched_ref(B: Fraction, p: Fraction) -> bool:
    """True when the default grid ends past its 10/p floor."""
    return 6 / slowest_decay_ref(B, p) > 10 / p


def oracle_grid(B: Fraction, p: Fraction, n_points: int = GRID_POINTS) -> np.ndarray:
    """Interior points of the documented default grid: x_min = 1e-2/p (1e-4/p
    when B/p < 3), x_max = six decay lengths of the slowest bound state,
    clamped to [10/p, 200/p]; n_points uniform interior points."""
    q = float(p)
    x_min = (1e-2 if B / p >= 3 else 1e-4) / q
    x_max = min(max(6.0 / float(slowest_decay_ref(B, p)), 10.0 / q), 200.0 / q)
    h = (x_max - x_min) / (n_points + 1)
    return x_min + h * np.arange(1, n_points + 1)


def reference_energies(B: Fraction, p: Fraction, count: int) -> tuple[np.ndarray, float]:
    """Lowest `count` eigenvalues of the benchmark's own finite-difference
    matrix (LAPACK stebz via scipy) and the matrix's infinity-norm bound."""
    x = oracle_grid(B, p)
    h = x[1] - x[0]
    diag = 2.0 / (h * h) + potential_ref(x, B, p)
    off = np.full(x.size - 1, -1.0 / (h * h))
    vals = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(0, count - 1))
    norm = float(np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off)))
    return vals, norm


def orthogonality_cutoff_ref(B: Fraction, p: Fraction) -> float:
    """|overlap| of the unit-norm psi_0, psi_1 that the orthogonality check's
    grid drops at its lower end: f(c) (c / (2B/p + 1) + h/2), with f = psi_0
    psi_1 ~ x^(2B/p) read off the benchmark's own eigenvectors at the check's
    lower end c."""
    x = oracle_grid(B, p)
    h = x[1] - x[0]
    diag = 2.0 / (h * h) + potential_ref(x, B, p)
    off = np.full(x.size - 1, -1.0 / (h * h))
    _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))
    vecs /= np.sqrt(h)  # unit norm under the trapezoid rule
    lo, hi, n_points = ORTHOGONALITY_GRID
    c = lo / float(p)
    h_check = (hi / float(p) - c) / (n_points + 1)
    f_c = float(np.interp(c, x, vecs[:, 0] * vecs[:, 1]))
    return abs(f_c * (c / (2 * float(B / p) + 1) + h_check / 2))


# --------------------------------------------------------------------- checks

def _close(a: float, b: float, rtol: float = 1e-11) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]


def _check_spectrum(op, text: str, v: Verdict) -> None:
    n_max = n_max_ref(op.B, op.p)
    levels = [level_ref(n, op.B, op.p) for n in range(n_max + 1)]
    if op.fmt == "json":
        d = json.loads(text)
        got = [(lv["n"], lv["E_exact"]) for lv in d["levels"]]
        if got != [(n, str(e)) for n, e in enumerate(levels)]:
            v.problems.append("spectrum levels differ from 8np(2B+3p-2np)")
        if d["n_max"] != n_max or d["asymptote_exact"] != str(asymptote_ref(op.B, op.p)):
            v.problems.append("spectrum n_max or asymptote differs from the reference")
    else:
        rows = _csv_rows(text)
        ok = rows[0] == ["n", "E"] and len(rows) == n_max + 2 and all(
            int(r[0]) == n and _close(float(r[1]), float(e))
            for n, (r, e) in enumerate(zip(rows[1:], levels)))
        if not ok:
            v.problems.append("spectrum CSV levels differ from 8np(2B+3p-2np)")


def _check_minimum(op, text: str, v: Verdict) -> None:
    if op.fmt == "json":
        d = json.loads(text)
        x0, v_min = d["x0"], d["V_min"]
    else:
        table = dict(_csv_rows(text)[1:])
        x0, v_min = float(table["x0"]), float(table["V_min"])
    around = potential_ref(np.array([x0 * (1 - 1e-3), x0, x0 * (1 + 1e-3)]), op.B, op.p)
    scale = float(asymptote_ref(op.B, op.p))
    if not (v_min < 0 and abs(around[1] - v_min) <= V_RTOL * max(abs(v_min), scale)
            and around[1] <= min(around[0], around[2])):
        v.problems.append(f"minimum (x0={x0}, V_min={v_min}) is not the minimum of V")


def _check_eigenfunction(op, text: str, v: Verdict) -> None:
    sigma, tau = -(op.B + op.p) / op.p, op.B / op.p
    if op.fmt == "json":
        d = json.loads(text)
        f = d["form"]
        shape = (Fraction(*f["sigma"]), Fraction(*f["tau"]), len(f["coeffs"]), d["n"])
        xs = np.array([s["x"] for s in d["samples"]])
        psi = np.array([s["psi"] for s in d["samples"]])
    else:
        head = dict(kv.split("=", 1) for kv in text.splitlines()[0][2:].split())
        coeffs = text.splitlines()[1].split("=", 1)[1].split(";")
        shape = (Fraction(head["sigma"]), Fraction(head["tau"]), len(coeffs), int(head["n"]))
        rows = np.array(_csv_rows(text)[1:], dtype=float)
        xs, psi = rows[:, 0], rows[:, 1]
    if shape != (sigma, tau, 2 * op.state + 1, op.state):
        v.problems.append(f"eigenfunction form (sigma, tau, terms, n) = {shape}")
    if xs.size != GRID_POINTS:
        v.problems.append(f"eigenfunction has {xs.size} samples, not {GRID_POINTS}")
        return
    h = (xs[-1] - xs[0]) / (xs.size - 1)
    norm = float(h * np.dot(psi, psi))
    if not abs(norm - 1.0) <= NORM_TOL:
        v.problems.append(f"eigenfunction trapezoid norm {norm!r} is not 1")


def _check_figure(op, text: str, v: Verdict) -> None:
    n_max = n_max_ref(op.B, op.p)
    levels = [float(level_ref(n, op.B, op.p)) for n in range(n_max + 1)]
    if op.fmt == "json":
        d = json.loads(text)
        xs, vs = np.array(d["x"]), np.array(d["V"])
        got_levels = [lv["E"] for lv in d["levels"]]
    else:
        rows = _csv_rows(text)
        if rows[0] != ["x", "V"] + [f"E{n}" for n in range(n_max + 1)] + ["asymptote"]:
            v.problems.append("figure CSV header does not list one level per bound state")
            return
        body = rows[1:]
        xs = np.array([float(r[0]) for r in body])
        vs = np.array([float(r[1]) for r in body])
        got_levels = [next((float(r[n + 2]) for r in body if r[n + 2]), None)
                      for n in range(n_max + 1)]
    if xs.size != GRID_POINTS:
        v.problems.append(f"figure has {xs.size} rows, not {GRID_POINTS}")
        return
    ref = potential_ref(xs, op.B, op.p)
    scale = np.maximum(np.abs(ref), float(asymptote_ref(op.B, op.p)))
    bad = np.flatnonzero(~(np.abs(vs - ref) <= V_RTOL * scale))
    if bad.size:
        i = int(bad[0])
        v.problems.append(f"figure V({xs[i]!r}) = {vs[i]!r}, reference {ref[i]!r}")
    if len(got_levels) != len(levels) or not all(
            g is not None and _close(g, e) for g, e in zip(got_levels, levels)):
        v.problems.append("figure level lines differ from 8np(2B+3p-2np)")


def _node_mismatches(detail: str) -> list[tuple[int, int]]:
    m = re.search(r"mismatches (\[.*\])", detail)
    return ast.literal_eval(m.group(1)) if m else []


def _known_defect(op, name: str, detail: str) -> "str | None":
    """The known defect that explains a failed check, if one does."""
    if name == "node-count":
        bad = _node_mismatches(detail)
        if bad and min(n for n, _ in bad) >= FLOAT64_NODE_FIRST_STATE:
            return FLOAT64_NODE_DEFECT
    if name in STENCIL_CHECKS and grid_stretched_ref(op.B, op.p):
        return STRETCHED_GRID_DEFECT
    if name == "orthogonality":
        m = re.search(r"max \|overlap\| = (\S+) at pair \(0, 1\)", detail)
        if m:
            dropped = orthogonality_cutoff_ref(op.B, op.p)
            if abs(float(m.group(1)) - dropped) <= ORTHOGONALITY_CUTOFF_RTOL * dropped:
                return ORTHOGONALITY_CUTOFF_DEFECT
    return None


def _check_validate(op, outcome: Outcome, v: Verdict) -> None:
    d = json.loads(outcome.text)
    checks = {c["name"]: c for c in d["checks"]}
    passed = all(c["passed"] for c in d["checks"])
    if d["passed"] != passed or outcome.exit_code != (0 if passed else 1):
        v.problems.append(f"validate exit code {outcome.exit_code} with passed={d['passed']}")
    n_max = n_max_ref(op.B, op.p)
    must_pass = checks if n_max == 1 else MODEL_TRUE_CHECKS
    for name in must_pass:
        c = checks.get(name)
        if c is None:
            v.problems.append(f"validate report lacks check '{name}'")
        elif not c["passed"]:
            defect = _known_defect(op, name, c["detail"])
            if defect is None:
                v.problems.append(f"check '{name}' failed: {c['detail']}")
            elif defect not in v.known:
                v.known.append(defect)
    numeric = [row["numeric"] for row in d["extras"]["energy_comparison"]]
    if len(numeric) != n_max + 1:
        v.problems.append(f"validate compared {len(numeric)} levels, n_max = {n_max}")
        return
    ref, norm = reference_energies(op.B, op.p, n_max + 1)
    dev = float(np.max(np.abs(np.array(numeric) - ref)))
    v.energy_dev = dev
    if not dev <= ORACLE_REL_TOL * norm:
        v.problems.append(
            f"oracle energies differ from LAPACK by {dev:.3e} > {ORACLE_REL_TOL * norm:.3e}")


_CHECKERS = {
    "spectrum": _check_spectrum,
    "minimum": _check_minimum,
    "eigenfunction": _check_eigenfunction,
    "figure": _check_figure,
}


def check(op, outcome: Outcome) -> Verdict:
    v = Verdict()
    if outcome.error is not None:
        v.problems.append("raised: " + outcome.error.strip().splitlines()[-1])
        return v
    if outcome.exit_code not in DOCUMENTED_EXIT_CODES:
        v.problems.append(f"undocumented exit code {outcome.exit_code}")
        return v
    try:
        if op.command == "validate":
            _check_validate(op, outcome, v)
        elif outcome.exit_code != 0:
            v.problems.append(f"exit code {outcome.exit_code} on admissible input")
        else:
            _CHECKERS[op.command](op, outcome.text, v)
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # unparseable output
        v.problems.append(f"malformed {op.command} output: {exc!r}")
    return v
