"""Negative controls for the benchmark's output checks.

    python3 -m pytest -q perfbench/controls.py

Each check must accept the program's real output and reject a deliberately
wrong copy of it: one level changed, one V sample scaled by 1.1, one psi
sample scaled, one oracle energy shifted by 1e-3, a report whose exit code
disagrees with its verdict, a failing model-true check, a traceback.  A
known defect is named only where its cause accounts for the failure.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from reference import (FLOAT64_NODE_DEFECT, ORTHOGONALITY_CUTOFF_DEFECT,  # noqa: E402
                       STRETCHED_GRID_DEFECT, Outcome, check)
from worker import invoke  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

from susywell.cli import main as cli  # noqa: E402

DEEP = (Fraction(7), Fraction(1, 2))  # n_max = 7
SHALLOW = (Fraction(3, 5), Fraction(1, 2))  # n_max = 1: every validate check passes
STRETCHED = (Fraction(41, 32), Fraction(1, 2))  # n_max = 2, barely bound: grid ends at 48/p
SOFT = (Fraction(17, 48), Fraction(1, 3))  # n_max = 1, B/p = 17/16: orthogonality fails


def _run(command, fmt="json", state=None, well=DEEP):
    op = Op(command, *well, n_max=0, fmt=fmt, state=state)
    outcome = Outcome(*invoke(cli, op.argv())[1:])
    assert check(op, outcome).problems == []  # the real output passes
    return op, outcome


def _rejected(op, outcome, text=None, exit_code=None):
    bad = Outcome(outcome.exit_code if exit_code is None else exit_code,
                  outcome.text if text is None else text)
    return check(op, bad).problems


def _csv_edit(text, row, col, fn):
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row] = ",".join(cells)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def shallow_validate():
    return _run("validate", well=SHALLOW)


def test_spectrum_level_changed():
    op, out = _run("spectrum")
    d = json.loads(out.text)
    d["levels"][3]["E_exact"] = str(Fraction(d["levels"][3]["E_exact"]) + 1)
    assert _rejected(op, out, json.dumps(d))
    op, out = _run("spectrum", "csv")
    assert _rejected(op, out, _csv_edit(out.text, 4, 1, lambda e: e * (1 + 1e-9)))


def test_figure_v_sample_scaled():
    op, out = _run("figure")
    d = json.loads(out.text)
    d["V"][5000] *= 1.1
    assert _rejected(op, out, json.dumps(d))
    op, out = _run("figure", "csv")
    assert _rejected(op, out, _csv_edit(out.text, 5001, 1, lambda v: v * 1.1))


def test_eigenfunction_not_unit_norm():
    op, out = _run("eigenfunction", state=2)
    d = json.loads(out.text)
    peak = max(range(len(d["samples"])), key=lambda i: abs(d["samples"][i]["psi"]))
    d["samples"][peak]["psi"] *= 1.1
    assert _rejected(op, out, json.dumps(d))
    op, out = _run("eigenfunction", "csv", state=2)
    assert _rejected(op, out, _csv_edit(out.text, 3 + peak, 1, lambda v: v * 1.1))


def test_minimum_value_moved():
    op, out = _run("minimum")
    d = json.loads(out.text)
    d["V_min"] *= 1.01
    assert _rejected(op, out, json.dumps(d))


def test_oracle_energy_shifted(shallow_validate):
    op, out = shallow_validate
    d = json.loads(out.text)
    d["extras"]["energy_comparison"][1]["numeric"] += 1e-3
    assert any("LAPACK" in p for p in _rejected(op, out, json.dumps(d)))


def test_validate_exit_code_disagrees(shallow_validate):
    op, out = shallow_validate
    assert _rejected(op, out, exit_code=1)


def test_model_true_check_failing(shallow_validate):
    op, out = shallow_validate
    d = json.loads(out.text)
    for c in d["checks"]:
        if c["name"] == "annihilation":
            c["passed"] = False
    d["passed"] = False
    assert _rejected(op, out, json.dumps(d), exit_code=1)


def test_node_count_defect_is_named_not_hidden(shallow_validate):
    op, out = shallow_validate
    d = json.loads(out.text)
    node = next(c for c in d["checks"] if c["name"] == "node-count")
    node["passed"], d["passed"] = False, False
    node["detail"] = "mismatches [(11, 7), (12, 4)]"
    verdict = check(op, Outcome(1, json.dumps(d)))
    assert verdict.known == [FLOAT64_NODE_DEFECT] and verdict.problems == []
    node["detail"] = "mismatches [(1, 0), (12, 4)]"  # a low state: not the known defect
    assert check(op, Outcome(1, json.dumps(d))).problems


def test_stretched_grid_defect_is_named_only_on_stretched_grids(shallow_validate):
    for (op, out), known in ((_run("validate", well=STRETCHED), [STRETCHED_GRID_DEFECT]),
                             (shallow_validate, [])):
        d = json.loads(out.text)
        for c in d["checks"]:
            if c["name"] in ("annihilation", "intertwining"):
                c["passed"] = False
        d["passed"] = False
        verdict = check(op, Outcome(1, json.dumps(d)))
        assert verdict.known == known and (verdict.problems == []) == bool(known)


def test_orthogonality_cutoff_defect_is_named_only_at_its_size():
    op, out = _run("validate", well=SOFT)
    verdict = check(op, out)
    assert out.exit_code == 1 and verdict.known == [ORTHOGONALITY_CUTOFF_DEFECT]
    d = json.loads(out.text)
    ortho = next(c for c in d["checks"] if c["name"] == "orthogonality")
    overlap = float(ortho["detail"].split("= ")[1].split()[0])
    ortho["detail"] = ortho["detail"].replace(f"{overlap:.3e}", f"{2 * overlap:.3e}")
    assert check(op, Outcome(1, json.dumps(d))).problems


def test_traceback_and_undocumented_exit_code():
    op, out = _run("spectrum")
    assert check(op, Outcome(1, "", error="Traceback ...\nValueError: boom")).problems
    assert _rejected(op, out, exit_code=7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_well_repeats_within_a_run(name):
    ops = list(itertools.islice(WORKLOADS[name].ops(1), 400))
    assert len({(op.B, op.p) for op in ops}) == len(ops)
