"""Mutation check: every mutant below must make its tests fail.

A mutant is one exact text edit of one file under src/: (name, file, old
text, new text, pytest arguments).  Each is applied to a fresh copy of
src/ in a temporary directory, and its tests run against that copy.  The
check fails when a mutant survives, when its old text does not occur
exactly once (the code moved: update the mutant or remove it), or when a
control, an edit that changes no behaviour, is killed (the harness would
then be counting failures that are not the mutant's).

This file is outside tier-1 collection (pytest collects only test_*.py).
Run it from anywhere:

    python tests/mutants/run.py            # every mutant
    python tests/mutants/run.py NAME ...   # only these

It prints one line per mutant and exits 1 on any failure of the check.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/susywell
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments, paths relative to the repository
    control: bool = False  # an equivalent mutant: it must survive


_NODES = ("tests/test_hyperpoly.py", "-k", "proven or bisection or node_counts")
_PARTNERS = ("tests/test_potential.py", "tests/test_validate.py", "-k",
             "partner or shape or hyperbolic")
_THOMAS = ("tests/test_kernels.py", "-k", "solve or factor")
_STURM = ("tests/test_kernels.py", "-k", "counts or pivots")
_BISECT = ("tests/test_oracle.py", "-k", "bisection or cuts or passes or infinity")
_GATE = ("tests/test_hyperpoly.py", "tests/test_cli.py", "-k",
         "top_coefficient or capped or builds_no_form")
_WRITER = ("tests/test_cli.py", "-k", "raw_values or json")
_ALONE = ("tests/test_kernels.py", "-k", "counts or pivot or paths or walkers or exit")
_RQ = ("tests/test_validate.py", "-k", "rayleigh or count_calls")

MUTANTS = (
    # node counts proven at dyadic points (hyperpoly._proven_roots)
    Mutant("grid sign flipped", "hyperpoly.py",
           "if v and (v > 0) != positive:", "if v and (v < 0) != positive:", _NODES),
    Mutant("start sign flipped", "hyperpoly.py",
           "found, positive = 0, q[0] > 0", "found, positive = 0, q[0] < 0", _NODES),
    Mutant("parity stop <= for ==", "hyperpoly.py",
           "if found == changes - 1:", "if found <= changes - 1:", _NODES),
    Mutant("parity stop one change early", "hyperpoly.py",
           "if found == changes - 1:", "if found == changes - 2:", _NODES),
    Mutant("zeros at the origin kept", "hyperpoly.py",
           "q = q[next(i for i, c in enumerate(q) if c):]", "q = tuple(q)", _NODES),
    Mutant("scale by 2^(-e i) below 1", "hyperpoly.py",
           "-e * (d - i)) for i, c", "-e * i) for i, c", _NODES),
    Mutant("grid starts at y = 1", "hyperpoly.py",
           "lo, hi = -_root_bound(q[::-1]), _root_bound(q)", "lo, hi = 0, _root_bound(q)",
           _NODES),
    # found rises by one from 0 and is tested after every rise, so it reaches
    # changes - 1 exactly where >= first holds
    Mutant("parity stop >= for ==", "hyperpoly.py",
           "if found == changes - 1:", "if found >= changes - 1:", _NODES, control=True),
    # the four hyperbolic arrays shared across partner-potential calls
    Mutant("memo ignores p", "potential.py",
           "if last is not None and last[0] == p and np.array_equal(last[1], arr):",
           "if last is not None and np.array_equal(last[1], arr):", _PARTNERS),
    Mutant("memo holds the caller's array", "potential.py",
           "_last_terms = (p, arr.copy(), terms)", "_last_terms = (p, arr, terms)", _PARTNERS),
    Mutant("W' summed in another order", "potential.py",
           "wp = 3.0 * p * A * sech2_3u + p * B * csch2_u",
           "wp = 3.0 * p * (A * sech2_3u) + p * B * csch2_u", _PARTNERS),
    # one Thomas factorization per inverse iteration (kernels)
    Mutant("zero pivot clamped to -pivmin", "kernels.py",
           "den = pivmin if den >= 0.0 else -pivmin\n        pv[i] = den",
           "den = pivmin if den > 0.0 else -pivmin\n        pv[i] = den", _THOMAS),
    Mutant("forward sweep reads off one row late", "kernels.py",
           "np.append(0.0, off)", "np.append(off, 0.0)", _THOMAS),
    Mutant("comment reworded", "kernels.py",
           "# row -1's off-diagonal entry and y are 0.0,",
           "# row -1's off-diagonal entry and y are zero,", _THOMAS, control=True),
    # the Sturm count walks row 0 in its block loop, from a virtual row -1
    # with pivot +inf and off-diagonal entry 0.0 (kernels._count_below)
    Mutant("off_rows padded at the end", "kernels.py",
           "np.append(0.0, off_squared)", "np.append(off_squared, 0.0)", _ALONE),
    Mutant("blocks from row 1 again", "kernels.py",
           "for start in range(0, n, _BLOCK_ROWS):", "for start in range(1, n, _BLOCK_ROWS):",
           _STURM),
    Mutant("fallback reads off_rows one row early", "kernels.py",
           "off_rows[start + r + 1:stop]", "off_rows[start + r:stop]", _STURM),
    # row -1 meets off-diagonal entry 0.0, and 0.0 / 1.0 == 0.0 / inf
    Mutant("row -1 carries 1.0", "kernels.py",
           "carry.fill(np.inf)", "carry.fill(1.0)", _STURM, control=True),
    # narrow batches and long walkers go through the scalar walk
    # (kernels._count_alone, kernels.sturm_counts)
    Mutant("scalar clamp with <=", "kernels.py",
           "if pivot < pivmin:", "if pivot <= pivmin:", _ALONE),
    Mutant("scalar exit reads edge[start]", "kernels.py",
           "pivot >= edge[start - 1]", "pivot >= edge[start]", _ALONE),
    Mutant("long-walker test with <", "kernels.py",
           "~(shifts <= tail[last])", "~(shifts < tail[last])", _ALONE),
    # nested cuts around the Rayleigh quotients of psi_0 and psi_1
    # (validate._check_convergence, validate._rq_cuts)
    Mutant("Rayleigh cuts above the top cut", "validate.py",
           "for s in (c - tol * 8.0**k, c + tol * 8.0**k) if s < ceiling]",
           "for s in (c - tol * 8.0**k, c + tol * 8.0**k)]", _RQ),
    # the same floats, but the cuts miss the grid's levels: only the count of
    # calls sees it
    Mutant("cuts centred on the closed-form levels", "validate.py",
           "centres = [_rayleigh(H, psi)\n"
           "                   for psi in hyperpoly.sample_forms(well.forms[:2], H.grid.points())]",
           "centres = [float(e) for _, e in well.spec.levels[:2]]", _RQ),
    # a grid spacing whose square overflows float64 is a GridError
    # (oracle.build_hamiltonian)
    Mutant("no h^2 guard", "oracle.py",
           "    try:\n        inv_h2 = 1.0 / grid.h**2\n    except OverflowError:\n"
           "        raise GridError(",
           "    inv_h2 = 1.0 / grid.h**2\n    if False:\n        raise GridError(",
           ("tests/test_oracle.py", "tests/test_cli.py", "-k", "spacing or bad_grid")),
    # one sorted table of known Sturm counts decides every bisection level
    # (oracle.lowest_eigenvalues, oracle._multisection_pass)
    Mutant("table lookup side='left'", "oracle.py",
           'known.counts[np.searchsorted(known.shifts, mid, side="right") - 1]',
           'known.counts[np.searchsorted(known.shifts, mid, side="left") - 1]', _BISECT),
    Mutant("pass filter without m", "oracle.py",
           "c[at] < np.minimum(c[at + 1], m)", "c[at] < c[at + 1]", _BISECT),
    Mutant("pass filter with <=", "oracle.py",
           "c[at] < np.minimum(c[at + 1], m)", "c[at] <= np.minimum(c[at + 1], m)", _BISECT),
    Mutant("pass filter without the known-shift test", "oracle.py",
           "shifts[(known.shifts[at] < shifts) & (c[at]", "shifts[(c[at]", _BISECT),
    Mutant("pass counts not merged into the table", "oracle.py",
           "known = Cuts(np.insert(known.shifts, at, shifts), "
           "np.insert(known.counts, at, counts))", "known = known", _BISECT),
    Mutant("n - 1 at +inf", "oracle.py",
           "([0], cuts.counts, [n])", "([0], cuts.counts, [n - 1])", _BISECT),
    # the one float64 gate for exact forms (hyperpoly.ladder_forms) and the
    # top coefficient's log2 sum it reads (hyperpoly._top_bits)
    Mutant("no top test in ladder_forms", "hyperpoly.py",
           "if n <= n_max and _top_bits(n, params) > 1025:", "if False:", _GATE),
    Mutant("top threshold 1026", "hyperpoly.py",
           "_top_bits(n, params) > 1025:", "_top_bits(n, params) > 1026:", _GATE),
    Mutant("top threshold 1023.99", "hyperpoly.py",
           "_top_bits(n, params) > 1025:", "_top_bits(n, params) > 1023.99:", _GATE),
    Mutant("order ignored", "hyperpoly.py",
           "_check_range(form, order)", "_check_range(form, 0)", _GATE),
    Mutant("log2(p) for log2(p/2)", "hyperpoly.py",
           "math.log2(p.denominator) - 1\n", "math.log2(p.denominator)\n", _GATE),
    # one integer fraction per level (spectrum.full_spectrum)
    Mutant("level denominator b*e for b*e^2", "spectrum.py",
           "be2 = a * e, c * b, b * e * e", "be2 = a * e, c * b, b * e",
           ("tests/test_spectrum.py",)),
    # the JSON writer lays each top-level value out in place (cli._json_text)
    Mutant("nested JSON value not re-indented", "cli.py",
           'allow_nan=False).replace("\\n", "\\n  ")', "allow_nan=False)", _WRITER),
    # each number's spec in the JSON writer: a value outside any clause of
    # the superset test takes `%.12g` (cli._specs)
    Mutant("non-finite values take %.12g", "cli.py", "~np.isfinite(a) | ", "", _WRITER),
    Mutant("values below the smallest normal take %.12g", "cli.py", "(a < _TINY) | ", "",
           _WRITER),
    Mutant("the 1e11 band takes %.12g", "cli.py",
           "np.where(a < 1e11, near, a < 1e16)", "np.where(a < 1e11, near, False)", _WRITER),
    Mutant("near-integers take %.12g", "cli.py",
           "np.where(a < 1e11, near, a < 1e16)", "np.where(a < 1e11, False, a < 1e16)", _WRITER),
    Mutant("band capped at 1e15", "cli.py", "a < 1e16)", "a < 1e15)", _WRITER),
    Mutant("13-digit integers take %.1f", "cli.py", "(a < 1e12), 1,", "(a < 1e13), 1,", _WRITER),
    Mutant("x and psi swapped in the pair layout", "cli.py",
           '"x": %.12g,\\n      "psi": %.12g', '"psi": %.12g,\\n      "x": %.12g', _WRITER),
    # a wider near-integer test writes more values as text, with the same bytes
    Mutant("near-integer tolerance 1e-9", "cli.py", "<= 1e-10 * a", "<= 1e-9 * a", _WRITER,
           control=True),
    # sample_forms draws every form before it samples any
    Mutant("each form sampled as it is drawn", "hyperpoly.py",
           "    forms = list(forms)\n"
           "    if len({form.p for form in forms}) != 1:\n"
           '        raise ValueError("sample_forms needs a nonempty list of forms with one p")\n'
           "    pts = _points(forms[0].p, x)\n"
           "    for form in forms:\n",
           "    forms = iter(forms)\n"
           "    first = next(forms)\n"
           "    pts = _points(first.p, x)\n"
           "    for form in (f for part in ((first,), forms) for f in part):\n",
           ("tests/test_cli.py", "-k", "builds_no_form")),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'stale'."""
    with tempfile.TemporaryDirectory(prefix="susywell-mutant-") as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "susywell" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "stale"
        path.write_text(text.replace(mutant.old, mutant.new))
        # the copy replaces src/ on the path; the run writes its caches in tmp
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT),
               "-o", f"pythonpath={src}",
               *(str(ROOT / t) if t.startswith("tests/") else t for t in mutant.tests)]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True)
        if done.returncode not in (0, 1):  # 1: a test failed; 5: none collected
            raise RuntimeError(f"pytest exited {done.returncode} on mutant "
                               f"{mutant.name!r}:\n{done.stdout.decode()[-2000:]}")
        return "survived" if done.returncode == 0 else "killed"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutant named {sorted(unknown)}", file=sys.stderr)
        return 2
    failures = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        outcome = run(mutant)
        expect = "survived" if mutant.control else "killed"
        ok = outcome == expect
        failures += not ok
        kind = "control" if mutant.control else "mutant"
        print(f"{'ok  ' if ok else 'FAIL'} {kind} {mutant.name!r}: {outcome} "
              f"({time.perf_counter() - start:.1f} s, {mutant.file})", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
