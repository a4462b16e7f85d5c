"""Tracing from outside the package: wrap each layer's public functions.

A layer is a module of susywell.  Every public function defined in a layer
module is replaced by a wrapper that records a span (name, start, end, the
span that caused it, and a per-call work count) wherever it is bound: the
module attribute and every `from ... import` copy held by another susywell
module, such as `validate.full_spectrum` or `validate.partner_plus`.  The
click command callbacks are wrapped as the `cli` layer.  Spans stay in memory
until the run ends.  Wrappers stay installed for the life of the process.

A layer's self time is its spans' durations minus the durations of the spans
they caused.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("kernels", "oracle", "hyperpoly", "spectrum", "potential", "analysis", "validate")
COMMANDS = ("validate", "figure", "eigenfunction", "spectrum", "minimum")

# span fields
NAME, LAYER, START, END, PARENT, WORK = range(6)


def _work(name, args):
    """Per-call work count, read from the arguments before the call."""
    if name == "kernels.sturm_counts":  # Sturm pivots: rows x shifts
        return len(args[0]) * np.size(args[2])
    if name == "kernels.shifted_tridiag_solve":
        return len(args[0])
    if name == "hyperpoly.candidate_form":  # the form's identity
        return f"{args[0]} {args[1].B} {args[1].p}"
    if name == "hyperpoly.apply_creation":
        return len(args[0].coeffs)
    if name.startswith("hyperpoly.evaluate"):  # (points, points x terms)
        n = int(np.size(args[1]))
        return (n, n * len(args[0].coeffs))
    if name.startswith("potential.") and args:
        return int(np.size(args[0]))
    return None


class Tracer:
    """Installs span-recording wrappers; `spans` collects one list per call."""

    def __init__(self, cli_group):
        self.cli_group = cli_group
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, layer, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, _work(name, args)]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"susywell.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    targets[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", layer, obj))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "susywell" or n.startswith("susywell.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    setattr(module, attr, targets[id(obj)][1])
        for cmd_name, cmd in self.cli_group.commands.items():
            cmd.callback = self._wrap(f"cli.{cmd_name}", "cli", cmd.callback)


def _outermost(spans, pick):
    """Indices of picked spans with no picked ancestor (no double counting
    when, e.g., evaluate calls evaluate_scaled)."""
    chosen = [pick(s) for s in spans]
    out = []
    for i, s in enumerate(spans):
        if not chosen[i]:
            continue
        j = s[PARENT]
        while j >= 0 and not chosen[j]:
            j = spans[j][PARENT]
        if j < 0:
            out.append(i)
    return out


def layer_metrics(spans, traced_wall: float, untraced_wall: float,
                  output_bytes: int, energy_dev: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one run's spans."""
    dur = [s[END] - s[START] for s in spans]
    self_time = list(dur)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= dur[i]
    layer_self = defaultdict(float)
    for s, t in zip(spans, self_time):
        layer_self[s[LAYER]] += t

    def group(pick):
        idx = _outermost(spans, pick)
        return idx, sum(dur[i] for i in idx)

    def named(name):
        return group(lambda s: s[NAME] == name)

    def children(parent_name, child_name):
        return sum(1 for s in spans
                   if s[NAME] == child_name and s[PARENT] >= 0
                   and spans[s[PARENT]][NAME] == parent_name)

    m = {}
    sturm, sturm_s = named("kernels.sturm_counts")
    solve, solve_s = named("kernels.shifted_tridiag_solve")
    m["kernels.sturm_counts.calls"] = (len(sturm), "count")
    m["kernels.sturm_counts.s"] = (sturm_s, "s")
    m["kernels.sturm_pivots"] = (sum(spans[i][WORK] for i in sturm), "count")
    m["kernels.tridiag_solve.calls"] = (len(solve), "count")
    m["kernels.tridiag_solve.s"] = (solve_s, "s")
    m["kernels.tridiag_rows"] = (sum(spans[i][WORK] for i in solve), "count")

    lowest, lowest_s = named("oracle.lowest_eigenvalues")
    vec, vec_s = named("oracle.eigenvector_for")
    m["oracle.lowest_eigenvalues.calls"] = (len(lowest), "count")
    m["oracle.lowest_eigenvalues.s"] = (lowest_s, "s")
    m["oracle.bisect_rounds"] = (
        children("oracle.lowest_eigenvalues", "kernels.sturm_counts") / max(len(lowest), 1),
        "calls/solve")
    m["oracle.eigenvector_for.calls"] = (len(vec), "count")
    m["oracle.eigenvector_for.s"] = (vec_s, "s")
    m["oracle.inverse_steps"] = (
        children("oracle.eigenvector_for", "kernels.shifted_tridiag_solve") / max(len(vec), 1),
        "solves/vector")
    m["oracle.build_hamiltonian.s"] = (named("oracle.build_hamiltonian")[1], "s")
    m["oracle.self_s"] = (layer_self["oracle"], "s")
    m["oracle.energy_max_dev"] = (energy_dev, "energy")

    cand = [s for s in spans if s[NAME] == "hyperpoly.candidate_form"]
    distinct = len({s[WORK] for s in cand})
    creation, creation_s = named("hyperpoly.apply_creation")
    ev, ev_s = group(lambda s: s[NAME].startswith("hyperpoly.evaluate"))
    m["hyperpoly.candidate_form.calls"] = (len(cand), "count")
    m["hyperpoly.forms_distinct"] = (distinct, "count")
    m["hyperpoly.form_reuse"] = (distinct / max(len(cand), 1), "ratio")
    m["hyperpoly.apply_creation.calls"] = (len(creation), "count")
    m["hyperpoly.apply_creation.s"] = (creation_s, "s")
    m["hyperpoly.creation_terms"] = (sum(spans[i][WORK] for i in creation), "count")
    m["hyperpoly.evaluate.calls"] = (len(ev), "count")
    m["hyperpoly.evaluate.s"] = (ev_s, "s")
    m["hyperpoly.eval_points"] = (sum(spans[i][WORK][0] for i in ev), "count")
    m["hyperpoly.eval_term_points"] = (sum(spans[i][WORK][1] for i in ev), "count")
    m["hyperpoly.self_s"] = (layer_self["hyperpoly"], "s")

    full, full_s = named("spectrum.full_spectrum")
    m["spectrum.full_spectrum.calls"] = (len(full), "count")
    m["spectrum.full_spectrum.s"] = (full_s, "s")

    pot, pot_s = group(lambda s: s[LAYER] == "potential")
    m["potential.calls"] = (len(pot), "count")
    m["potential.s"] = (pot_s, "s")
    m["potential.points"] = (sum(spans[i][WORK] or 0 for i in pot), "count")

    fm, fm_s = named("analysis.find_minimum")
    m["analysis.find_minimum.calls"] = (len(fm), "count")
    m["analysis.find_minimum.s"] = (fm_s, "s")

    m["validate.run_validation.s"] = (named("validate.run_validation")[1], "s")
    m["validate.self_s"] = (layer_self["validate"], "s")

    for cmd in COMMANDS:
        m[f"cli.{cmd}.s"] = (named(f"cli.{cmd}")[1], "s")
    m["cli.self_s"] = (layer_self["cli"], "s")
    m["cli.output_bytes"] = (output_bytes, "bytes")

    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    m["trace.coverage"] = (sum(layer_self.values()) / traced_wall, "ratio")
    return m


# metrics that must be nonzero once a command has run: a layer the command
# exercises that records nothing means a binding escaped the wrappers
EXPECTED = {
    "validate": (
        "kernels.sturm_counts.calls", "kernels.tridiag_solve.calls",
        "oracle.lowest_eigenvalues.calls", "oracle.eigenvector_for.calls",
        "oracle.build_hamiltonian.s", "hyperpoly.candidate_form.calls",
        "hyperpoly.apply_creation.calls", "hyperpoly.evaluate.calls",
        "spectrum.full_spectrum.calls", "potential.calls", "analysis.find_minimum.calls",
        "validate.run_validation.s", "cli.validate.s",
    ),
    "figure": ("hyperpoly.candidate_form.calls", "hyperpoly.apply_creation.calls",
               "hyperpoly.evaluate.calls", "spectrum.full_spectrum.calls", "potential.calls",
               "cli.figure.s"),
    "eigenfunction": ("hyperpoly.candidate_form.calls", "hyperpoly.evaluate.calls",
                      "cli.eigenfunction.s"),
    "spectrum": ("spectrum.full_spectrum.calls", "cli.spectrum.s"),
    "minimum": ("analysis.find_minimum.calls", "potential.calls", "cli.minimum.s"),
}


def self_check(metrics: dict, commands) -> list[str]:
    """Expected metrics that stayed zero for the commands that ran."""
    expected = {name for cmd in commands for name in EXPECTED[cmd]}
    return sorted(name for name in expected if not metrics[name][0] > 0)
