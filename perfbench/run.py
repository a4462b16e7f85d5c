"""susywell benchmark: seeded CLI workloads, timed end to end, checked op by op.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Load model: one client, closed loop.  Each command starts after the
previous one has returned.  The commands run in a worker process
(perfbench/worker.py) that imports only susywell and calls the click group
in-process (`susywell.cli.main`, standalone_mode=False, stdout captured), so
the timings measure the program and not interpreter start-up, which
`setup_s` measures on its own, and `peak_rss_mb` is the worker's.  This
process checks each output while the worker waits for the next command.  The
benchmark starts no threads.

--trace 0 runs the workload for --seconds, and for at least the workload's
minimum number of operations, up to the end of a batch (tables: four passes),
and prints the end-to-end metrics.  --trace 1 runs a fixed prefix of the same
workload, so its counts repeat exactly, twice: once in an untraced worker and
once in a traced one (the tracing overhead is the wall-time ratio of the two
passes; two outputs of one operation that differ count as a failure), and
prints the per-layer metrics.

Every operation's output is checked against perfbench/reference.py.  The
next-to-last stdout line is a JSON record of the environment, the well of
every operation, per-command medians, failures by known defect and a sha256
of every output; the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

from reference import Outcome, check
from tracing import layer_metrics, self_check
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 21
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
              "NUMBA_NUM_THREADS", "OMP_THREAD_LIMIT")


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing susywell.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    cmd = [sys.executable, "-c", "import susywell.cli"]
    subprocess.run(cmd, env=env, check=True, cwd=ROOT)  # byte-compile once, untimed
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(seed: int) -> dict:
    sys.path.insert(0, str(SRC))
    from susywell import kernels

    def run(args):
        try:
            out = subprocess.run(args, capture_output=True, text=True, cwd=ROOT, timeout=30,
                                 env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "numba_enabled": kernels.NUMBA_ENABLED,
        "SUSYWELL_PURE_NUMPY": os.environ.get("SUSYWELL_PURE_NUMPY"),
        "nproc": run(["nproc"]) if shutil.which("nproc") else None,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "git_commit": run(["git", "rev-parse", "HEAD"]) if shutil.which("git") else None,
        "machine": platform.machine(),
        "seed": seed,
    }


class Worker:
    """A worker process (worker.py) that runs this run's commands."""

    def __init__(self, trace: bool = False):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")] + (["--trace"] if trace else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True)

    def _ask(self, request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended with exit code {self.proc.wait()}")
        return json.loads(line)

    def run(self, op) -> tuple[float, Outcome]:
        reply = self._ask(op.argv())
        return reply["seconds"], Outcome(reply["exit_code"], reply["text"], reply["error"])

    def finish(self) -> dict:
        """Stop the worker; returns its peak RSS (MB) and its spans."""
        reply = self._ask(None)
        self.proc.wait()
        return reply

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Record:
    """Everything one run observed, op by op."""

    def __init__(self):
        self.ops = []  # (op, seconds, Verdict)
        self.digests = []
        self.output_bytes = 0

    def add(self, op, seconds, outcome):
        data = outcome.text.encode()
        self.output_bytes += len(data)
        self.digests.append(hashlib.sha256(data).hexdigest())
        self.ops.append((op, seconds, check(op, outcome)))

    @property
    def failed(self):
        return sum(1 for _, _, v in self.ops if v.problems)

    def energy_dev(self):
        devs = [v.energy_dev for _, _, v in self.ops if v.energy_dev is not None]
        return max(devs) if devs else 0.0


def tail(latencies):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return {"value": ordered[n - 11], "unit": "s",
            "percentile": round(100.0 * (n - 10) / n, 2), "samples": n}


def summary(record: Record, workload: str, seed: int, setup_s: float) -> dict:
    """The detail record printed before the result line."""
    by_cmd = {}
    for op, secs, _ in record.ops:
        by_cmd.setdefault(op.command, []).append(secs)
    known = {}
    for op, _, v in record.ops:
        for name in v.known:
            known.setdefault(name, []).append(op.label())
    failures_all = sum(1 for _, _, v in record.ops if v.problems or v.known)
    return {
        "workload": workload,
        "environment": environment(seed),
        "wells": [f"B={op.B} p={op.p} n_max={op.n_max}" for op, _, _ in record.ops],
        "ops_by_command": {c: len(t) for c, t in by_cmd.items()},
        "latencies_s": [s for _, s, _ in record.ops],
        "latency_p50_s": statistics.median(s for _, s, _ in record.ops),
        "command_p50_s": {f"{c}_p50_s": statistics.median(t) for c, t in by_cmd.items()},
        "latency_tail_s": tail([s for _, s, _ in record.ops]),
        "error_rate": failures_all / len(record.ops),
        "known_defects": known,
        "problems": [f"{op.label()}: {p}" for op, _, v in record.ops for p in v.problems],
        "setup_s": setup_s,
        "digests": record.digests,
    }


def run_timed(ops, seconds, workload):
    """Returns (record, the worker's peak RSS in MB)."""
    record = Record()
    deadline = time.perf_counter() + seconds
    with Worker() as worker:
        for op in ops:
            done = len(record.ops)
            if (done >= workload.min_ops and done % workload.batch == 0
                    and time.perf_counter() >= deadline):
                break
            record.add(op, *worker.run(op))
        return record, worker.finish()["peak_rss_mb"]


def run_traced(ops, count):
    """The prefix in an untraced worker, then in a traced one; returns
    (record, spans, untraced s, traced s)."""
    prefix = list(itertools.islice(ops, count))
    with Worker() as worker:
        plain = [worker.run(op) for op in prefix]
        worker.finish()
    record = Record()
    with Worker(trace=True) as worker:
        for op, (_, plain_out) in zip(prefix, plain):
            record.add(op, *worker.run(op))
            if hashlib.sha256(plain_out.text.encode()).hexdigest() != record.digests[-1]:
                record.ops[-1][2].problems.append("output bytes differ between two identical calls")
        spans = worker.finish()["spans"]
    return record, spans, sum(s for s, _ in plain), sum(s for _, s, _ in record.ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "susywell" / "cli.py").is_file():
        print(f"susywell sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    setup_s = measure_setup()
    ops = workload.ops(args.seed)
    if args.trace:
        record, spans, plain_wall, traced_wall = run_traced(ops, workload.traced_ops)
        layers = layer_metrics(spans, traced_wall, plain_wall,
                               record.output_bytes, record.energy_dev())
        missing = self_check(layers, {op.command for op, _, _ in record.ops})
        if missing:
            print(f"layer self-check failed, no work recorded for: {missing}", file=sys.stderr)
            return 1
        spans_out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_out.parent.mkdir(exist_ok=True)
        spans_out.write_text(json.dumps(spans))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        record, peak_rss_mb = run_timed(ops, args.seconds, workload)
        latencies = [s for _, s, _ in record.ops]
        metrics = {
            "throughput_ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "ops/s"},
            # the geometric mean, not the median: the tables mix spans three
            # decades, so its median sits on a steep step between command
            # kinds and jumps with the mix; the geometric mean averages every
            # command of the run (the median stays in the detail record)
            "latency_geomean_s": {"value": statistics.geometric_mean(latencies), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps(summary(record, args.workload, args.seed, setup_s)))
    print(json.dumps({"correct": record.failed == 0, "attempted": len(record.ops),
                      "failed": record.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
