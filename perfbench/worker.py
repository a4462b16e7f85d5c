"""Benchmark worker: runs susywell CLI commands in-process, one at a time.

    python3 perfbench/worker.py [--trace]

Reads one JSON request per line on stdin: the argv of a susywell command, or
null to stop.  Answers each command with one JSON line
{"seconds", "exit_code", "text", "error"} and the final null with
{"peak_rss_mb", "spans"}.  This process imports susywell and nothing of the
checker, so its peak resident memory is the program's; the caller checks
the outputs.  With --trace every layer is wrapped (tracing.py) before the
first command, and the spans of all commands come back with the final answer.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import click

HERE = Path(__file__).resolve().parent


# one pair of capture buffers for every command: click caches each stdout
# object it writes to in a WeakKeyDictionary whose value is that same object,
# so a fresh buffer per command would never be freed, and the worker's RSS
# would grow by every command's output (about 4 MB per tables pass)
_OUT, _ERR = io.StringIO(), io.StringIO()


def invoke(cli, argv):
    """Run one command through the click group; returns
    (seconds, exit code, stdout text, traceback text or None)."""
    out, err = _OUT, _ERR
    for buf in (out, err):
        buf.seek(0)
        buf.truncate()
    code, error = 0, None
    gc.collect()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rv = cli.main(args=argv, prog_name="susywell", standalone_mode=False)
            code = rv if isinstance(rv, int) else 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:  # usage errors; standalone mode exits with these
            code = exc.exit_code
        except Exception:  # a traceback is a failed operation, not a crash
            error = traceback.format_exc()
    elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue(), error


def main() -> int:
    # answers go to a private copy of stdout; anything else the program
    # writes to file descriptor 1 lands on stderr and cannot garble them
    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from susywell.cli import main as cli

    tracer = None
    if "--trace" in sys.argv[1:]:
        from tracing import Tracer
        tracer = Tracer(cli)
        tracer.install()
    for line in sys.stdin:
        argv = json.loads(line)
        if argv is None:
            break
        seconds, code, text, error = invoke(cli, argv)
        channel.write(json.dumps({"seconds": seconds, "exit_code": code,
                                  "text": text, "error": error}) + "\n")
        channel.flush()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    spans = tracer.spans if tracer else []
    channel.write(json.dumps({"peak_rss_mb": rss_mb, "spans": spans}, default=str) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
