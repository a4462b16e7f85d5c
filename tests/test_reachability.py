"""The five commands reach every public function of the model layers, so
none of them is code that only the tests run."""

import importlib
import inspect
import sys

from click.testing import CliRunner

from susywell.cli import main

LAYERS = ("kernels", "oracle", "hyperpoly", "spectrum", "potential", "analysis", "validate",
          "params")
WELL = ["--B", "3/5", "--p", "1/2"]
COMMANDS = (
    ["spectrum", *WELL],
    ["minimum", *WELL],
    ["eigenfunction", *WELL, "-n", "1"],  # JSON, so decay_exponent runs
    ["figure", *WELL],
    ["validate", *WELL],
)


def _public_functions():
    for layer in LAYERS:
        module = importlib.import_module(f"susywell.{layer}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                yield f"{layer}.{attr}", obj.__code__


def test_commands_reach_every_public_function():
    runner = CliRunner()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        exit_codes = [runner.invoke(main, args).exit_code for args in COMMANDS]
    finally:
        sys.setprofile(previous)
    assert exit_codes == [0] * len(COMMANDS)
    unreached = [name for name, code in _public_functions() if code not in called]
    assert not unreached, f"no command calls {unreached}"
