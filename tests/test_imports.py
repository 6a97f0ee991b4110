"""Start-up cost: what ``import monocal`` and each CLI command load.

Every test runs its imports in a fresh interpreter, so modules that other
tests imported into this process cannot hide a load.
"""

import json
import os
import subprocess
import sys

import pytest

import monocal

SRC = os.path.dirname(os.path.dirname(os.path.abspath(monocal.__file__)))
CLI_MODULES = ["monocal", "monocal.cli", "monocal.core", "monocal.errors"]
SUBMODULES = ("core", "staircase", "losses", "problem", "pav_offline", "online", "anytime",
              "oracle", "_model_commands")


def fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


# The monocal modules loaded, plus ``argparse``, ``csv``, ``dataclasses``,
# ``inspect`` and ``json`` if loaded: only help and an argv that is not plain
# need ``argparse``, only a CSV line that is not plain needs ``csv``, no import
# or command needs the next two (``dataclasses`` imports ``inspect``, and with
# it ``ast``, ``dis`` and ``tokenize``), and only the commands that read or
# write a model need ``json``. The list is taken before ``json`` is imported to
# print it, so the code before it must not import json.
LOADED = (
    "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'monocal'"
    " or m in ('argparse', 'csv', 'dataclasses', 'inspect', 'json')); import json;"
    " print(json.dumps(loaded))"
)


def test_import_monocal_loads_no_submodule():
    assert fresh(f"import sys, monocal; {LOADED}") == ["monocal"]


def test_core_import_loads_no_loss_module():
    # Imports run one way: core needs only errors, and losses builds on core.
    assert fresh(f"import sys, monocal.core; {LOADED}") == [
        "monocal", "monocal.core", "monocal.errors"]


def test_losses_import_loads_no_problem_layer():
    # The problem layer builds on losses, and the online path loads losses alone.
    assert fresh(f"import sys, monocal.losses; {LOADED}") == [
        "monocal", "monocal.core", "monocal.errors", "monocal.losses"]


def test_solver_import_loads_its_closure_only():
    assert fresh(f"import sys; from monocal import fit_stack; {LOADED}") == [
        "monocal", "monocal.core", "monocal.errors", "monocal.losses", "monocal.pav_offline",
        "monocal.problem"]


def test_online_state_loads_the_staircase_on_its_first_current():
    code = (
        "import sys\n"
        "from monocal import OnlineState, Sample, WEIGHTED_SQUARE\n"
        "state = OnlineState(WEIGHTED_SQUARE)\n"
        "state.push(Sample(1.0, 2.0))\n"
        "before = 'monocal.staircase' in sys.modules\n"
        "values = state.current().values\n"
        "after = 'monocal.staircase' in sys.modules\n"
        "import json; print(json.dumps([before, after, values]))"
    )
    assert fresh(code) == [False, True, [2.0]]


def test_online_state_loads_the_problem_layer_on_its_first_blocks():
    code = (
        "import sys\n"
        "from monocal import OnlineState, Sample, WEIGHTED_SQUARE\n"
        "state = OnlineState(WEIGHTED_SQUARE)\n"
        "state.push(Sample(1.0, 2.0))\n"
        "before = 'monocal.problem' in sys.modules\n"
        "blocks = [[b.first, b.last, b.minimizer, b.aux] for b in state.blocks()]\n"
        "after = 'monocal.problem' in sys.modules\n"
        "import json; print(json.dumps([before, after, blocks]))"
    )
    assert fresh(code) == [False, True, [[0, 0, 2.0, 1.0]]]


def test_value_types_are_dataclasses_when_dataclasses_loads_after_them():
    code = (
        "import json\n"
        "from monocal import Sample\n"
        "import dataclasses\n"
        "sample = dataclasses.replace(Sample(1.0), target=2.0)\n"
        "print(json.dumps([[f.name for f in dataclasses.fields(Sample)], sample.target]))"
    )
    assert fresh(code) == [["score", "target", "weight", "payload"], 2.0]


def test_cli_import_loads_no_solver():
    # No loss module, staircase or model-file command module either.
    assert fresh(f"import sys; from monocal import cli; {LOADED}") == CLI_MODULES


def test_cli_serves_the_model_file_names_from_their_home():
    code = (
        "import json, sys\n"
        "from monocal import cli\n"
        "probed = [hasattr(cli, name) for name in ('nope', '_cmd_fit', 'Staircase')]\n"
        "loaded = 'monocal._model_commands' in sys.modules\n"
        "from monocal import _model_commands as home\n"
        "same = [getattr(cli, name) is getattr(home, name) for name in home.__all__]\n"
        "print(json.dumps([probed, loaded, cli._MODEL_FILE == tuple(home.__all__), same]))"
    )
    assert fresh(code) == [[False, False, False], False, True, [True] * 4]


# What fit and apply load to read or write a model.
MODEL_LOADS = ["json", "monocal._model_commands", "monocal.staircase"]
FIT_LOADS = [*MODEL_LOADS, "monocal.losses", "monocal.problem"]


def command_loads(tmp_path, argv, rows_text="score,target\n1,10\n2,30\n3,20\n"):
    """The modules ``LOADED`` lists after ``monocal <argv>`` ran in a fresh interpreter."""
    rows = tmp_path / "rows.csv"
    rows.write_text(rows_text)
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"version": 1, "family": "square", "breakpoints": [1.5],
                                 "values": [10.0, 25.0], "metadata": {}}))
    argv = [arg.format(rows=rows, model=model) for arg in argv]
    code = (
        "import contextlib, io, sys\n"
        "from monocal import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        code = cli.main({argv!r})\n"
        "    except SystemExit as exc:  # --help\n"
        "        code = exc.code\n"
        "assert code == 0, code\n"
        + LOADED
    )
    return fresh(code)


# On a plain CSV file no command loads the csv module, and on a plain argv
# none loads argparse: help and an abbreviated option do.
@pytest.mark.parametrize(
    "argv, loads",
    [
        (["apply", "{model}", "{rows}"], MODEL_LOADS),
        (["fit", "{rows}", "--quiet"], [*FIT_LOADS, "monocal.pav_offline"]),
        (["fit", "{rows}", "--solver", "direct", "--quiet"], [*FIT_LOADS, "monocal.pav_offline"]),
        (["fit", "{rows}", "--solver", "anytime", "--quiet"], [*FIT_LOADS, "monocal.anytime"]),
        # The online path only: no offline solver and no staircase transform.
        (["stream", "{rows}"], ["monocal.losses", "monocal.online"]),
        (["--help"], ["argparse"]),
        (["fit", "{rows}", "--lo", "square", "--quiet"],
         [*FIT_LOADS, "monocal.pav_offline", "argparse"]),
    ],
    ids=["apply", "fit-stack", "fit-direct", "fit-anytime", "stream", "help", "fit-abbreviated"],
)
def test_each_command_loads_only_its_solver(tmp_path, argv, loads):
    assert command_loads(tmp_path, argv) == sorted(CLI_MODULES + loads)


@pytest.mark.parametrize("rows", ['score,target\n1,10\n"2",30\n3,20\n',
                                  '"score","target"\n1,10\n2,30\n3,20\n'],
                         ids=["quoted-row", "quoted-header"])
@pytest.mark.parametrize("argv", [["fit", "{rows}", "--quiet"], ["apply", "{model}", "{rows}"],
                                  ["stream", "{rows}"]], ids=["fit", "apply", "stream"])
def test_a_quoted_line_loads_the_csv_module(tmp_path, argv, rows):
    assert "csv" in command_loads(tmp_path, argv, rows)


def test_every_public_name_is_its_home_modules_object():
    code = (
        "import importlib, json, monocal\n"
        f"homes = {{m: importlib.import_module('monocal.' + m) for m in {SUBMODULES!r}}}\n"
        "wrong = []\n"
        "for name in monocal.__all__:\n"
        "    if name in ('errors', '__version__'):\n"
        "        continue\n"
        "    owners = [m for m, mod in homes.items() if name in mod.__all__]\n"
        "    if len(owners) != 1 or getattr(monocal, name) is not getattr(homes[owners[0]], name):\n"
        "        wrong.append(name)\n"
        "print(json.dumps(wrong))"
    )
    assert fresh(code) == []


def test_errors_submodule_and_version():
    code = (
        "import importlib, json, monocal\n"
        "errors = monocal.errors\n"
        "print(json.dumps([errors is importlib.import_module('monocal.errors'),\n"
        "                  issubclass(errors.InvalidValue, errors.CalibrationError),\n"
        "                  monocal.__version__]))"
    )
    assert fresh(code) == [True, True, "0.1.0"]


def test_star_import_and_dir_cover_all():
    code = (
        "import json, monocal\n"
        "names = {}\n"
        "exec('from monocal import *', names)\n"
        "print(json.dumps([[n for n in monocal.__all__ if n not in names],\n"
        "                  [n for n in monocal.__all__ if n not in dir(monocal)]]))"
    )
    assert fresh(code) == [[], []]


def test_unknown_name_raises():
    code = (
        "import json, monocal\n"
        "caught = []\n"
        "try:\n"
        "    monocal.nope\n"
        "except AttributeError as exc:\n"
        "    caught.append(str(exc))\n"
        "try:\n"
        "    from monocal import nope\n"
        "except ImportError:\n"
        "    caught.append('ImportError')\n"
        "print(json.dumps(caught))"
    )
    assert fresh(code) == ["module 'monocal' has no attribute 'nope'", "ImportError"]
