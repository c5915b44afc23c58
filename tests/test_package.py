"""The package surface: ``__all__`` names every public name, and the
closed-set algebra, the symbolic carriers, the symbolic halves of the laws,
the analyze and export-dot commands and the JSON reader load only when
they are used, so a finite ``check`` never compiles them."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import posetkernel
from posetkernel import acceptance, carriers, closedsets, commands

SRC = Path(__file__).resolve().parents[1] / "src"
SYMBOLIC = ["posetkernel.carriers", "posetkernel.closedsets",
            "posetkernel.sampled_laws"]
# ``posetkernel.__main__`` is for ``python -m posetkernel`` alone: the
# console script never loads it.
WATCHED = ["json", "posetkernel.__main__", "posetkernel.commands",
           *SYMBOLIC]

# Runs the CLI in-process and prints, after its output, its exit code and
# the watched modules it left loaded.
LOADED = ("import sys; from posetkernel.cli import main; code = main(); "
          f"print(code, sorted(set({WATCHED!r}) & set(sys.modules)))")


def run_python(script, *argv, cwd=None):
    """Run ``script`` without site packages, on the library in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-S", "-c", script, *argv],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          check=True).stdout


FINITE_DOC = {"kind": "finite", "elements": ["a", "b", "c"],
              "covers": [["a", "b"], ["a", "c"]]}
SUM_DOC = {"kind": "disjoint_sum", "left": FINITE_DOC,
           "right": {"kind": "lift", "inner": FINITE_DOC}}


@pytest.mark.parametrize("argv, loaded", [
    (["check", "chain_2", "--law", "all"], []),
    (["check", "finite.json", "--law", "all"], ["json"]),
    (["analyze", "diamond", "retract"], ["posetkernel.commands"]),
    (["export-dot", "finite.json"], ["json", "posetkernel.commands"]),
    (["check", "sum.json", "--law", "all"], ["json", "posetkernel.carriers"]),
    (["check", "omega_plus_one", "--law", "cc"],
     ["posetkernel.carriers", "posetkernel.sampled_laws"]),
    (["check", "closed_sets", "--law", "cc"],
     ["posetkernel.closedsets", "posetkernel.sampled_laws"]),
], ids=["check-chain_2", "check-finite", "analyze-diamond",
        "export-dot-finite", "check-finite-sum", "check-omega_plus_one",
        "check-closed_sets"])
def test_only_a_symbolic_answer_loads_the_carriers(argv, loaded, tmp_path):
    """A lift or sum of finite parts loads ``carriers`` but not the
    closed-set algebra, ω+1 loads no closed-set code either, and the closed
    sets load ``closedsets`` alone, which holds their presentation."""
    (tmp_path / "finite.json").write_text(json.dumps(FINITE_DOC),
                                          encoding="utf-8")
    (tmp_path / "sum.json").write_text(json.dumps(SUM_DOC), encoding="utf-8")
    out = run_python(LOADED, *argv, cwd=tmp_path).splitlines()[-1]
    assert out == f"0 {loaded}"


# Runs the CLI as ``python -m posetkernel.cli`` does and prints its exit
# code and whether a module ``posetkernel.cli`` was loaded beside
# ``__main__``, which would compile cli.py a second time.
AS_MAIN = ("import runpy, sys\n"
           "try:\n"
           "    runpy.run_module('posetkernel.cli', run_name='__main__',\n"
           "                     alter_sys=True)\n"
           "except SystemExit as exc:\n"
           "    print(exc.code, 'posetkernel.cli' in sys.modules)")


@pytest.mark.parametrize("argv", [
    ["analyze", "diamond", "retract"], ["export-dot", "finite.json"],
], ids=["analyze-diamond", "export-dot-finite"])
def test_the_cli_run_as_main_loads_no_second_copy(argv, tmp_path):
    (tmp_path / "finite.json").write_text(json.dumps(FINITE_DOC),
                                          encoding="utf-8")
    out = run_python(AS_MAIN, *argv, cwd=tmp_path).splitlines()[-1]
    assert out == "0 False"


def test_every_public_name_resolves():
    """Each name of ``__all__`` resolves, ``dir`` lists them, every public
    name the package binds besides its submodules is listed, and a lazy
    name is its home module's object."""
    for name in posetkernel.__all__:
        assert getattr(posetkernel, name) is not None, name
    assert dir(posetkernel) == sorted(posetkernel.__all__)
    assert len(set(posetkernel.__all__)) == len(posetkernel.__all__)
    bound = {name for name, value in vars(posetkernel).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert bound <= set(posetkernel.__all__)
    homes = {"closedsets": closedsets, "carriers": carriers,
             "commands": commands, "acceptance": acceptance}
    assert set(posetkernel._LAZY.values()) == set(homes)
    for name, home in posetkernel._LAZY.items():
        assert name in posetkernel.__all__
        assert getattr(posetkernel, name) is getattr(homes[home], name)


def test_an_unknown_name_imports_nothing():
    script = ("import sys, posetkernel; before = set(sys.modules)\n"
              "try:\n    posetkernel.no_such_name\n"
              "except AttributeError as exc:\n"
              "    print(exc, sorted(set(sys.modules) - before))")
    assert run_python(script).strip() == (
        "module 'posetkernel' has no attribute 'no_such_name' []")


def test_a_lazy_name_loads_its_home_once():
    """The first access imports the home module and keeps the name in the
    package, so a later access is a plain global."""
    script = ("import sys, posetkernel\n"
              "print('posetkernel.closedsets' in sys.modules,\n"
              "      'closed_set' in vars(posetkernel))\n"
              "posetkernel.closed_set\n"
              "print('posetkernel.closedsets' in sys.modules,\n"
              "      'posetkernel.carriers' in sys.modules,\n"
              "      'closed_set' in vars(posetkernel))")
    assert run_python(script).split("\n") == [
        "False False", "True False True", ""]
