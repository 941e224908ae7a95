"""Start-up: a command imports only the layers it uses, and the package
resolves its exported names lazily."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import polyspan
from polyspan import checks, cli
from polyspan.documents import document, serialize
from polyspan.finset import FinSetObj
from polyspan.gen import rand_composable_modpolys, rand_poly, rand_relpoly

# Written into a fresh interpreter's path: at exit it lists the loaded
# modules next to itself.
SITECUSTOMIZE = """\
import atexit, os, sys

@atexit.register
def _report():
    with open(os.path.join(os.path.dirname(__file__), "loaded.txt"),
              "w") as fh:
        fh.write("\\n".join(sorted(sys.modules)))
"""

SRC = Path(polyspan.__file__).resolve().parents[1]

# dataclasses (which imports inspect) once took most of a call's imports
NEVER = {"polyspan.fincat", "polyspan.modpoly", "polyspan.checks",
         "polyspan.gen", "dataclasses"}


def run_cli(tmp_path, argv):
    """Run ``python -m polyspan.cli argv`` in a fresh interpreter; return
    the process and the set of modules loaded when it exits."""
    probe = tmp_path / "probe"
    probe.mkdir()
    (probe / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = dict(os.environ, PYTHONPATH=f"{probe}{os.pathsep}{SRC}")
    proc = subprocess.run([sys.executable, "-m", "polyspan.cli", *argv],
                          capture_output=True, text=True, env=env)
    loaded = set((probe / "loaded.txt").read_text().split("\n"))
    return proc, loaded


def docs(tmp_path, kind, make):
    rng = random.Random(5)
    x = FinSetObj(3)
    paths = []
    for name in ("q", "p"):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize(document(kind, make(rng, x, x))))
        paths.append(str(path))
    return paths


class TestCommandsImportTheirLayerOnly:
    def test_compose_rel(self, tmp_path):
        q, p = docs(tmp_path, "rel-polynomial", rand_relpoly)
        proc, loaded = run_cli(tmp_path, ["compose", "--kind", "rel", q, p])
        assert proc.returncode == 0, proc.stderr
        assert "polyspan.relpoly" in loaded
        assert not loaded & (NEVER | {"polyspan.spans", "polyspan.polyset"})

    def test_compose_set(self, tmp_path):
        q, p = docs(tmp_path, "polynomial", rand_poly)
        proc, loaded = run_cli(tmp_path, ["compose", "--kind", "set", q, p])
        assert proc.returncode == 0, proc.stderr
        assert "polyspan.polyset" in loaded
        assert not loaded & NEVER

    def test_compose_mod(self, tmp_path):
        """The decoders of categories, functors and modules run in the
        two layers they build: no span, set, relation, suite or generator
        layer is loaded."""
        rng, pair = random.Random(5), None
        while pair is None:
            pair = rand_composable_modpolys(rng)
        paths = []
        for name, value in zip(("p", "q"), pair):
            path = tmp_path / f"{name}.json"
            path.write_text(serialize(document("mod-polynomial", value)))
            paths.append(str(path))
        proc, loaded = run_cli(tmp_path, ["compose", "--kind", "mod",
                                          paths[1], paths[0]])
        assert proc.returncode == 0, proc.stderr
        assert {"polyspan.fincat", "polyspan.modpoly"} <= loaded
        assert not loaded & {"polyspan.spans", "polyspan.polyset",
                             "polyspan.relpoly", "polyspan.checks",
                             "polyspan.gen", "dataclasses"}

    def test_random(self, tmp_path):
        proc, loaded = run_cli(tmp_path, ["random", "--kind", "relation",
                                          "--seed", "1"])
        assert proc.returncode == 0, proc.stderr
        assert "polyspan.gen" in loaded
        assert not loaded & {"polyspan.checks", "dataclasses"}
        # a relation needs finset and relpoly only
        assert not loaded & {"polyspan.fincat", "polyspan.modpoly"}

    def test_the_probe_sees_a_command_that_loads_everything(self, tmp_path):
        proc, loaded = run_cli(tmp_path, ["check", "cli-determinism"])
        assert proc.returncode == 0, proc.stderr
        assert NEVER - {"dataclasses"} <= loaded


class TestLazyPackage:
    def test_every_export_is_its_defining_object(self):
        for name in polyspan.__all__:
            value = getattr(polyspan, name)
            home = sys.modules[f"polyspan.{polyspan._HOME[name]}"]
            assert value is getattr(home, name), name
            assert name not in vars(polyspan), "cached in the package"

    def test_dir_lists_every_export(self):
        assert set(polyspan.__all__) <= set(dir(polyspan))
        assert len(polyspan.__all__) == len(set(polyspan.__all__)) == 78

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            polyspan.no_such_name
        assert not hasattr(polyspan, "_private_name")

    def test_rebinding_in_the_module_shows_through(self, monkeypatch):
        def stand_in(*args):
            return "stand-in"
        monkeypatch.setattr(sys.modules["polyspan.polyset"], "compose_poly",
                            stand_in)
        assert polyspan.compose_poly is stand_in
        monkeypatch.undo()
        assert polyspan.compose_poly is not stand_in

    def test_star_import_gives_every_export(self):
        scope = {}
        exec("from polyspan import *", scope)
        assert set(polyspan.__all__) <= scope.keys()

    def test_a_loaded_layer_is_read_without_importing(self, monkeypatch):
        imported = []

        def spy(name):
            imported.append(name)
            return stand_in
        stand_in = type(sys)("stand_in")
        stand_in.Relation = object()
        monkeypatch.setattr(polyspan, "_import", spy)
        assert polyspan.parse is sys.modules["polyspan.documents"].parse
        assert imported == []
        # a layer missing from sys.modules is imported on first access
        monkeypatch.delitem(sys.modules, "polyspan.relpoly", raising=False)
        assert polyspan.Relation is stand_in.Relation
        assert imported == ["polyspan.relpoly"]


def test_cli_suite_names_match_the_registry():
    assert sorted(cli._SUITE_NAMES) == sorted(checks.SUITES)
