"""The package root: it loads no module, and a cold start loads only the
modules its path uses."""

import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import courtside

SRC = Path(__file__).resolve().parents[1] / "src"


def public_names(namespace):
    return {name for name in namespace if not name.startswith("_")}


class TestNamespace:
    def test_all_is_exactly_the_exported_names(self):
        # the root re-exports nothing, so it has no name list to keep
        assert "__all__" not in vars(courtside)
        assert "__version__" in vars(courtside)

    def test_dir_lists_every_name(self):
        # the default listing: the version, then each submodule once loaded
        assert "__dir__" not in vars(courtside)
        listing = dir(courtside)
        assert "__version__" in listing
        assert all(isinstance(getattr(courtside, name), types.ModuleType)
                   for name in public_names(listing))

    def test_star_import_binds_every_name(self):
        import courtside.pipeline
        namespace = {}
        exec("from courtside import *", namespace)
        assert namespace["pipeline"] is courtside.pipeline
        assert "replay_match" not in namespace
        assert all(isinstance(namespace[name], types.ModuleType)
                   for name in public_names(namespace))

    def test_submodules_import_from_the_root(self):
        from courtside import cli, pipeline
        assert isinstance(cli, types.ModuleType)
        assert cli is sys.modules["courtside.cli"]
        assert pipeline is sys.modules["courtside.pipeline"]

    def test_import_loads_no_submodule(self):
        # a fresh interpreter: this test session has every submodule loaded
        code = ("import sys, courtside; "
                "print([n for n in sys.modules if n.startswith('courtside.')])")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.strip() == "[]"

    def test_unknown_name_raises_attribute_error(self):
        assert "__getattr__" not in vars(courtside)
        with pytest.raises(AttributeError, match="no_such_name"):
            courtside.no_such_name
        assert not hasattr(courtside, "no_such_name")
        with pytest.raises(ImportError):
            exec("from courtside import no_such_name", {})


# Runs in a fresh interpreter: this test session has numpy loaded already.
COLD_START = textwrap.dedent("""
    import json, os, sys
    from courtside import cli

    work = sys.argv[1]
    match = os.path.join(work, "m.jsonl")
    codes = [
        cli.main(["simulate", "--seed", "7", "--output", match]),
        cli.main(["replay", "--input", match, "--client", "mock", "--no-timing",
                  "--output", os.path.join(work, "r.json")]),
        cli.main(["stats", "--input", match,
                  "--output", os.path.join(work, "s.json")]),
    ]
    heavy = sorted(n for n in sys.modules if n.startswith(("numpy", "requests")))
    from courtside.court_geometry import CourtModel, PixelPoint, estimate_homography
    estimate_homography((PixelPoint(c.x, c.y), c) for _, c in CourtModel().keypoints)
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"codes": codes, "heavy": heavy,
                   "numpy_after_geometry": "numpy" in sys.modules}, fh)
""")


def test_cold_start_loads_neither_numpy_nor_requests(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                   env=env, check=True, capture_output=True, timeout=120)
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["codes"] == [0, 0, 0]
    assert result["heavy"] == []
    assert not result["numpy_after_geometry"]


# Runs cli.main once in a fresh interpreter and lists the courtside modules
# that were loaded.
COMMAND_MODULES = textwrap.dedent("""
    import json, sys
    from courtside import cli

    code = cli.main(sys.argv[1:])
    print(json.dumps({"code": code, "modules": sorted(
        n for n in sys.modules if n.startswith("courtside."))}))
""")


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    from courtside.event_stream import rally_to_json
    from courtside.simulate import simulate_match

    work = tmp_path_factory.mktemp("commands")
    records = simulate_match(seed=7)[:12]
    (work / "m.jsonl").write_text("".join(
        json.dumps(rally_to_json(r)) + "\n" for r in records), encoding="utf-8")
    (work / "pairs.jsonl").write_text("".join(json.dumps({
        "clip_id": r.clip_id, "prediction": "a deep forehand winner",
        "reference": r.commentary}) + "\n" for r in records[:3]), encoding="utf-8")
    (work / "impacts.jsonl").write_text(
        '{"t": 1.0, "conf": 0.9}\n{"t": 1.5, "conf": 0.9}\n', encoding="utf-8")
    return work


@pytest.mark.parametrize("argv", [
    "validate --input m.jsonl",
    "replay --input m.jsonl --client mock --no-timing",
    "stats --input m.jsonl",
    "evaluate --input pairs.jsonl --judge mock --dataset m.jsonl",
    "segment --input impacts.jsonl",
    "simulate --seed 7",
], ids=lambda argv: argv.split()[0])
def test_command_loads_only_its_own_modules(command_inputs, argv):
    """segmentation loads for segment only, simulate for simulate only, and
    court_geometry for no command."""
    command = argv.split()[0]
    argv = [str(command_inputs / arg) if arg.endswith(".jsonl") else arg
            for arg in argv.split()]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", COMMAND_MODULES, *argv, "--output",
         str(command_inputs / f"{command}.out")],
        env=env, check=True, capture_output=True, text=True, timeout=120).stdout
    result = json.loads(out)
    assert result["code"] == 0
    modules = set(result["modules"])
    assert ("courtside.segmentation" in modules) == (command == "segment")
    assert ("courtside.simulate" in modules) == (command == "simulate")
    assert "courtside.court_geometry" not in modules


# Imports every courtside module and runs each command, in a fresh
# interpreter where numpy cannot be imported, as on an install without the
# dev extra; prints the exit codes.
WITHOUT_NUMPY = textwrap.dedent("""
    import importlib, json, pkgutil, sys
    sys.modules["numpy"] = None  # import numpy now raises ImportError

    import courtside
    for module in pkgutil.iter_modules(courtside.__path__):
        importlib.import_module("courtside." + module.name)
    from courtside import cli
    from courtside.court_geometry import (CourtModel, Homography, PixelPoint,
                                          estimate_homography, project,
                                          reprojection_error)

    # a broadcast view: court metres to pixels
    view = Homography.from_array([[60.0, 8.0, 320.0], [0.0, -25.0, 650.0], [0.0, 0.012, 1.0]])
    pairs = []
    for _, court in CourtModel().keypoints:
        pixel = project(view, court)
        pairs.append((PixelPoint(pixel.x, pixel.y), court))
    assert reprojection_error(estimate_homography(pairs), pairs) < 1e-6
    print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))
""")


def test_every_module_and_command_runs_without_numpy(command_inputs, tmp_path):
    match, pairs, impacts = (str(command_inputs / name)
                             for name in ("m.jsonl", "pairs.jsonl", "impacts.jsonl"))
    commands = [
        ["simulate", "--seed", "1", "--output", str(tmp_path / "sim.jsonl")],
        ["validate", "--input", match, "--output", str(tmp_path / "v.json")],
        ["stats", "--input", match, "--output", str(tmp_path / "s.json")],
        ["replay", "--input", match, "--client", "mock", "--no-timing",
         "--output", str(tmp_path / "r.json")],
        ["evaluate", "--input", pairs, "--output", str(tmp_path / "e.json")],
        ["segment", "--input", impacts, "--output", str(tmp_path / "g.json")],
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, json.dumps(commands)],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=120).stdout
    assert json.loads(out) == [0] * len(commands)
