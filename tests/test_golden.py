"""Golden snapshot of the command-line interface.

Every case runs ``main(argv)`` in-process from the repository root and
compares the exit code, stdout and stderr byte for byte with
``tests/golden/cli.json``.  The family and pair files the cases read are
committed under ``tests/golden/`` as well, so the snapshot does not depend
on the generators that made them.

To rebuild the inputs and the snapshot with the library on the path::

    PYTHONPATH=src python tests/test_golden.py --write

A rebuilt snapshot that differs from the committed one means the CLI's
output changed; say why wherever the change is recorded.
"""
from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from posetfree.census import random_p_free_family
from posetfree.cli import main
from posetfree.fixtures import fixture
from posetfree.lattice import SetFamily, family_to_dict, family_to_text

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path("tests") / "golden"
SNAPSHOT = ROOT / GOLDEN / "cli.json"
FIXTURES = sorted(path.stem for path in (ROOT / "fixtures").glob("*.json"))


def _fix(name: str) -> str:
    return f"fixtures/{name}.json"


def _input(name: str) -> str:
    return str(GOLDEN / name)


def cases() -> list[list[str]]:
    """Every argv in the snapshot, in order; paths are relative to the root."""
    argvs = []
    for name in FIXTURES:
        for command in ("validate", "height", "chains", "dual", "cover", "complete"):
            argvs.append(["poset", command, _fix(name)])
        argvs.append(["poset", "blowup", _fix(name), "--root", "0", "--t", "2"])
    argvs.append(["poset", "validate", _fix("x"), "--pretty"])
    for family in ("mixed.txt", "small.json"):
        argvs += [
            ["family", "profile", _input(family)],
            ["family", "marked", _input(family), "--k", "2", "--a", "1"],
            ["family", "marked", _input(family), "--k", "2", "--a", "2", "--eps", "0.5"],
            ["family", "trim", _input(family), "--alpha", "0.25"],
        ]
    for name in FIXTURES:
        argvs.append(["embed", "check", _fix(name), _input("mixed.txt")])
    argvs += [
        ["embed", "first-copy", _fix("v"), _input("mixed.txt"), "--root", "0", "--t", "2"],
        ["embed", "first-copy", _fix("chain2"), _input("mixed.txt"), "--root", "1", "--t", "3"],
        ["embed", "first-copy", _fix("x"), _input("cube4.txt"), "--root", "2", "--t", "2"],
        ["embed", "first-copy", _fix("butterfly"), _input("cube4.txt"), "--root", "0", "--t", "2"],
    ]
    for name, root in (("v", "0"), ("chain3", "1"), ("x", "2")):
        free = _input(f"{name}-free.txt")
        argvs += [
            ["containers", "run", _fix(name), free, "--root", root, "--t", "2"],
            ["containers", "run", _fix(name), free, "--root", root, "--two-phase"],
            ["containers", "run", _fix(name), free, "--root", root, "--two-phase",
             "--t", "2", "--t2", "3"],
            ["containers", "verify", _input(f"{name}-pair.json"), free],
        ]
    argvs += [
        ["containers", "run", _fix("v"), _input("mixed.txt"), "--root", "0", "--t", "2"],
        ["containers", "verify", _input("v-pair.json"), _input("mixed.txt")],
    ]
    for name in FIXTURES:
        argvs += [
            ["census", "count", "--poset", _fix(name), "--n", "3"],
            ["census", "la", "--poset", _fix(name), "--n", "3"],
            ["census", "e-lower", "--poset", _fix(name), "--n", "3"],
        ]
    argvs += [
        ["census", "count", "--poset", _fix("v"), "--n", "2"],
        ["census", "experiment", "--poset", _fix("v"), "--n", "2,3", "--seed", "1",
         "--samples", "3"],
        ["census", "experiment", "--poset", _fix("chain2"), "--n", "2,3", "--seed", "4",
         "--samples", "2", "--t1", "2", "--t2", "2"],
    ]
    return argvs


def invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_inputs() -> None:
    """Seeded families and the pair files cut from them."""
    keep = np.random.Generator(np.random.Philox(21)).random(16) < 0.5
    mixed = SetFamily(4, tuple(m for m in range(16) if keep[m]))
    families = {
        "mixed.txt": family_to_text(mixed),
        "small.json": json.dumps(family_to_dict(SetFamily(3, (0, 1, 3, 5, 6)))),
        "cube4.txt": family_to_text(SetFamily(4, tuple(range(16)))),
        "v-free.txt": family_to_text(random_p_free_family(fixture("v"), 4, seed=5)),
        "chain3-free.txt": family_to_text(random_p_free_family(fixture("chain3"), 4, seed=6)),
        "x-free.txt": family_to_text(
            random_p_free_family(fixture("x"), 4, seed=7, density=0.8)
        ),
    }
    for name, text in families.items():
        (ROOT / GOLDEN / name).write_text(text)
    for name, root in (("v", "0"), ("chain3", "1"), ("x", "2")):
        run = invoke(["containers", "run", _fix(name), _input(f"{name}-free.txt"),
                      "--root", root, "--t", "2"])
        assert run["exit"] == 0, run["stderr"]
        (ROOT / GOLDEN / f"{name}-pair.json").write_text(run["stdout"])


def test_cli_matches_golden_snapshot(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("POSET_CONTAINERS_CAPS", raising=False)
    expected = json.loads(SNAPSHOT.read_text())
    assert [case["argv"] for case in expected] == cases()
    for case in expected:
        assert invoke(case["argv"]) == case


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    os.chdir(ROOT)
    os.environ.pop("POSET_CONTAINERS_CAPS", None)
    (ROOT / GOLDEN).mkdir(exist_ok=True)
    write_inputs()
    snapshot = [invoke(argv) for argv in cases()]
    SNAPSHOT.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {len(snapshot)} cases to {SNAPSHOT.relative_to(ROOT)}")
