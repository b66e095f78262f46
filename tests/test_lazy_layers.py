"""A ptml process loads a layer only when it first runs it.

No threshold reads the dense reference, the transform self-checks or the
CSV writer, and GHZ past the character cap and global noise never call
numpy, so importing the CLI loads none of them and those commands run
without numpy.  Each case runs in a fresh interpreter, since this test
process has long imported all of them.
"""

import json
import os
import pathlib
import subprocess
import sys

import ptml

SRC = pathlib.Path(ptml.__file__).resolve().parents[1]
LAZY = ("ptml.dense", "ptml.gleason", "csv", "numpy")

SCRIPT = """
import json, sys
import ptml.cli
loaded = [[m for m in {lazy!r} if m in sys.modules]]
for argv in {commands!r}:
    ptml.cli.main(argv)
    loaded.append([m for m in {lazy!r} if m in sys.modules])
print(json.dumps(loaded))
"""


def _loaded_after(*commands) -> list:
    """The lazy layers loaded after importing the CLI, then after each
    command, in one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(lazy=LAZY, commands=commands)],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_layers_load_on_first_use():
    loaded = _loaded_after(
        ["threshold", "--criterion", "ppt", "--state", "ghz", "--n", "180"],
        ["threshold", "--criterion", "descartes:7", "--state", "ghz",
         "--n", "180"],
        ["criterion", "--name", "stieltjes:5", "--state", "ghz", "--n", "8",
         "--noise", "global:0.3"],
        ["threshold", "--criterion", "ppt", "--state", "ghz", "--n", "4",
         "--model", "dense"])
    # the import, two thresholds past the cap and a global-noise verdict
    assert loaded[:4] == [[]] * 4
    assert loaded[4] == ["ptml.dense", "numpy"]


def test_the_writer_and_the_self_checks_load_when_run():
    loaded = _loaded_after(
        ["moments", "--state", "ghz", "--n", "2", "--k-max", "2",
         "--format", "json"],
        ["moments", "--state", "ghz", "--n", "2", "--k-max", "2"],
        ["gleason", "--n", "6"])
    assert loaded == [[], [], ["csv"], ["ptml.gleason", "csv"]]
