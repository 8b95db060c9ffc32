"""The runtime needs numpy only, and loads at start-up every module the
request path uses.

A fresh interpreter imports ``glme.cli`` and then runs a ``fit``, a
``fit-ns`` and a one-trial ``simulate`` on each scenario in-process.  The
import must load no scipy module, and the runs must load no further numpy
module: ``--jobs`` workers are forked from the importing process, so a
module loaded lazily on the request path is loaded again in every worker
of every invocation.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import glme
from glme.dataio import fixture_path

SRC = str(Path(glme.__file__).resolve().parent.parent)

CHILD = """
import contextlib, io, json, sys
import glme.cli

report = {
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "parsers_built": glme.cli.build_parser.cache_info().currsize,
}
before = set(sys.modules)
flood = sys.argv[1]
calls = [
    ["fit", flood, "--method", "glme.b.c6", "--format", "csv"],
    ["fit-ns", flood, "--method", "glme.b.c5", "--format", "csv"],
    ["simulate", "--scenario", "stationary", "--xi=-0.3", "--n", "30", "--trials", "1",
     "--jobs", "1"],
    ["simulate", "--scenario", "gev11", "--xi=-0.3", "--n", "40", "--trials", "1",
     "--jobs", "1"],
]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    report["codes"] = [glme.cli.main(argv) for argv in calls]
report["loaded_later"] = sorted(m for m in set(sys.modules) - before
                                if m.split(".")[0] == "numpy")
print(json.dumps(report))
"""


def test_import_and_request_path_modules():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(fixture_path("losspw.csv"))],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["scipy"] == []
    assert report["parsers_built"] == 0  # the parser is built on first use only
    assert report["codes"] == [0, 0, 0, 0]
    assert report["loaded_later"] == []
