"""The certificate commands run on the standard library alone: importing the
package, the certificate core's names and ``steerbound.cli``, and running
``verify-inequality``, ``coefficient-search`` and ``--help``, loads no numpy, and
no ``dataclasses`` either (with ``inspect`` and ``ast`` behind it, about half
of the package's import time)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import steerbound
from steerbound.cli import main
from test_cli import GOLDEN

PACKAGE_ROOT = str(Path(steerbound.__file__).resolve().parents[1])

# every pinned certificate command, the retired options that change nothing,
# and the top-level help
ARGVS = [
    *(list(argv) for argv in GOLDEN if argv[0] in ("verify-inequality", "coefficient-search")),
    ["verify-inequality", "--theta-points", "10000"],
    ["coefficient-search", "--s-points", "512", "--theta-points", "10000"],
    ["--help"],
]

CHILD = """
import contextlib, io, json, sys
import steerbound
from steerbound import analytic_bound, S_OPTIMAL
from steerbound import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
numpy = sorted(m for m in sys.modules if m.partition(".")[0] == "numpy")
print(json.dumps({"numpy": numpy, "dataclasses": "dataclasses" in sys.modules, "results": results}))
"""


def _in_process(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return [code, out, err]


def test_certificate_commands_import_no_numpy(capsys):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(ARGVS)], capture_output=True, text=True, env=env, check=True
    )
    report = json.loads(child.stdout)
    assert report["numpy"] == [] and report["dataclasses"] is False
    # the same bytes and exit codes as with numpy loaded, and the pinned ones
    for argv, got in zip(ARGVS, report["results"], strict=True):
        assert got == _in_process(argv, capsys), argv
        if tuple(argv) in GOLDEN:
            assert tuple(got) == GOLDEN[tuple(argv)], argv


def test_parser_limits_are_numpys():
    # the parser reads its limits from sys; they are numpy's, bit for bit
    assert sys.maxsize // 8 == np.iinfo(np.intp).max // 8
    assert sys.float_info.max / 4 == np.finfo(float).max / 4
