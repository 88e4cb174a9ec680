"""The certificate commands and the sandwich run on the standard library
alone: importing the package, the certificate core's names and ``steerbound.cli``,
and running ``verify-inequality``, ``coefficient-search`` and ``--help``, loads no numpy, and
no ``dataclasses`` either (with ``inspect`` and ``ast`` behind it, about half
of the package's import time); ``import steerbound.cli`` loads no ``json``; and
``sandwich`` loads no numpy and no module of the package but ``certificate``,
``cli`` and ``numsearch``."""

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


def _run_child(program, argvs) -> dict:
    """The JSON report that ``program`` prints in a fresh interpreter given ``argvs``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", program, json.dumps(argvs)], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(child.stdout)


def test_certificate_commands_import_no_numpy(capsys):
    report = _run_child(CHILD, ARGVS)
    assert report["numpy"] == [] and report["dataclasses"] is False
    # the same bytes and exit codes as with numpy loaded, and the pinned ones
    for argv, got in zip(ARGVS, report["results"], strict=True):
        assert got == _in_process(argv, capsys), argv
        if tuple(argv) in GOLDEN:
            assert tuple(got) == GOLDEN[tuple(argv)], argv


# the default, seven-target and least-tolerance configs of the CI smoke run
SANDWICH_CONFIGS = {
    "default": "{}",
    "seven": '{"beta_targets": [2.05, 2.1, 2.34, 2.5, 2.6, 2.7, 2.8284271247461903]}',
    "least": '{"beta_targets": [2.522268017964232, 2.72988755493037], "tolerance": 1e-14}',
}

# json is imported only after steerbound.cli, so that its absence there shows
SANDWICH_CHILD = """
import sys
from steerbound import cli
json_loaded = "json" in sys.modules
import contextlib, io, json
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
loaded = sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "steerbound"))
print(json.dumps({"json": json_loaded, "loaded": loaded, "results": results}))
"""


def _sandwich_argv(tmp_path, name, side):
    config = tmp_path / f"{name}.json"
    config.write_text(SANDWICH_CONFIGS[name])
    out = [str(tmp_path / f"{side}-{name}.{ext}") for ext in ("json", "csv")]
    return ["sandwich", "--config", str(config), "--out-json", out[0], "--out-csv", out[1]]


def test_sandwich_imports_no_numpy(tmp_path, capsys):
    report = _run_child(SANDWICH_CHILD, [_sandwich_argv(tmp_path, name, "child") for name in SANDWICH_CONFIGS])
    assert report["json"] is False
    assert report["loaded"] == ["steerbound", "steerbound.certificate", "steerbound.cli", "steerbound.numsearch"]
    # the same bytes, exit codes and files as with numpy loaded
    for name, got in zip(SANDWICH_CONFIGS, report["results"], strict=True):
        assert got == _in_process(_sandwich_argv(tmp_path, name, "parent"), capsys), name
        for ext in ("json", "csv"):
            written = (tmp_path / f"{side}-{name}.{ext}" for side in ("child", "parent"))
            assert len(set(map(Path.read_bytes, written))) == 1, (name, ext)


def test_parser_limits_are_numpys():
    # the parser reads its limits from sys; they are numpy's, bit for bit
    assert sys.maxsize // 8 == np.iinfo(np.intp).max // 8
    assert sys.float_info.max / 4 == np.finfo(float).max / 4
