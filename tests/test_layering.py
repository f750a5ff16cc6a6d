"""Layering: the library loads without the command-line front end."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=60,
    )


def test_import_neutromap_leaves_out_cli_and_argparse():
    r = _python(
        "-c",
        "import sys, neutromap; "
        "print(sorted({'argparse', 'neutromap.cli'} & set(sys.modules)))",
    )
    assert (r.returncode, r.stdout, r.stderr) == (0, "[]\n", "")


def test_module_help_writes_nothing_to_stderr():
    r = _python("-m", "neutromap.cli", "--help")
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout.startswith("usage: neutromap")
