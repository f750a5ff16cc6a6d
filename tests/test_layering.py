"""Layering: the library loads without the command-line front end."""


def test_import_neutromap_leaves_out_cli_and_argparse(python_child):
    r = python_child(
        "-c",
        "import sys, neutromap; "
        "print(sorted({'argparse', 'neutromap.cli'} & set(sys.modules)))",
    )
    assert (r.returncode, r.stdout, r.stderr) == (0, "[]\n", "")


def test_module_help_writes_nothing_to_stderr(python_child):
    r = python_child("-m", "neutromap.cli", "--help")
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout.startswith("usage: neutromap")
