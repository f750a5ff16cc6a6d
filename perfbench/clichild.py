"""Traced child driver for the cli-oneshot workload.

    PERFBENCH_SPANS=spans.json PYTHONPATH=src python3 perfbench/clichild.py cm run ...

Times the import of neutromap.cli, wraps the public functions of every
neutromap module plus file reading and argument parsing, calls
`neutromap.cli.main` with the given arguments, writes the spans as a JSON
list of [name, start, end, parent index] and exits with main's code.
"""

import time

T0 = time.perf_counter()
import neutromap.cli as cli  # noqa: E402
T1 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from neutromap import core, engines, graphs, ngraph, relations  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402


def main():
    tracer = tracing.Tracer()
    tracer.spans.append([None, "cli.import", T0, T1, None])
    tracer.install(dict(core=core, engines=engines, relations=relations, graphs=graphs,
                        ngraph=ngraph, cli=cli))
    cli._read_text = tracer.span("cli.read", cli._read_text)
    cli._build_parser = tracer.span("cli.argparse", cli._build_parser)
    argparse.ArgumentParser.parse_args = tracer.span(
        "cli.argparse", argparse.ArgumentParser.parse_args)
    try:
        code = cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump([s[1:] for s in tracer.spans], fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
