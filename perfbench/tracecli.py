"""Run one ``modxl`` command with span recording, for the traced cli workload.

    python3 perfbench/tracecli.py SPANS.json <modxl arguments>

Imports modxl, wraps its public functions (see ``tracing.install``), runs
``modxl.cli.main`` under a ``cli.<command>`` span, writes the spans to
SPANS.json and exits with the command's exit code.
"""

import sys

import tracing


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    from modxl import cli

    rec = tracing.Recorder()
    tracing.install(rec)
    with rec.span(f"cli.{argv[0]}"):
        code = cli.main(argv)
    rec.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
