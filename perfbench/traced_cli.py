"""Run one fglap CLI command under the span tracer.

    python3 perfbench/traced_cli.py SPANS.jsonl -- <fglap cli arguments>

Imports fglap from ``PYTHONPATH``, installs the tracer, runs ``cli.main``
and writes every span to SPANS.jsonl before exiting with the CLI's exit
code.
"""

from __future__ import annotations

import sys

from spans import Tracer


def main(argv: list[str]) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.jsonl -- <cli args>")
    import fglap
    import fglap.cli

    tracer = Tracer()
    tracer.install(fglap)
    try:
        return fglap.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.write_jsonl(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
