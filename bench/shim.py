"""Run the treebound CLI in a child process with the benchmark's tracer installed.

    python3 bench/shim.py SUMMARY_FILE INSTANCE_SPAN CLI_ARGS...

Behaves like ``python -m treebound.cli CLI_ARGS...`` (same output, same exit
code) and, when ``treebound.cli.main`` returns, writes the tracer's summary
of the spans recorded in this process to SUMMARY_FILE.
"""

import json
import sys

import tracing


def main() -> int:
    summary_file, instance_span, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import treebound.cli

    tracer = tracing.Tracer()
    tracer.install()
    code = treebound.cli.main(cli_args)
    sys.stdout.flush()
    with open(summary_file, "w", encoding="utf-8") as out:
        json.dump(tracer.summary(instance_span), out)
    return code


if __name__ == "__main__":
    sys.exit(main())
