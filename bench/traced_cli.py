"""Run the aokr CLI in-process with spans around each layer; write the trace at exit.

Usage: python3 bench/traced_cli.py TRACE_JSON RUN_ID -- AOKR_CLI_ARGS...

Outputs are the same files a plain ``python3 -m aokr.cli`` run writes.
"""

import sys

from tracer import Tracer, instrument_aokr


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        raise SystemExit(__doc__)
    trace_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    instrument_aokr(tracer)
    from aokr import cli

    with tracer.span("aokr.cli.main", argv=cli_args):
        code = cli.main(cli_args)
    tracer.write(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
