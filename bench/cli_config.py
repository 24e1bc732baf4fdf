"""Build a workload's RunConfig through the aokr CLI's own parser, without running it.

Usage: python3 bench/cli_config.py AOKR_CLI_ARGS...

Run as a script, this is the set-up sample: a fresh interpreter imports
``aokr.cli``, parses the arguments with the CLI's flags and builds and
validates the config, but calls no engine.  The benchmark also uses
``parse_config`` to learn the sizes a workload resolves to.
"""

import argparse
import sys

from aokr import cli
from aokr.runner import MODE_PHASE_SWEEP, MODE_SINGLE

MODES = {"single": MODE_SINGLE, "phase-sweep": MODE_PHASE_SWEEP}


def parse_config(cli_args):
    """The validated RunConfig that ``aokr CLI_ARGS`` would run."""
    command, *flags = cli_args
    parser = argparse.ArgumentParser(prog=f"aokr {command}")
    cli._add_common(parser)
    return cli._build_config(parser.parse_args(flags), MODES[command])


if __name__ == "__main__":
    parse_config(sys.argv[1:])
