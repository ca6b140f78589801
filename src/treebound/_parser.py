"""The CLI's argparse parser, built from ``cli``'s command table.  ``cli.main``
imports it only for the command lines the table does not read: help, usage
errors, gen, and the spellings only argparse accepts."""

import argparse
import sys

from .cli import _COMMANDS, _FORMAT, _GEN_FAMILIES


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but the help's write to stdout lets an OSError
    out: argparse swallows it, and with an unbuffered stdout
    (PYTHONUNBUFFERED) a reader that is gone would lose the help with exit 0.
    Its ``BrokenPipeError`` leaves ``cli.main``, and ``cli.entry`` exits 141.
    Subparsers are made of the parser's class, so every level gets this.
    Leftover arguments get the usage of the invoked ``_parser``, not the top's."""

    def print_help(self, file=None):
        (sys.stdout if file is None else file).write(self.format_help())

    def parse_args(self, args=None, namespace=None):
        parsed, extras = self.parse_known_args(args, namespace)
        if extras:
            getattr(parsed, "_parser", self).error(f"unrecognized arguments: {' '.join(extras)}")
        return parsed


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: every subcommand of the table with its options, in
    table order, and every gen family."""
    parser = _Parser(
        prog="treebound",
        description="Count tree copies in graphs and check the bounds they satisfy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(_parser=p)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    families = sub.choices["gen"].add_subparsers(dest="family", required=True)
    for family, (_, arguments) in _GEN_FAMILIES.items():
        q = families.add_parser(family)
        q.set_defaults(_parser=q)
        q.add_argument(_FORMAT[0], **_FORMAT[1])
        q.add_argument("-o", "--output", default=None)
        for name, type_, _ in arguments:
            q.add_argument(name, type=type_)
        if family == "random":
            q.add_argument("--max-tries", type=int, default=1000)
    return parser
