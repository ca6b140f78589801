"""The CLI's argparse parser, built from ``cli``'s command table.  ``cli.main``
imports it only for the command lines the table does not read: help, usage
errors, gen, and the spellings only argparse accepts.  The tables come in
as arguments: under ``python -m treebound.cli`` the CLI runs as
``__main__``, and an import of ``cli`` here would load a second copy."""

import argparse
import sys


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


def build_parser(
    commands: dict, format_option: tuple, gen_families: dict
) -> argparse.ArgumentParser:
    """The CLI's parser from its tables, ``cli._COMMANDS``, ``cli._FORMAT``
    and ``cli._GEN_FAMILIES``: every subcommand of `commands` with its
    options, in table order, and every family of `gen_families`, each with
    the `format_option`."""
    parser = _Parser(
        prog="treebound",
        description="Count tree copies in graphs and check the bounds they satisfy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, options) in commands.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(_parser=p)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    families = sub.choices["gen"].add_subparsers(dest="family", required=True)
    for family, (_, arguments) in gen_families.items():
        q = families.add_parser(family)
        q.set_defaults(_parser=q)
        q.add_argument(format_option[0], **format_option[1])
        q.add_argument("-o", "--output", default=None)
        for name, type_, _ in arguments:
            q.add_argument(name, type=type_)
        if family == "random":
            q.add_argument("--max-tries", type=int, default=1000)
    return parser
