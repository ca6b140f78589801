"""The CLI's three process entries, as the arguments that follow the interpreter.

``python -m treebound``, ``python -m treebound.cli`` (the benchmark's
entry) and pyproject's ``treebound`` console script, which is run here as
the wrapper that pip generates runs it.  Only the standard library is
imported, so ``python -S`` smoke runs can use these too.  Also the fault
that makes ``verify`` exit 1, which a child process loads from a
``sitecustomize`` module to compare its output with in-process ``main``.
"""

import re
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def console_script() -> list[str]:
    """``-c`` code that imports pyproject's ``treebound`` script target and
    exits with what it returns, as pip's wrapper does."""
    target = re.search(r'^treebound = "([\w.]+):(\w+)"$', PYPROJECT.read_text(), re.M)
    module, function = target.groups()
    return ["-c", f"import sys; from {module} import {function}; sys.exit({function}())"]


ENTRIES = {
    "module": ["-m", "treebound"],
    "cli-module": ["-m", "treebound.cli"],
    "console-script": console_script(),
}


def fail_first_check(report):
    """``checks.instance_report`` with its first check failed: the only way
    ``verify`` exits 1, since every check holds on a correct library."""

    def instance_report(*args, **kwargs):
        checks, chain = report(*args, **kwargs)
        first = checks[0]
        return [type(first)(first.name, False, first.detail), *checks[1:]], chain

    return instance_report
