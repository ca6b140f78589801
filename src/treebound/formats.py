"""Payload formatting shared by the CLI envelope and the report writers.

A leaf module: the CLI formats every command's payload with these, so it
stays free of the library's heavier modules.  _csv_cell is the one place
that turns a value into a CSV cell, csv_text the one place that writes CSV
lines, and format_count the one place that turns a count into its decimal
text.  csv_table does both for its callers' raw values; csv_cells formats
cells once for a caller that keeps them and writes them with csv_text.
"""

from __future__ import annotations

import math

__all__ = [
    "SCHEMA_VERSION",
    "format_count",
    "format_rational",
    "format_log",
    "csv_cells",
    "csv_table",
    "csv_text",
]

SCHEMA_VERSION = "1"


def format_count(value: int) -> str:
    """str(value), which Python 3.11+ refuses past 4300 digits; such a
    count is written through decimal, which has no limit and the same
    digits."""
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(value))


def format_rational(numerator: int, denominator: int) -> str:
    """numerator/denominator (denominator > 0) in lowest terms; zero is 0/1."""
    common = math.gcd(numerator, denominator)
    return f"{numerator // common}/{denominator // common}"


def _fraction_text(value) -> str:
    """A Fraction as format_rational writes it: already in lowest terms."""
    return f"{value.numerator}/{value.denominator}"


def format_log(value: float) -> float:
    """Round-trip a log value through 15 significant digits."""
    return float(f"{value:.15g}")


def _or_none(fmt, value):
    """fmt(value), or None when the value is missing."""
    return None if value is None else fmt(value)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.15g}"
    return format_count(value)


def csv_cells(values) -> tuple[str, ...]:
    """Each value's CSV cell, as csv_table formats it."""
    return tuple(map(_csv_cell, values))


def csv_table(header, rows) -> str:
    """The package's CSV table of raw values: a header line, then the rows.

    Every cell is formatted here: None is empty, a bool is true/false, a
    float has 15 significant digits, an int is its format_count, and
    anything else is its str.
    """
    return csv_text(header, (map(_csv_cell, row) for row in rows))


def csv_text(header, rows) -> str:
    """The one CSV writer of the package: a header line, then rows of cells
    that are already text, from csv_cells."""
    # imported here: JSON output, the default, needs no csv module
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()
