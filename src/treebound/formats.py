"""Payload formatting shared by the CLI envelope and the report writers.

A leaf module: the CLI formats every command's payload with these, so it
stays free of the library's heavier modules.  csv_table is the one place
that turns a value into a CSV cell; its callers pass raw values, and
format_count is the one place that turns a count into its decimal text.
"""

from __future__ import annotations

import math

__all__ = ["SCHEMA_VERSION", "format_count", "format_rational", "format_log", "csv_table"]

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
    return format_rational(value.numerator, value.denominator)


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


def csv_table(header, rows) -> str:
    """The one CSV writer of the package: a header line, then the rows.

    Every cell is formatted here: None is empty, a bool is true/false, a
    float has 15 significant digits, an int is its format_count, and
    anything else is its str.
    """
    # imported here: JSON output, the default, needs no csv module
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_csv_cell, row) for row in rows)
    return buffer.getvalue()
