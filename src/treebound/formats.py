"""Payload formatting shared by the CLI envelope and the report writers.

A leaf module: the CLI formats every command's payload with these, so it
stays free of the library's heavier modules.  harness re-exports them.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["SCHEMA_VERSION", "format_rational", "format_log", "csv_table"]

SCHEMA_VERSION = "1"


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def format_log(value: float) -> float:
    """Round-trip a log value through 15 significant digits."""
    return float(f"{value:.15g}")


def csv_table(header, rows) -> str:
    """The one CSV writer of the package: a header line, then the rows."""
    # imported here: JSON output, the default, needs no csv module
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()
