"""Output oracles.

`analyze` appends one loss-accounting line that names its source (TSV
line counts or colstore row counts); `serve` publishes the same tables
without it. Every cross-path comparison therefore strips that line and
compares the rest byte for byte.
"""

LOSS_PREFIX = "loss accounting:"


def strip_loss_line(report):
    """The report tables without the loss-accounting line."""
    return "".join(
        line
        for line in report.splitlines(keepends=True)
        if not line.startswith(LOSS_PREFIX)
    )


def same_tables(a, b):
    return strip_loss_line(a) == strip_loss_line(b)
