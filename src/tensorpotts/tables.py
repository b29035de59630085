"""The one writer behind every CSV/JSON table; it imports only the standard
library, so the phase-only CLI commands that write tables load no other layer."""

import json


def write_table(path, columns, rows, fmt: str = "csv", comment: str | None = None) -> None:
    """Write ``rows`` as a JSON list of records or as CSV: floats at 17
    significant digits (so files round-trip exactly), strings verbatim, after
    an optional ``# comment`` line."""
    with open(path, "w") as fh:
        if fmt == "json":
            json.dump([dict(zip(columns, [v if isinstance(v, str) else float(v) for v in row]))
                       for row in rows], fh, indent=2)
            fh.write("\n")
            return
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            row = tuple(row)
            fh.write(",".join(["%s" if isinstance(v, str) else "%.17g" for v in row]) % row + "\n")
