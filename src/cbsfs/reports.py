"""Deterministic CSV/JSON emission with the run configuration echoed.

Every data file starts with comment lines recording the scientific
configuration that produced it (never the worker count, which must not
change the bytes).  Floats are written with repr, the shortest exact
round-trip form, so re-runs with the same seed are byte-identical.  Both
formats refuse non-finite floats, so an overflowed result writes no file.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

SCHEMA_VERSION = 3


def fmt_value(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"Out of range float values are not CSV compliant: {x!r}")
        return repr(x)
    return str(x)


def header_lines(command: str, pairs: list[tuple[str, object]]) -> list[str]:
    lines = [f"# cbsfs {command}", f"# schema_version={SCHEMA_VERSION}"]
    lines.extend(f"# {key}={fmt_value(value)}" for key, value in pairs)
    return lines


def _write(path: str | Path, text: str) -> None:
    """Write a whole file or none, creating its parent directory if missing.

    The text goes to a temporary file beside ``path`` that replaces it only
    once complete, so a failed write leaves any previous file as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(
    path: str | Path,
    command: str,
    pairs: list[tuple[str, object]],
    columns: list[str],
    rows: list[list],
) -> None:
    out = header_lines(command, pairs)
    out.append(",".join(columns))
    for row in rows:
        out.append(",".join(fmt_value(x) for x in row))
    _write(path, "\n".join(out) + "\n")


def write_json_doc(
    path: str | Path, command: str, pairs: list[tuple[str, object]], payload
) -> None:
    doc = {
        "command": command,
        "schema_version": SCHEMA_VERSION,
        "config": {key: value for key, value in pairs},
        "data": payload,
    }
    # compact separators keep json on its C encoder (indent forces pure Python)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    _write(path, text + "\n")


def write_text(path: str | Path, lines: list[str]) -> None:
    _write(path, "\n".join(lines) + "\n")
