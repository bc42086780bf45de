"""Deterministic CSV/JSON emission with the run configuration echoed.

Every data file starts with comment lines recording the scientific
configuration that produced it (never the worker count, which must not
change the bytes).  Floats are written with repr, the shortest exact
round-trip form, so re-runs with the same seed are byte-identical.  Both
formats refuse non-finite floats with a FloatingPointError, so an
overflowed result writes no file.

Every file is written whole or not at all: it goes to a temporary file
beside its target that replaces the target only once complete.  The
``sample`` pair is streamed: :func:`write_sample` writes each record to both
files as it is drawn and renames the two together after the last, so a run
holds the arrays of one block and the text of one record, not all of them.
A record arrives as text, already rendered, so the ``sample`` writer cannot
refuse a float that is not finite; the block that draws it does.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import ExitStack, contextmanager
from itertools import chain
from pathlib import Path

SCHEMA_VERSION = 4


def fmt_value(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise FloatingPointError(f"Out of range float values are not CSV compliant: {x!r}")
        return repr(x)
    return str(x)


def header_lines(command: str, pairs: list[tuple[str, object]]) -> list[str]:
    lines = [f"# cbsfs {command}", f"# schema_version={SCHEMA_VERSION}"]
    lines.extend(f"# {key}={fmt_value(value)}" for key, value in pairs)
    return lines


@contextmanager
def _replacing(*paths: Path):
    """Open a temporary text file beside each of ``paths``, creating missing
    parent directories, and yield the open files in that order.

    Once the block ends, each file replaces its path; if it raises instead,
    the temporary files are removed and any previous files stay as they were.
    """
    tmps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    try:
        with ExitStack() as stack:
            files = []
            for path, tmp in zip(paths, tmps):
                path.parent.mkdir(parents=True, exist_ok=True)
                files.append(stack.enter_context(tmp.open("w")))
            yield files
        for path, tmp in zip(paths, tmps):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def _write(path: str | Path, text: str) -> None:
    """Write a whole file or none (see :func:`_replacing`)."""
    with _replacing(Path(path)) as (out,):
        out.write(text)


def _dumps(value) -> str:
    # compact separators keep json on its C encoder (indent forces pure Python)
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:  # allow_nan=False: a float that is not finite
        raise FloatingPointError(str(exc)) from None


def _json_envelope(command: str, pairs: list[tuple[str, object]]) -> tuple[str, str]:
    """The text of a JSON document before and after its ``data`` list's
    items, with the keys in sorted order."""
    config = _dumps({key: value for key, value in pairs})
    head = f'{{"command":{_dumps(command)},"config":{config},"data":['
    return head, f'],"schema_version":{SCHEMA_VERSION}}}\n'


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
    path: str | Path, command: str, pairs: list[tuple[str, object]], payload: list
) -> None:
    head, tail = _json_envelope(command, pairs)
    _write(path, head + ",".join(_dumps(item) for item in payload) + tail)


def sample_item(replicate: int, row: tuple[str, str, str, str, str]) -> str:
    """The item of the ``sample`` document for the record ``replicate`` of
    text ``row = (newick, labels, positions, atoms, zetas)``: the Newick
    line and the JSON items of each list, joined by commas, put in the
    layout of :func:`_dumps`, compact with the keys in sorted order."""
    newick, labels, positions, atoms, zetas = row
    return (
        f'{{"leaf_config":{{"labels":[{labels}],"positions":[{positions}]}},"mutations":{{"atoms":[{atoms}]}},'
        f'"newick":"{newick}","replicate":{replicate},"zetas":{{"zetas":[{zetas}]}}}}'
    )


def write_sample(base: Path, pairs: list[tuple[str, object]], blocks) -> None:
    """Write ``<base>.nwk`` and ``<base>.json`` from an iterable of blocks of
    rows, one row at a time: a row is the text of one replay record, whose
    Newick text is its line of the ``.nwk`` file and which
    :func:`sample_item` makes an item of the ``sample`` document."""
    head, tail = _json_envelope("sample", pairs)
    with _replacing(base.with_suffix(".nwk"), base.with_suffix(".json")) as (nwk, doc):
        doc.write(head)
        # chain drops each block before it asks for the next one to be drawn
        for replicate, row in enumerate(chain.from_iterable(blocks)):
            nwk.write(row[0] + "\n")
            doc.write(("," if replicate else "") + sample_item(replicate, row))
        doc.write(tail)


def write_text(path: str | Path, lines: list[str]) -> None:
    _write(path, "\n".join(lines) + "\n")
