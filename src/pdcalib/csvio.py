"""The one CSV dialect of every input file, and the one way to write results.

Inputs: UTF-8 with or without a byte-order mark, a header row before any
data, blank and ``#`` lines skipped, cells stripped, every data row as
wide as the header.  A format is a header plus a row converter on
``read_rows``, and any error names the file and, when it has one, the
physical line.  Converters read numbers with ``finite_row`` (a
row's numbers in one step) or ``probability`` (one cell in [0, 1]) and
names that reach a result file with ``bare_cell``.  Results:
``write_outputs`` stages a command's files and moves them into place only
when all are written, manifest last.  ``hashlib`` and ``json`` are imported
when a command writes (``envelope``, ``json_text``), so ``--version``,
``--help`` and usage errors load neither.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import time
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from . import __version__

__all__ = ["CohortError", "read_rows", "finite_row", "probability", "bare_cell", "csv_text",
           "json_text", "write_outputs", "envelope"]

MANIFEST = "manifest.json"

# what a bare (unquoted) result CSV cell must not hold: , " and every C0 control and DEL
_NEEDS_QUOTES = frozenset(',"\x7f' + "".join(map(chr, range(32))))

T = TypeVar("T")


class CohortError(ValueError):
    """Malformed or inconsistent input.  Carries a line number when known."""

    def __init__(self, message: str, line: int | None = None, source: str | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        if source is not None:
            message = f"{source}: {message}"
        super().__init__(message)


def read_rows(source, header: Sequence[str] | Callable[[int], Sequence[str]],
              convert: Callable[[list[str]], T]) -> list[T]:
    """``convert`` applied to each data row of a CSV file, in file order.

    ``source`` is a path or an open text handle (read, not closed).
    ``header`` is the expected header, or, for formats with a variable
    number of columns, a function from the number of header cells to it.
    Raises CohortError for a missing or unexpected header, a row of the
    wrong width, a row the csv module cannot read, or a ``ValueError``
    raised by ``convert``, with the line, and for text that is not UTF-8.
    """
    name = os.fspath(source) if isinstance(source, (str, os.PathLike)) else None
    opened = (open(source, encoding="utf-8-sig", newline="") if name is not None
              else contextlib.nullcontext(source))
    expected = None
    out: list[T] = []
    with opened as handle:
        reader = csv.reader(handle)
        try:
            for row in reader:
                cells = list(map(str.strip, row))
                if not cells or cells[0].startswith("#") or cells == [""]:
                    continue
                line = reader.line_num
                if expected is None:
                    expected = tuple(header(len(cells)) if callable(header) else header)
                    if tuple(cells) != expected:
                        raise CohortError(f"expected header {','.join(expected)}, "
                                          f"got {','.join(cells)}", line, name)
                    continue
                if len(cells) != len(expected):
                    raise CohortError(f"expected {len(expected)} fields, got {len(cells)}",
                                      line, name)
                try:
                    out.append(convert(cells))
                except ValueError as exc:
                    raise CohortError(str(exc), line, name) from None
        except csv.Error as exc:  # an oversized cell, or a NUL byte before Python 3.11
            raise CohortError(str(exc), reader.line_num, name) from None
        except UnicodeDecodeError as exc:
            raise CohortError(f"not UTF-8 text: {exc}", source=name) from None
    if expected is None:
        raise CohortError("missing header", source=name)
    return out


def finite_row(cells: Sequence[str]) -> tuple[float, ...]:
    """The numbers in ``cells``; ValueError for text, ``nan`` and infinities,
    naming the first such cell."""
    values = tuple(map(float, cells))
    if not all(map(math.isfinite, values)):
        bad = next(cell for cell, value in zip(cells, values) if not math.isfinite(value))
        raise ValueError(f"non-finite number {bad!r}")
    return values


def probability(cell: str, what: str) -> float:
    """The number in ``cell`` if it lies in [0, 1]; ValueError naming ``what`` otherwise."""
    (value,) = finite_row((cell,))
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must lie in [0, 1], got {cell}")
    return value


def bare_cell(text: str, what: str) -> str:
    """``text`` unchanged if a result CSV can carry it as an unquoted cell:
    non-empty and free of ``,"``, control characters and DEL.  ValueError
    naming ``what`` otherwise."""
    if not text or not _NEEDS_QUOTES.isdisjoint(text):
        raise ValueError(f"invalid {what} {text!r}")
    return text


def csv_text(header: Sequence[str], rows) -> str:
    """A result CSV: the manifest reference, the header, then one line per row,
    each cell as ``str`` writes it (a float as its shortest round-trip repr)."""
    lines = [f"# manifest: {MANIFEST}", ",".join(header)]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def json_text(doc: dict) -> str:
    import json
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_outputs(out_dir: str | Path, files: dict[str, str], manifest: dict) -> None:
    """Write ``files`` (name -> text) and ``manifest.json`` into ``out_dir``, all or none.

    Every file is first written in ``out_dir`` under a staging name that
    ends in neither ``.csv`` nor ``.json``; then each is renamed into
    place, ``manifest.json`` last.  On any error the staged files are
    removed and the files already in ``out_dir`` are left untouched.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    staged: list[tuple[Path, Path]] = []

    def stage(name: str, text: str) -> None:
        tmp = out_dir / f".{name}.{os.getpid()}.part"
        staged.append((tmp, out_dir / name))
        tmp.write_text(text, encoding="utf-8")

    try:
        for name, text in files.items():
            stage(name, text)
        stage(MANIFEST, json_text(manifest))
        for tmp, final in staged:
            os.replace(tmp, final)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def envelope(command: str, started: float, **inputs: Path | None) -> dict:
    """Manifest entries every command writes.

    The command, the tool version, ``<name>_path`` and
    ``<name>_digest`` (a 64-bit content hash, hex encoded) for each input
    file, both empty for an input not given, and the seconds since
    ``started`` (a ``time.perf_counter`` reading).
    """
    import hashlib
    doc = {"command": command, "tool_version": __version__}
    for name, path in inputs.items():
        digest = hashlib.blake2b(Path(path).read_bytes(), digest_size=8).hexdigest() if path else ""
        doc[f"{name}_path"] = str(path or "")
        doc[f"{name}_digest"] = digest
    doc["duration_seconds"] = round(time.perf_counter() - started, 3)
    return doc
