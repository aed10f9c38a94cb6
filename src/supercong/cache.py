"""Append-only CSV cache for expensive residue computations.

Columns: quantity,p,r,params,residue. Lookups are exact-match on the
first four columns; the file is human-inspectable and diff-friendly.
Each residue is canonical modulo p**e, with e taken from the params'
`e=` field (p**r when there is none); a row outside that range is
refused on load. A final line without its newline is the torn tail of an
interrupted append: it is skipped with a warning and cut off before the
next append. An append holds an exclusive flock on the file, so appends
from several processes never interleave, and syncs its rows to disk
before it lets the lock go.
"""

from __future__ import annotations

import csv
import fcntl
import io
import os
import sys
from pathlib import Path

COLUMNS = ("quantity", "p", "r", "params", "residue")

CacheKey = tuple[str, int, int, str]


def _below_power(value: int, p: int, e: int) -> bool:
    """value < p**e, without building p**e for an absurd e."""
    bound = 1
    for _ in range(e):
        bound *= p
        if bound > value:
            return True
    return value < bound


class ResidueCache:
    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.rows: dict[CacheKey, int] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        data = self.path.read_bytes()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            torn = data[end:].decode(errors="replace")
            print(f"warning: skipping torn final row {torn!r} in {self.path}", file=sys.stderr)
        reader = csv.reader(data[:end].decode().splitlines())
        header = next(reader, None)
        if header is not None and tuple(header) != COLUMNS:
            raise ValueError(f"{self.path} is not a residue cache (header {header})")
        for line, row in enumerate(reader, start=2):
            key, value = self._parse(row, line)
            self.rows[key] = value

    def _parse(self, row: list[str], line: int) -> tuple[CacheKey, int]:
        """The row's key and residue; the error text is built only for a bad row."""
        try:
            quantity, p, r, params, residue = row  # a row of the wrong length is malformed too
            p, r, value = int(p), int(r), int(residue)
            # e is the last item named e (a bare e is ""), as a dict of the items keeps it, else r
            items = f";{params};"
            at = max(items.rfind(";e="), items.rfind(";e;"))
            e = r if at < 0 else int(items[at + 3:items.index(";", at + 1)])
        except ValueError:
            raise ValueError(f"malformed cache row {row!r} at line {line} of {self.path}") from None
        if p < 2 or e < 1 or value < 0 or not _below_power(value, p, e):
            raise ValueError(f"cache row {row!r} at line {line} of {self.path}: "
                             f"residue {value} is not canonical mod {p}**{e}")
        return (quantity, p, r, params), value

    def append(self, new_rows: dict[CacheKey, int]) -> int:
        """Append unseen rows (sorted by key) and fold them in; returns count.

        The torn tail is cut and the rows written, in one write with the
        header when the file is empty, and synced to disk (os.fsync), all
        under an exclusive lock on the file, so that appenders in other
        processes cannot tear each other's rows."""
        fresh = {k: v for k, v in new_rows.items() if k not in self.rows}
        if not fresh:
            return 0
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerows([*key, fresh[key]] for key in sorted(fresh))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)  # released when the file closes
            fh.seek(0)
            data = fh.read()
            end = data.rfind(b"\n") + 1
            if end < len(data):
                fh.truncate(end)
            header = b"" if end else ",".join(COLUMNS).encode() + b"\n"
            fh.write(header + out.getvalue().encode())
            fh.flush()
            os.fsync(fh.fileno())  # on disk before the lock is released
        self.rows.update(fresh)
        return len(fresh)
