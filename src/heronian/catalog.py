"""Persisted index of Heronian triangles, keyed by perimeter and by area.

The on-disk format is JSON Lines: one header object on the first line,
then one record object per line, records sorted by (perimeter, a, b, c).
Building twice with the same bound produces identical bytes except for
the header timestamp, so catalogs diff cleanly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import repeat
from typing import NamedTuple, get_type_hints

from heronian.core import Classification, Triangle, _area, _check_bound, _check_int, _classify
from heronian.enumeration import (
    _kernel_join,
    area_perimeter_bound,
    triangles_with_perimeter,  # unused here; the benchmark tracer wraps this name
)

__all__ = [
    "Catalog",
    "CatalogFormatError",
    "CatalogRecord",
    "CatalogVersionError",
    "FORMAT_VERSION",
    "RECORD_FIELDS",
    "build",
    "load",
    "save",
]

FORMAT_VERSION = 1

# header fields in file order, with the exact type each value must have
_HEADER_TYPES = {"format_version": int, "p_max": int, "count": int, "built_at": str}


class CatalogFormatError(ValueError):
    """Raised for malformed catalog files; the message names the line."""


class CatalogVersionError(CatalogFormatError):
    """Raised when a catalog file's format version is unsupported."""


class CatalogRecord(NamedTuple):
    a: int
    b: int
    c: int
    perimeter: int
    area: int
    classification: str

    @classmethod
    def from_triangle(cls, t: Triangle) -> CatalogRecord:
        area = _area(t)
        return cls(t.a, t.b, t.c, t.perimeter, area, _classify(area, t.perimeter))

    def triangle(self) -> Triangle:
        return Triangle(self.a, self.b, self.c)

    def row(self) -> dict:
        """The record as a JSON object, keys in RECORD_FIELDS order."""
        return self._asdict()


RECORD_FIELDS = CatalogRecord._fields
_RECORD_TYPES = get_type_hints(CatalogRecord)  # five ints and a str, in field order
_RECORD_LINE = (
    '{"a":%d,"b":%d,"c":%d,"perimeter":%d,"area":%d,"classification":"%s"}\n')
# _RECORD_LINE as a bytes pattern: each %d becomes [1-9][0-9]* of at most
# 100 digits, far below the int/str digit limit (640 at its lowest
# setting), and %s one of the three classifications. Why a match parses
# exactly as json.loads would: see load.
_CLASSIFICATIONS = {c.value.encode(): c.value for c in Classification}
_CANONICAL_RECORD = re.compile(
    re.escape(_RECORD_LINE.rstrip("\n").encode())
    .replace(b"%d", rb"([1-9][0-9]{0,99})")
    .replace(b"%s", b"(" + b"|".join(_CLASSIFICATIONS) + b")")
    + rb"\n?"
)


@dataclass
class Catalog:
    """Immutable-by-convention index over a perimeter-bounded record set.

    Equality compares the bound and the records; the build timestamp is
    informational only and excluded.
    """

    p_max: int
    records: tuple[CatalogRecord, ...]
    built_at: str = field(compare=False, default="")
    _by_perimeter: dict = field(init=False, compare=False, repr=False, default_factory=dict)
    _by_area: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        # the indexes hold records; queries build Triangles only for their matches
        for r in self.records:
            self._by_perimeter.setdefault(r.perimeter, []).append(r)
            self._by_area.setdefault(r.area, []).append(r)

    def __len__(self) -> int:
        return len(self.records)

    def header(self) -> dict:
        """The file's first line: format version, bound, record count, build time."""
        values = (FORMAT_VERSION, self.p_max, len(self.records), self.built_at)
        return dict(zip(_HEADER_TYPES, values))

    def query_by_perimeter(self, p: int) -> tuple[list[Triangle], bool]:
        """Triangles with perimeter p, plus a completeness flag.

        The answer is complete exactly when p is inside the built range.
        A p that is not a plain int raises TypeError.
        """
        _check_int("p", p)
        matches = self._by_perimeter.get(p, ())
        return [r.triangle() for r in sorted(matches)], p <= self.p_max

    def query_by_area(self, area: int) -> tuple[list[Triangle], bool]:
        """Triangles with the given area, plus a completeness flag.

        Every Heronian triangle of a given area has perimeter at most
        2*area^2, so the answer is guaranteed complete only when that
        bound fits inside the built range; otherwise it is best-effort
        and the flag is False rather than silently truncating. An area
        that is not a plain int raises TypeError.
        """
        _check_int("area", area)
        matches = self._by_area.get(area, ())
        return [r.triangle() for r in sorted(matches)], area_perimeter_bound(area) <= self.p_max


def build(p_max: int, workers: int = 1) -> Catalog:
    """Index every Heronian triangle with perimeter <= p_max.

    The perimeter range is split into one chunk per worker. Each chunk's
    join rows (see _kernel_join) are plain ints sorted by (perimeter, a,
    b, c), and this process makes every record from them, so no Triangle
    is built, heron_area's cache is left alone and each record shares its
    classification's str. With workers > 1 a process pool runs the joins;
    pool.map keeps the chunk order, so the result does not depend on
    worker scheduling. The pool does not pay on 2 cores; it stays only
    for the perfbench/ probe build(2000, workers=2).
    """
    _check_bound("p_max", p_max)
    _check_bound("workers", workers)
    step = max(2, (p_max // workers + 1) & ~1)
    los = range(1, p_max + 1, step)
    his = [min(lo + step, p_max + 1) for lo in los]
    if workers == 1:
        parts = map(_kernel_join, los, his, repeat(None))
    else:
        # imported here so that only a pooled build pays for the pool machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_kernel_join, los, his, repeat(None)))
    # made as CatalogRecord._make does, without the class's __new__ frame;
    # every tuple has the six fields in order. A serial build's rows are
    # freed as the comprehension ends, before the Catalog builds its indexes.
    new = tuple.__new__
    records = [new(CatalogRecord, (x + y, x + z, y + z, 2 * s, area, _classify(area, 2 * s)))
               for part in parts for s, x, y, z, area in part]
    built_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return Catalog(p_max, tuple(records), built_at)


def save(cat: Catalog, path) -> None:
    """Write a catalog as JSON Lines (header line, then one record per line).

    Each record line is one format string, with the same bytes as
    json.dumps(r.row(), separators=(",", ":")) for integer fields and a
    Classification value.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(cat.header(), separators=(",", ":")) + "\n")
        fh.writelines(_RECORD_LINE % r for r in cat.records)


def _read_line(raw: bytes, lineno: int, types: dict) -> dict:
    """A line not in save's spelling, as a dict whose keys are those of
    types, in order, each value of exactly its type: the header (line 1,
    typed by _HEADER_TYPES) or a record (typed by CatalogRecord's
    annotations)."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CatalogFormatError(f"line {lineno}: not valid UTF-8") from exc
    if not line.strip():
        blank = "missing header" if lineno == 1 else "blank record line"
        raise CatalogFormatError(f"line {lineno}: {blank}")
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integer literals over the interpreter's digit
        # limit; RecursionError covers nesting deeper than the decoder allows
        detail = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
        raise CatalogFormatError(f"line {lineno}: invalid JSON ({detail})") from exc
    if not isinstance(obj, dict) or list(obj) != list(types):
        raise CatalogFormatError(
            f"line {lineno}: expected keys {list(types)}, got "
            f"{list(obj) if isinstance(obj, dict) else type(obj).__name__}"
        )
    for name, kind in types.items():
        if type(obj[name]) is not kind:
            raise CatalogFormatError(
                f"line {lineno}: {name} must be {kind.__name__}, got {obj[name]!r}"
            )
    return obj


def load(path) -> Catalog:
    """Read a catalog written by save, validating it line by line.

    The header's fields must have their types. Each record's numbers must
    be plain integers and its sides sorted, positive and non-degenerate.
    Its perimeter, area and classification must agree with its sides,
    checked in exact integer arithmetic: area >= 1 and
    16·area² = (a+b+c)(−a+b+c)(a−b+c)(a+b−c). The perimeter must be within
    the header's p_max, and records must be strictly increasing in
    (perimeter, a, b, c), so sorted and unique.

    A record line spelled exactly as save writes it is parsed by one
    bytes regex (_CANONICAL_RECORD), with no decode, json.loads or dict.
    The match is exact: such a line is valid JSON with the record keys in
    order, and its numbers are [1-9][0-9]* of at most 100 digits, so
    int() gives the values json.loads would. The header and any other
    record line (spaces, escapes, CRLF, signs, leading zeros, longer
    numbers, bad UTF-8) take the one typed reader, _read_line; both kinds
    of record line then pass the same checks, with the same line-numbered
    errors. A load of the 11,861-record p_max 2000 catalog takes a median
    30–34 ms this way, against 58–62 ms when every line takes json.loads
    (medians of 9 loads in 8 processes; method and host in the README).
    """
    canonical = _CANONICAL_RECORD.fullmatch
    new = tuple.__new__
    with open(path, "rb") as fh:
        header = _read_line(fh.readline(), 1, _HEADER_TYPES)
        if header["format_version"] != FORMAT_VERSION:
            raise CatalogVersionError(
                f"unsupported format version {header['format_version']!r}, "
                f"expected {FORMAT_VERSION}"
            )
        p_max = header["p_max"]
        records = []
        previous = ()  # sorts before every key
        for lineno, raw in enumerate(fh, start=2):
            match = canonical(raw)
            if match:
                a, b, c, perimeter, area, classification = match.groups()
                a, b, c, perimeter, area = int(a), int(b), int(c), int(perimeter), int(area)
                classification = _CLASSIFICATIONS[classification]
            else:
                row = _read_line(raw, lineno, _RECORD_TYPES)
                a, b, c, perimeter, area, classification = row.values()
            sides = (a, b, c)
            if not a <= b <= c:
                raise CatalogFormatError(f"line {lineno}: sides {sides} are not sorted")
            if a < 1 or a + b <= c:
                raise CatalogFormatError(
                    f"line {lineno}: sides {sides} are degenerate or not positive"
                )
            if perimeter != a + b + c:
                raise CatalogFormatError(
                    f"line {lineno}: perimeter {perimeter} does not match sides {sides}"
                )
            # Heron's formula squared; it alone would also accept the negated area
            if area < 1 or (16 * area * area
                            != perimeter * (b + c - a) * (a + c - b) * (a + b - c)):
                raise CatalogFormatError(
                    f"line {lineno}: area {area} does not match sides {sides}"
                )
            expected = _classify(area, perimeter)
            if classification != expected:
                raise CatalogFormatError(
                    f"line {lineno}: classification {classification!r} "
                    f"does not match sides {sides}"
                )
            if perimeter > p_max:
                raise CatalogFormatError(
                    f"line {lineno}: perimeter {perimeter} exceeds p_max {p_max}"
                )
            key = (perimeter, a, b, c)
            if key <= previous:
                problem = "duplicate record" if key == previous else "record out of order"
                raise CatalogFormatError(f"line {lineno}: {problem} {sides}")
            previous = key
            # the shared str, whichever parser read the line
            records.append(new(CatalogRecord, (a, b, c, perimeter, area, expected)))
    if len(records) != header["count"]:
        raise CatalogFormatError(
            f"line {len(records) + 1}: header count {header['count']} does not "
            f"match {len(records)} record lines (truncated file?)"
        )
    return Catalog(p_max, tuple(records), header["built_at"])
