"""Persisted index of Heronian triangles, keyed by perimeter and by area.

The on-disk format is JSON Lines: one header object on the first line,
then one record object per line, records sorted by (perimeter, a, b, c).
Building twice with the same bound produces identical bytes except for
the header timestamp, so catalogs diff cleanly.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

from heronian.core import Classification, Triangle, heron_area
from heronian.enumeration import (
    area_perimeter_bound,
    triangles_in_perimeter_range,
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


@dataclass(frozen=True, order=True)
class CatalogRecord:
    a: int
    b: int
    c: int
    perimeter: int
    area: int
    classification: str

    @classmethod
    def from_triangle(cls, t: Triangle) -> CatalogRecord:
        # uncached, so that building a catalog does not fill heron_area's cache
        area = heron_area.__wrapped__(t)
        if area is None:
            raise ValueError(f"{t} is not Heronian")
        return cls(t.a, t.b, t.c, t.perimeter, area,
                   Classification.compare(area, t.perimeter).value)

    def triangle(self) -> Triangle:
        return Triangle(self.a, self.b, self.c)

    def row(self) -> dict:
        """The record as a JSON object, keys in RECORD_FIELDS order."""
        return {name: getattr(self, name) for name in RECORD_FIELDS}


RECORD_FIELDS = tuple(f.name for f in fields(CatalogRecord))


@dataclass
class Catalog:
    """Immutable-by-convention index over a perimeter-bounded record set.

    Equality compares the bound and the records; the build timestamp is
    informational only and excluded.
    """

    p_max: int
    records: tuple[CatalogRecord, ...]
    built_at: str = field(compare=False, default="")
    _by_perimeter: dict = field(compare=False, repr=False, default_factory=dict)
    _by_area: dict = field(compare=False, repr=False, default_factory=dict)

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
        """
        matches = self._by_perimeter.get(p, ())
        return sorted(r.triangle() for r in matches), p <= self.p_max

    def query_by_area(self, area: int) -> tuple[list[Triangle], bool]:
        """Triangles with the given area, plus a completeness flag.

        Every Heronian triangle of a given area has perimeter at most
        2*area^2, so the answer is guaranteed complete only when that
        bound fits inside the built range; otherwise it is best-effort
        and the flag is False rather than silently truncating.
        """
        matches = self._by_area.get(area, ())
        return sorted(r.triangle() for r in matches), area_perimeter_bound(area) <= self.p_max


def _records_for_range(bounds: tuple[int, int]) -> list[CatalogRecord]:
    """Records for perimeters in [start, stop); a parallel work unit."""
    return [CatalogRecord.from_triangle(t) for t in triangles_in_perimeter_range(*bounds)]


def build(p_max: int, workers: int = 1) -> Catalog:
    """Index every Heronian triangle with perimeter <= p_max.

    With workers > 1 the perimeter range is split into consecutive
    chunks processed by a process pool. Each chunk comes back sorted by
    (perimeter, a, b, c) and pool.map keeps the chunk order, so the
    result does not depend on worker scheduling. The pool does not pay on
    2 cores; it stays only for the perfbench/ probe build(2000, workers=2).
    """
    if p_max < 1:
        raise ValueError("p_max must be positive")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if workers == 1:
        records = _records_for_range((1, p_max + 1))
    else:
        step = max(2, (p_max // workers + 1) & ~1)
        chunks = [(lo, min(lo + step, p_max + 1)) for lo in range(1, p_max + 1, step)]
        records = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_records_for_range, chunks):
                records.extend(part)
    built_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return Catalog(p_max, tuple(records), built_at)


def save(cat: Catalog, path) -> None:
    """Write a catalog as JSON Lines (header line, then one record per line)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(cat.header(), separators=(",", ":")) + "\n")
        for r in cat.records:
            fh.write(json.dumps(r.row(), separators=(",", ":")) + "\n")


def _decoded_lines(fh):
    """(line number, text) for each line of a binary file, counting from 1."""
    for lineno, raw in enumerate(fh, start=1):
        try:
            yield lineno, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CatalogFormatError(f"line {lineno}: not valid UTF-8") from exc


def _parse_line(line: str, lineno: int, expected_keys: tuple[str, ...]) -> dict:
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integer literals over the interpreter's digit
        # limit; RecursionError covers nesting deeper than the decoder allows
        detail = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
        raise CatalogFormatError(f"line {lineno}: invalid JSON ({detail})") from exc
    if not isinstance(obj, dict) or tuple(obj.keys()) != expected_keys:
        raise CatalogFormatError(
            f"line {lineno}: expected keys {list(expected_keys)}, got "
            f"{list(obj) if isinstance(obj, dict) else type(obj).__name__}"
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
    """
    with open(path, "rb") as fh:
        lines = _decoded_lines(fh)
        _, header_line = next(lines, (1, ""))
        if not header_line.strip():
            raise CatalogFormatError("line 1: missing header")
        header = _parse_line(header_line, 1, tuple(_HEADER_TYPES))
        for name, kind in _HEADER_TYPES.items():
            if type(header[name]) is not kind:
                raise CatalogFormatError(
                    f"line 1: {name} must be {kind.__name__}, got {header[name]!r}"
                )
        if header["format_version"] != FORMAT_VERSION:
            raise CatalogVersionError(
                f"unsupported format version {header['format_version']!r}, "
                f"expected {FORMAT_VERSION}"
            )
        p_max = header["p_max"]
        records = []
        previous = ()  # sorts before every key
        for lineno, line in lines:
            if not line.strip():
                raise CatalogFormatError(f"line {lineno}: blank record line")
            row = _parse_line(line, lineno, RECORD_FIELDS)
            a, b, c, perimeter, area, classification = row.values()
            sides = (a, b, c)
            if ({type(a), type(b), type(c), type(perimeter), type(area)} != {int}
                    or type(classification) is not str):
                raise CatalogFormatError(
                    f"line {lineno}: bad record (numbers must be plain integers "
                    f"and classification a string, got {row!r})"
                )
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
            if classification != Classification.compare(area, perimeter).value:
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
            records.append(CatalogRecord(a, b, c, perimeter, area, classification))
    if len(records) != header["count"]:
        raise CatalogFormatError(
            f"line {len(records) + 1}: header count {header['count']} does not "
            f"match {len(records)} record lines (truncated file?)"
        )
    return Catalog(p_max, tuple(records), header["built_at"])
