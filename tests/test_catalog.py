import json

import pytest

from oracles import naive_triangle_scan

from heronian.catalog import (
    Catalog,
    CatalogFormatError,
    CatalogRecord,
    CatalogVersionError,
    build,
    load,
    save,
)
from heronian.core import Triangle
from heronian.enumeration import triangles_with_area, triangles_with_perimeter


def test_build_small_bounds():
    cat = build(12)
    assert len(cat) == 1
    assert cat.records[0] == CatalogRecord(3, 4, 5, 12, 6, "deficient")
    assert len(build(2)) == 0
    cat36 = build(36)
    triangles = {r.triangle() for r in cat36.records}
    assert Triangle(9, 10, 17) in triangles
    assert Triangle(9, 12, 15) in triangles


def test_build_matches_naive_scan():
    cat = build(300)
    expected = [
        (a, b, c, a + b + c, area) for a, b, c, area in naive_triangle_scan(300)
    ]
    got = [(r.a, r.b, r.c, r.perimeter, r.area) for r in sorted(cat.records)]
    assert got == sorted(expected)


def test_odd_perimeters_never_appear():
    # same naive scan, no parity assumption anywhere: every hit is even
    for a, b, c, _area in naive_triangle_scan(300):
        assert (a + b + c) % 2 == 0


def test_records_are_sorted_and_unique():
    cat = build(300)
    keys = [(r.perimeter, r.a, r.b, r.c) for r in cat.records]
    assert keys == sorted(keys)
    assert len({(r.a, r.b, r.c) for r in cat.records}) == len(cat.records)


def test_parallel_build_equals_serial():
    assert build(240, workers=3) == build(240)


def test_roundtrip(tmp_path):
    cat = build(100)
    path = tmp_path / "c.jsonl"
    save(cat, path)
    loaded = load(path)
    assert loaded == cat
    assert loaded.built_at == cat.built_at
    assert loaded.p_max == cat.p_max


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(CatalogFormatError, match="line 1"):
        load(path)


def test_load_truncated_file(tmp_path):
    cat = build(100)
    path = tmp_path / "c.jsonl"
    save(cat, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(CatalogFormatError, match="count"):
        load(path)


def test_load_garbage_line_names_line_number(tmp_path):
    cat = build(50)
    path = tmp_path / "c.jsonl"
    save(cat, path)
    lines = path.read_text().splitlines()
    lines[2] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CatalogFormatError, match="line 3"):
        load(path)


def test_load_version_mismatch(tmp_path):
    cat = build(50)
    path = tmp_path / "c.jsonl"
    save(cat, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["format_version"] = 999
    lines[0] = json.dumps(header, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CatalogVersionError):
        load(path)


def test_load_inconsistent_record_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    header = {"format_version": 1, "p_max": 20, "count": 1, "built_at": ""}
    good = {"a": 3, "b": 4, "c": 5, "perimeter": 12, "area": 6,
            "classification": "deficient"}
    corruptions = [
        ({"perimeter": 13}, "perimeter"),
        ({"a": 3.0}, "plain integers"),
        ({"a": 1, "b": 2, "c": 3, "perimeter": 6}, "degenerate"),
        ({"area": 36}, "area 36"),
        ({"classification": "abundant"}, "classification"),
    ]
    for change, message in corruptions:
        path.write_text(
            json.dumps(header, separators=(",", ":")) + "\n"
            + json.dumps(dict(good, **change), separators=(",", ":")) + "\n"
        )
        with pytest.raises(CatalogFormatError, match=f"line 2: .*{message}"):
            load(path)


HEADER = {"format_version": 1, "p_max": 40, "count": 2, "built_at": ""}
R345 = {"a": 3, "b": 4, "c": 5, "perimeter": 12, "area": 6, "classification": "deficient"}
R51213 = {"a": 5, "b": 12, "c": 13, "perimeter": 30, "area": 30, "classification": "equable"}


def _jsonl(*objects):
    return b"".join(json.dumps(o, separators=(",", ":")).encode() + b"\n" for o in objects)


@pytest.mark.parametrize("content, message", [
    pytest.param(b"\xff\xfe\n", "line 1: not valid UTF-8", id="non-utf8-header"),
    pytest.param(_jsonl(HEADER, R345) + b'{"a":\xff}\n', "line 3: not valid UTF-8",
                 id="non-utf8-record"),
    pytest.param(_jsonl(dict(HEADER, p_max="x", count=0)), "line 1: p_max must be int",
                 id="header-p_max-str"),
    pytest.param(_jsonl(dict(HEADER, format_version=True, count=0)),
                 "line 1: format_version must be int", id="header-version-bool"),
    pytest.param(_jsonl(dict(HEADER, count=0, built_at=0)), "line 1: built_at must be str",
                 id="header-built_at-int"),
    pytest.param(_jsonl(dict(HEADER, count=1), dict(R345, a=5, c=3)),
                 r"line 2: sides \(5, 4, 3\) are not sorted", id="unsorted-sides"),
    pytest.param(_jsonl(HEADER, R345, R345), "line 3: duplicate record", id="duplicate"),
    pytest.param(_jsonl(HEADER, R51213, R345), "line 3: record out of order",
                 id="out-of-order"),
    pytest.param(_jsonl(dict(HEADER, p_max=10, count=1), R345),
                 "line 2: perimeter 12 exceeds p_max 10", id="perimeter-over-p_max"),
])
def test_load_rejects_corruption_by_line(tmp_path, content, message):
    path = tmp_path / "c.jsonl"
    path.write_bytes(content)
    with pytest.raises(CatalogFormatError, match=message):
        load(path)
    path.write_bytes(_jsonl(HEADER, R345, R51213))  # the same records, well-formed
    assert [r.perimeter for r in load(path).records] == [12, 30]


def test_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save(build(200), p1)
    save(build(200), p2)

    def normalized(path):
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["built_at"] = ""
        return [json.dumps(header, separators=(",", ":"))] + lines[1:]

    assert normalized(p1) == normalized(p2)


def test_query_by_perimeter():
    cat = build(300)
    triangles, complete = cat.query_by_perimeter(6)
    assert triangles == [] and complete
    triangles, complete = cat.query_by_perimeter(36)
    assert triangles == triangles_with_perimeter(36) and complete
    _, complete = cat.query_by_perimeter(302)
    assert not complete


def test_query_by_area_completeness_flag():
    cat = build(2592)  # exactly the 2 * 36^2 bound for area 36
    triangles, complete = cat.query_by_area(36)
    assert [t.sides for t in triangles] == [(3, 25, 26), (9, 10, 17)]
    assert complete
    _, complete = cat.query_by_area(37)
    assert not complete
    small = build(300)
    triangles, complete = small.query_by_area(1734)
    assert not complete  # best effort only

    # only areas up to sqrt(p_max / 2) are certified complete
    _, complete = small.query_by_area(12)
    assert complete
    _, complete = small.query_by_area(13)
    assert not complete


def test_query_matches_enumeration_on_guaranteed_region():
    cat = build(300)
    for area in range(1, 13):  # 2 * 12^2 = 288 <= 300
        triangles, complete = cat.query_by_area(area)
        assert complete
        assert triangles == triangles_with_area(area)
    for p in range(3, 301):
        triangles, complete = cat.query_by_perimeter(p)
        assert complete
        assert triangles == triangles_with_perimeter(p)


def test_catalog_equality_ignores_timestamp():
    cat = build(60)
    other = Catalog(cat.p_max, cat.records, "someone else's clock")
    assert cat == other
