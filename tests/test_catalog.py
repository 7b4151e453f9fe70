import json
import random
import tracemalloc

import pytest

from oracles import naive_triangle_scan

from heronian.catalog import (
    _CANONICAL_RECORD,
    RECORD_FIELDS,
    _classify,
    Catalog,
    CatalogFormatError,
    CatalogRecord,
    CatalogVersionError,
    build,
    load,
    save,
)
from heronian.core import Classification, Triangle, heron_area
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


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("p_max", [1, 13, 240, 777])
def test_parallel_build_equals_serial(p_max, workers):
    pooled = build(p_max, workers=workers)
    assert pooled == build(p_max)
    # the pool ships join rows, so this process makes every record
    shared = {id(c.value) for c in Classification}
    assert {id(r.classification) for r in pooled.records} <= shared


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
        ({"a": 3.0}, "a must be int, got 3.0"),
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


def _canonical(a, b, c, perimeter, area, classification=b"deficient"):
    """A record line in save's spelling, with each value's bytes given as is."""
    return (b'{"a":%s,"b":%s,"c":%s,"perimeter":%s,"area":%s,"classification":"%s"}\n'
            % (a, b, c, perimeter, area, classification))


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
    pytest.param(_jsonl(HEADER) + b'{"a":' + b"9" * 5000 + b"}\n",
                 r"line 2: invalid JSON \(Exceeds the limit", id="integer-too-long"),
    pytest.param(_jsonl(HEADER, R345) + b"[" * 100_000 + b"\n",
                 r"line 3: invalid JSON \(maximum recursion depth", id="deep-nesting"),
    pytest.param(_jsonl(HEADER, dict(R345, area=-6)), "line 2: area -6 does not match",
                 id="area-negated"),
    pytest.param(_jsonl(HEADER, dict(R345, area=0)), "line 2: area 0 does not match",
                 id="area-zero"),
    pytest.param(_jsonl(HEADER, dict(R345, area=7)), "line 2: area 7 does not match",
                 id="area-wrong"),
    pytest.param(_jsonl(HEADER, dict(R345, a=True)), "line 2: a must be int, got True",
                 id="bool-side"),
    pytest.param(_jsonl(HEADER, dict(R345, a=0, perimeter=9)),
                 r"line 2: sides \(0, 4, 5\) are degenerate or not positive", id="zero-side"),
    pytest.param(_jsonl(HEADER, dict(R345, classification=6)),
                 "line 2: classification must be str, got 6",
                 id="classification-not-str"),
    # canonical in shape, but not what save writes: these take the JSON path
    pytest.param(_jsonl(HEADER) + _canonical(b"9" * 5000, b"4", b"5", b"12", b"6"),
                 r"line 2: invalid JSON \(Exceeds the limit", id="canonical-5000-digit-side"),
    pytest.param(_jsonl(HEADER) + _canonical(b"03", b"4", b"5", b"12", b"6"),
                 r"line 2: invalid JSON", id="canonical-leading-zero"),
    pytest.param(_jsonl(HEADER) + _canonical("\u0663".encode(), b"4", b"5", b"12", b"6"),
                 r"line 2: invalid JSON", id="canonical-arabic-indic-digit"),
    pytest.param(_jsonl(HEADER) + _canonical(b"3", b"4", b"5", b"12", b"-6"),
                 "line 2: area -6 does not match", id="canonical-area-negated"),
    pytest.param(_jsonl(HEADER, R345) + _canonical(b"5", b"12", b"13", b"30", b"30",
                                                   b"equ\xffable"),
                 "line 3: not valid UTF-8", id="canonical-non-utf8"),
    pytest.param(_jsonl(HEADER, R345) + b"\n" + _jsonl(R51213), "line 3: blank record line",
                 id="blank-line"),
])
def test_load_rejects_corruption_by_line(tmp_path, content, message):
    path = tmp_path / "c.jsonl"
    path.write_bytes(content)
    with pytest.raises(CatalogFormatError, match=message):
        load(path)
    path.write_bytes(_jsonl(HEADER, R345, R51213))  # the same records, well-formed
    assert [r.perimeter for r in load(path).records] == [12, 30]


def test_saved_record_lines_take_the_canonical_parser(tmp_path):
    # a typo in the pattern would send every line down the slower JSON path
    # and leave every other test passing
    path = tmp_path / "c.jsonl"
    save(build(600), path)
    lines = path.read_bytes().splitlines(keepends=True)[1:]
    assert len(lines) > 500
    assert all(_CANONICAL_RECORD.fullmatch(line) for line in lines)


def test_non_canonical_spelling_loads_the_same_catalog(tmp_path):
    cat = build(600)
    assert any(r.classification == "equable" for r in cat.records)
    canonical, spaced = tmp_path / "c.jsonl", tmp_path / "spaced.jsonl"
    save(cat, canonical)
    lines = [json.dumps(cat.header(), separators=(", ", ": "))]
    lines += [json.dumps(r.row(), separators=(", ", ": ")).replace(
        '"equable"', '"\\u0065quable"') for r in cat.records]
    spaced.write_bytes("\r\n".join(lines).encode())  # CRLF, and no final newline
    assert b"\\u0065quable" in spaced.read_bytes()
    loaded = load(spaced)
    assert loaded == load(canonical) == cat
    assert loaded.built_at == cat.built_at
    shared = {id(c.value) for c in Classification}
    assert {id(r.classification) for r in loaded.records} <= shared


def test_catalog_record_api(tmp_path):
    assert RECORD_FIELDS == ("a", "b", "c", "perimeter", "area", "classification")
    cat = build(300)
    records = list(cat.records)
    random.Random(3).shuffle(records)
    # ordered field by field, as the frozen dataclass it replaced
    assert sorted(records) == sorted(records, key=lambda r: tuple(getattr(r, f)
                                                                  for f in RECORD_FIELDS))
    assert len(set(records)) == len(records)
    with pytest.raises(AttributeError):
        records[0].a = 1
    assert all(tuple(r.row()) == RECORD_FIELDS for r in records)
    path = tmp_path / "c.jsonl"
    save(cat, path)
    shared = {id(c.value) for c in Classification}
    assert {id(r.classification) for r in load(path).records} <= shared


def test_classify_returns_the_enum_values():
    # area equal to, below and above the perimeter
    for t in (Triangle(5, 12, 13), Triangle(3, 4, 5), Triangle(13, 14, 15)):
        r = CatalogRecord.from_triangle(t)
        assert r.classification is Classification.compare(r.area, r.perimeter).value
        assert _classify(r.area, r.perimeter) is r.classification
    shared = {id(c.value) for c in Classification}
    for workers in (1, 2):
        records = build(600, workers=workers).records
        assert {r.classification for r in records} == {c.value for c in Classification}
        assert {id(r.classification) for r in records} <= shared


def _assert_record_shape(records):
    # records are made by tuple.__new__, which checks neither type nor length
    for r in records:
        assert type(r) is CatalogRecord and len(r) == len(RECORD_FIELDS)
        assert r == CatalogRecord(*r)


def test_built_and_loaded_records_have_the_record_shape(tmp_path):
    cat = build(600)
    _assert_record_shape(cat.records)
    _assert_record_shape(build(600, workers=2).records)
    canonical, spaced = tmp_path / "c.jsonl", tmp_path / "spaced.jsonl"
    save(cat, canonical)
    spaced.write_text("".join(json.dumps(json.loads(line), separators=(", ", ": ")) + "\n"
                              for line in canonical.read_text().splitlines()))
    _assert_record_shape(load(canonical).records)
    _assert_record_shape(load(spaced).records)


def test_load_streams_its_records(tmp_path):
    # reading line by line peaks at 1.04x what the catalog retains; holding
    # every line first measured 1.26x, and a findall over the whole body 2.0x
    path = tmp_path / "c.jsonl"
    save(build(600), path)
    load(path)  # compile and cache everything a first load sets up
    tracemalloc.start()
    try:
        cat = load(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cat) > 500
    assert peak <= 1.2 * retained


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
    # save's format string writes the bytes json.dumps would
    records = [json.dumps(r.row(), separators=(",", ":")) for r in build(200).records]
    assert p1.read_text().splitlines()[1:] == records


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


def _answers(cat, perimeters, areas):
    return ([cat.query_by_perimeter(p) for p in perimeters],
            [cat.query_by_area(a) for a in areas])


def test_loaded_catalog_answers_like_built(tmp_path):
    built = build(600)
    path = tmp_path / "c.jsonl"
    save(built, path)
    perimeters, areas = range(701), range(401)
    assert _answers(load(path), perimeters, areas) == _answers(built, perimeters, areas)


def test_query_sorts_records_given_in_any_order():
    built = build(600)
    shuffled = Catalog(built.p_max, tuple(random.Random(5).sample(built.records, len(built))))
    perimeters, areas = range(701), range(401)
    answers = _answers(shuffled, perimeters, areas)
    assert answers == _answers(built, perimeters, areas)
    for triangles, _ in answers[0] + answers[1]:
        assert triangles == sorted(triangles)


def test_build_leaves_heron_area_cache_empty():
    heron_area.cache_clear()  # earlier tests may have cached these triangles
    assert len(build(600)) > 0
    assert heron_area.cache_info().currsize == 0


def test_catalog_equality_ignores_timestamp():
    cat = build(60)
    other = Catalog(cat.p_max, cat.records, "someone else's clock")
    assert cat == other


def test_indexes_are_not_constructor_parameters(tmp_path):
    built = build(60)
    # only the records fill the indexes; a seeded index would answer (3, 4, 5) twice
    with pytest.raises(TypeError):
        Catalog(built.p_max, built.records, "", _by_perimeter={12: list(built.records)})
    with pytest.raises(TypeError):
        Catalog(built.p_max, built.records, "", _by_area={6: list(built.records)})
    assert built.query_by_perimeter(12) == ([Triangle(3, 4, 5)], True)
    path = tmp_path / "c.jsonl"
    save(built, path)
    perimeters, areas = range(71), range(41)
    assert _answers(load(path), perimeters, areas) == _answers(built, perimeters, areas)
