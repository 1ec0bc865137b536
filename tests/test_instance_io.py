import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttpsolve.instance_io import (
    InstanceFormatError, Item, distance, make_instance, parse_instance,
    serialize_instance, validate,
)
from ttpsolve.pwt_dp import dp_front
from ttpsolve.tours import make_tour

from conftest import TINY4_TEXT


def test_parse_tiny4():
    inst = parse_instance(TINY4_TEXT)
    assert inst.name == "tiny4"
    assert inst.n == 4 and inst.m == 3
    assert inst.capacity == 5
    assert inst.nu == pytest.approx(0.18)
    assert [it.node for it in inst.items] == [2, 3, 4]
    assert [it.profit for it in inst.items] == [20, 30, 25]


def test_parse_missing_header():
    text = "\n".join(ln for ln in TINY4_TEXT.splitlines()
                     if not ln.startswith("CAPACITY"))
    with pytest.raises(InstanceFormatError, match="missing header"):
        parse_instance(text)


def test_parse_dimension_mismatch():
    text = "\n".join(ln for ln in TINY4_TEXT.splitlines() if ln != "2 30 3 3")
    with pytest.raises(InstanceFormatError, match="mismatch|order"):
        parse_instance(text)


def test_parse_item_at_depot():
    text = TINY4_TEXT.replace("1 20 2 2", "1 20 2 1")
    with pytest.raises(InstanceFormatError, match="city 1"):
        parse_instance(text)


def test_parse_rejects_other_edge_weight_types():
    text = TINY4_TEXT.replace("CEIL_2D", "EUC_2D")
    with pytest.raises(InstanceFormatError, match="EDGE_WEIGHT_TYPE"):
        parse_instance(text)


def test_parse_duplicate_header():
    text = TINY4_TEXT.replace("DIMENSION: 4", "DIMENSION: 4\nDIMENSION: 4")
    with pytest.raises(InstanceFormatError, match="duplicate"):
        parse_instance(text)


def test_distance_examples(tiny4):
    assert distance(tiny4, 1, 2) == 3
    assert distance(tiny4, 1, 3) == 5
    for i in range(1, 5):
        assert distance(tiny4, i, i) == 0


def test_distance_out_of_range(tiny4):
    with pytest.raises(IndexError):
        distance(tiny4, 0, 1)
    with pytest.raises(IndexError):
        distance(tiny4, 1, 5)


def test_distance_symmetry():
    rng = np.random.default_rng(0)
    coords = rng.uniform(0, 100, (12, 2))
    inst = make_instance("sym", coords, [], 0, 0.1, 1.0, 1.0)
    for i in range(1, 13):
        for j in range(1, 13):
            assert distance(inst, i, j) == distance(inst, j, i)


def test_roundtrip():
    inst = parse_instance(TINY4_TEXT)
    again = parse_instance(serialize_instance(inst))
    assert again.name == inst.name
    assert np.array_equal(again.coords, inst.coords)
    assert again.items == inst.items
    assert (again.capacity, again.vmin, again.vmax, again.rent, again.nu) == \
           (inst.capacity, inst.vmin, inst.vmax, inst.rent, inst.nu)


def test_validate_clean(tiny4):
    assert validate(tiny4) == []


def test_validate_item_at_depot(tiny4):
    bad = make_instance("bad", tiny4.coords,
                        [Item(20, 2, 1), Item(30, 3, 3), Item(25, 2, 4)],
                        5, 0.1, 1.0, 1.0)
    report = validate(bad)
    assert len(report) == 1 and "depot" in report[0]


def test_validate_degenerate_speed(tiny4):
    bad = make_instance("bad", tiny4.coords, list(tiny4.items), 5, 1.0, 1.0, 1.0)
    report = validate(bad)
    assert len(report) == 1 and "speed range degenerate" in report[0]


def test_on_demand_distances_match_matrix():
    import ttpsolve.instance_io as iio
    rng = np.random.default_rng(1)
    coords = rng.uniform(0, 50, (9, 2))
    with_matrix = make_instance("a", coords, [], 0, 0.1, 1.0, 1.0)
    old = iio.MATRIX_THRESHOLD
    iio.MATRIX_THRESHOLD = 0
    try:
        without = make_instance("b", coords, [], 0, 0.1, 1.0, 1.0)
        assert without.dist_matrix is None
        for i in range(1, 10):
            for j in range(1, 10):
                assert distance(with_matrix, i, j) == distance(without, i, j)
    finally:
        iio.MATRIX_THRESHOLD = old


@pytest.mark.parametrize("vmin, vmax", [("2.0", "1.0"), ("1.0", "1.0"),
                                        ("0", "1.0"), ("-0.1", "1.0")])
def test_parse_rejects_degenerate_speed_range(vmin, vmax):
    text = TINY4_TEXT.replace("MIN SPEED: 0.1", f"MIN SPEED: {vmin}") \
                     .replace("MAX SPEED: 1.0", f"MAX SPEED: {vmax}")
    with pytest.raises(InstanceFormatError, match="speed range degenerate"):
        parse_instance(text)


@pytest.mark.parametrize("key, value, match", [
    ("RENTING RATIO", "nan", "RENTING RATIO nan must be finite and >= 0"),
    ("RENTING RATIO", "-inf", "RENTING RATIO -inf must be finite and >= 0"),
    ("RENTING RATIO", "inf", "RENTING RATIO inf must be finite and >= 0"),
    ("RENTING RATIO", "-0.5", "RENTING RATIO -0.5 must be finite and >= 0"),
    ("MAX SPEED", "inf", "MAX SPEED inf is not finite"),
    ("MIN SPEED", "1e-300", "speed at full load computes to 0.0"),
    ("MAX SPEED", "1e308", "speed at full load computes to 0.0"),
    ("RENTING RATIO", "1e308", "tour times or costs reach beyond 1e\\+300"),
    ("RENTING RATIO", "1e299", "tour times or costs reach beyond 1e\\+300"),
])
def test_parse_rejects_unusable_header_value(key, value, match):
    line = next(ln for ln in TINY4_TEXT.splitlines() if ln.startswith(key + ":"))
    with pytest.raises(InstanceFormatError, match=match):
        parse_instance(TINY4_TEXT.replace(line, f"{key}: {value}"))


def test_parse_accepts_zero_renting_ratio():
    text = TINY4_TEXT.replace("RENTING RATIO: 1.0", "RENTING RATIO: 0")
    assert parse_instance(text).rent == 0.0


@pytest.mark.parametrize("vmax, rent, problem", [
    (1.0, math.nan, "RENTING RATIO nan must be finite and >= 0"),
    (1.0, -math.inf, "RENTING RATIO -inf must be finite and >= 0"),
    (1.0, math.inf, "RENTING RATIO inf must be finite and >= 0"),
    (1.0, -1.0, "RENTING RATIO -1.0 must be finite and >= 0"),
    (math.inf, 1.0, "MAX SPEED inf is not finite"),
])
def test_validate_reports_unusable_header_value(tiny4, vmax, rent, problem):
    bad = make_instance("bad", tiny4.coords, list(tiny4.items), 5, 0.1, vmax, rent)
    assert validate(bad) == [problem]


_JUNK = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "infinity", "0", "-0", "-1", "1e-300",
                     "1e308", "", "abc", "1,5", "0x10", "1.0.0"]),
    st.text(max_size=6).map(str.strip),
)
_INTS = st.one_of(st.integers(-3, 12), st.integers(-10**20, 10**20)).map(str)
_FLOATS = st.one_of(st.floats(0, 2), st.floats(-20, 20),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.floats(1e-320, 1e-300), st.floats(1e300, 1e308)).map(repr)
_HEADER_VALUES = {"DIMENSION": _INTS, "NUMBER OF ITEMS": _INTS, "CAPACITY OF KNAPSACK": _INTS,
                  "MIN SPEED": _FLOATS, "MAX SPEED": _FLOATS, "RENTING RATIO": _FLOATS}
# any city or item count but tiny4's fails, so those two are drawn a third as
# often as the other headers
_FUZZED_KEYS = ["DIMENSION", "NUMBER OF ITEMS"] + 3 * [
    "CAPACITY OF KNAPSACK", "MIN SPEED", "MAX SPEED", "RENTING RATIO"]


@st.composite
def header_mutations(draw):
    """One to three of tiny4's numeric headers replaced, mostly by a number
    of the header's own type (tiny, huge, negative, nan or inf), else by junk."""
    keys = draw(st.lists(st.sampled_from(_FUZZED_KEYS), min_size=1, max_size=3, unique=True))
    return {key: draw(st.one_of(_HEADER_VALUES[key], _HEADER_VALUES[key], _JUNK)) for key in keys}


@settings(max_examples=300, deadline=None)
@given(header_mutations())
def test_parse_instance_fuzzed_headers(mutations):
    """A mutated header either fails to parse with a ValueError or gives
    finite fronts, computed without a float warning."""
    lines = TINY4_TEXT.splitlines()
    for i, ln in enumerate(lines):
        key = ln.split(":", 1)[0]
        if key in mutations:
            lines[i] = f"{key}: {mutations[key]}"
    try:
        inst = parse_instance("\n".join(lines) + "\n")
    except ValueError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cities in ([1, 2, 3, 4], [1, 4, 3, 2]):
            assert np.all(np.isfinite(dp_front(inst, make_tour(cities)).rewards))


@pytest.mark.parametrize("old, new, match", [
    ("\n1 20 2 2\n", "\n1 20 99999999999999999999 2\n", "items' total weight 1000"),
    ("\n1 20 2 2\n", f"\n1 {2**63} 2 2\n", "items' total profit 9223372036854775863"),
    ("\n1 20 2 2\n", f"\n1 20 {2**63 - 5} 2\n", "items' total weight 9223372036854775808"),
    ("\n2 0 3\n", "\n2 nan 3\n", "coordinates must be finite"),
    ("\n2 0 3\n", "\n2 -inf 3\n", "coordinates must be finite"),
    ("\n2 0 3\n", "\n2 1e150 3\n", "coordinates span too far"),
    ("\n2 0 3\n", "\n2 2e18 3\n", "coordinates span too far"),
])
def test_parse_rejects_values_beyond_int64(old, new, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstanceFormatError, match=match):
            parse_instance(TINY4_TEXT.replace(old, new))


def test_validate_reports_values_beyond_int64(tiny4):
    far = make_instance("far", [(0, 0), (0, 3), (4, 3), (2e18, 0)], list(tiny4.items),
                        5, 0.1, 1.0, 1.0)
    assert validate(far)[0].startswith("coordinates span too far")


_BODY_INTS = st.one_of(st.integers(-3, 12), st.integers(-10**20, 10**20),
                       st.sampled_from([2**62, 2**63 - 6, 2**63 - 1, 2**63, 2**64])).map(str)
_BODY_VALUES = st.one_of(_BODY_INTS, _BODY_INTS, _FLOATS, _JUNK)
# (first body line, fields) of tiny4's coordinate and item lines
_COORD_LINE, _ITEM_LINE = 10, 15


@st.composite
def body_mutations(draw):
    """One to three fields of tiny4's coordinate or item lines replaced by an
    int (small, huge or around 2**63), a float (tiny, huge, nan or inf) or
    junk, sometimes together with a header mutation."""
    fields = [(_COORD_LINE + i, f) for i in range(4) for f in (1, 2)] + \
             [(_ITEM_LINE + k, f) for k in range(3) for f in (1, 2, 3)]
    at = draw(st.lists(st.sampled_from(fields), min_size=1, max_size=3, unique=True))
    header = draw(st.one_of(st.just({}), header_mutations()))
    return {spot: draw(_BODY_VALUES) for spot in at}, header


@settings(max_examples=300, deadline=None)
@given(body_mutations())
def test_parse_instance_fuzzed_body_lines(mutations):
    """A mutated coordinate or item line either fails to parse with a
    ValueError or gives finite fronts; neither path raises a float warning."""
    body, header = mutations
    lines = TINY4_TEXT.splitlines()
    rows = {row: lines[row].split() for row, _ in body}
    for (row, col), value in body.items():
        rows[row][col] = value
    for row, parts in rows.items():
        lines[row] = " ".join(parts)
    for i, ln in enumerate(lines):
        key = ln.split(":", 1)[0]
        if key in header:
            lines[i] = f"{key}: {header[key]}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            inst = parse_instance("\n".join(lines) + "\n")
        except ValueError:
            return
        for cities in ([1, 2, 3, 4], [1, 4, 3, 2]):
            assert np.all(np.isfinite(dp_front(inst, make_tour(cities)).rewards))
