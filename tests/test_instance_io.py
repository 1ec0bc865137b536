import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttpsolve.instance_io import (
    InstanceFormatError, Item, distance, make_instance, parse_instance, serialize_instance,
)
from ttpsolve.pwt_dp import dp_front, dp_fronts
from ttpsolve.tours import make_tour, tour_length

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


@pytest.mark.parametrize("text, match", [
    pytest.param(TINY4_TEXT.replace("DIMENSION: 4", "DIMENSION 4"),
                 "malformed header line: 'DIMENSION 4'", id="header-without-colon"),
    pytest.param(TINY4_TEXT[:TINY4_TEXT.index("NODE_COORD_SECTION")],
                 "missing NODE_COORD_SECTION", id="no-coordinates"),
    pytest.param(TINY4_TEXT[:TINY4_TEXT.index("ITEMS SECTION")],
                 "missing ITEMS SECTION", id="no-items"),
    pytest.param(TINY4_TEXT.replace("DIMENSION: 4", "DIMENSION: 5"),
                 "dimension mismatch: declared 5 cities, found 4", id="city-count"),
    pytest.param(TINY4_TEXT.replace("NUMBER OF ITEMS: 3", "NUMBER OF ITEMS: 2"),
                 "dimension mismatch: declared 2 items, found 3", id="item-count"),
    pytest.param(TINY4_TEXT.replace("\n2 0 3\n", "\n3 0 3\n"),
                 "coordinate index out of order: '3 0 3'", id="coordinate-index"),
    pytest.param(TINY4_TEXT.replace("\n2 30 3 3\n", "\n2 30 3\n"),
                 "malformed item line: '2 30 3'", id="item-fields"),
    pytest.param(TINY4_TEXT.replace("\n2 30 3 3\n", "\n3 30 3 3\n"),
                 "item index out of order: '3 30 3 3'", id="item-index"),
    pytest.param(TINY4_TEXT.replace("DIMENSION: 4", "DIMENSION: four"),
                 "DIMENSION 'four' is not an integer", id="text-dimension"),
    pytest.param(TINY4_TEXT.replace("CAPACITY OF KNAPSACK: 5", "CAPACITY OF KNAPSACK: 5.5"),
                 "CAPACITY OF KNAPSACK '5.5' is not an integer", id="fractional-capacity"),
    pytest.param(TINY4_TEXT.replace("MIN SPEED: 0.1", "MIN SPEED: slow"),
                 "MIN SPEED 'slow' is not a number", id="text-speed"),
    pytest.param(TINY4_TEXT.replace("\n2 30 3 3\n", "\n2 30 3.0 3\n"),
                 "malformed item line: '2 30 3.0 3'", id="fractional-item-weight"),
    pytest.param(TINY4_TEXT.replace("\n3 4 3\n", "\n3 4 x\n"),
                 "malformed coordinate line: '3 4 x'", id="text-coordinate"),
    pytest.param(TINY4_TEXT.replace("\n1 0 0\n", "\none 0 0\n"),
                 "malformed coordinate line: 'one 0 0'", id="text-coordinate-index"),
])
def test_parse_rejects_broken_layout(text, match):
    with pytest.raises(InstanceFormatError, match=re.escape(match)):
        parse_instance(text)


def test_instance_equality_is_identity_and_it_hashes():
    a, b = parse_instance(TINY4_TEXT), parse_instance(TINY4_TEXT)
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a)
    assert {a: "a", b: "b"}[a] == "a" and len({a, b, a}) == 2


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


def test_roundtrip_keeps_coordinate_precision():
    """Coordinates come back bit for bit, so tour lengths do too; six
    significant digits turned (1234567.5, 0.123456789) into (1234570, 0.123457)."""
    inst = make_instance("fine3", [(0, 0), (1234567.5, 0.123456789), (0.1, 1e-7)], [], 0,
                         0.1, 1.0, 1.0)
    again = parse_instance(serialize_instance(inst))
    assert again.coords.tobytes() == inst.coords.tobytes()
    t = make_tour([1, 2, 3])
    assert tour_length(again, t) == tour_length(inst, t)


def test_validate_item_at_depot(tiny4):
    with pytest.raises(InstanceFormatError, match="depot"):
        make_instance("bad", tiny4.coords, [Item(20, 2, 1), Item(30, 3, 3), Item(25, 2, 4)],
                      5, 0.1, 1.0, 1.0)


def test_validate_degenerate_speed(tiny4):
    with pytest.raises(InstanceFormatError, match="speed range degenerate"):
        make_instance("bad", tiny4.coords, list(tiny4.items), 5, 1.0, 1.0, 1.0)


def test_replace_recomputes_derived_fields(tiny4):
    """``nu`` follows the new capacity, and so does the front: with nu kept
    at 0.18 the DP found 3 of the 6 points."""
    wide = dataclasses.replace(tiny4, capacity=10)
    fresh = make_instance("tiny4", tiny4.coords, tiny4.items, 10, 0.1, 1.0, 1.0)
    assert wide.nu == fresh.nu == pytest.approx(0.09)
    t = make_tour([1, 2, 3, 4])
    got, want = dp_front(wide, t), dp_front(fresh, t)
    assert got.weights.tolist() == want.weights.tolist() == [0, 2, 3, 4, 5, 7]
    assert got.rewards.tobytes() == want.rewards.tobytes()
    assert got.plans_packed.tobytes() == want.plans_packed.tobytes()


@pytest.mark.parametrize("name", ["n", "m", "nu", "item_profit", "item_weight", "item_node"])
def test_replace_cannot_set_derived_fields(tiny4, name):
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(tiny4, **{name: getattr(tiny4, name)})


_TINY4_ITEMS = (Item(20, 2, 2), Item(30, 3, 3), Item(25, 2, 4))


@pytest.mark.parametrize("old, new, field, value", [
    ("CAPACITY OF KNAPSACK: 5", "CAPACITY OF KNAPSACK: -5", "capacity", -5),
    ("CAPACITY OF KNAPSACK: 5", "CAPACITY OF KNAPSACK: -1", "capacity", -1),
    ("CAPACITY OF KNAPSACK: 5", f"CAPACITY OF KNAPSACK: {2**63}", "capacity", 2**63),
    ("MIN SPEED: 0.1", "MIN SPEED: 2.0", "vmin", 2.0),
    ("MIN SPEED: 0.1", "MIN SPEED: 1e-300", "vmin", 1e-300),
    ("MAX SPEED: 1.0", "MAX SPEED: inf", "vmax", math.inf),
    ("RENTING RATIO: 1.0", "RENTING RATIO: nan", "rent", math.nan),
    ("RENTING RATIO: 1.0", "RENTING RATIO: -0.5", "rent", -0.5),
    ("RENTING RATIO: 1.0", "RENTING RATIO: 1e299", "rent", 1e299),
    ("\n2 0 3\n", "\n2 nan 3\n", "coords", np.array([[0, 0], [math.nan, 3], [4, 3], [4, 0]])),
    ("\n2 0 3\n", "\n2 1e150 3\n", "coords", np.array([[0, 0], [1e150, 3], [4, 3], [4, 0]])),
    ("\n1 20 2 2\n", "\n1 20 2 1\n", "items", (Item(20, 2, 1),) + _TINY4_ITEMS[1:]),
    ("\n3 25 2 4\n", "\n3 25 2 5\n", "items", _TINY4_ITEMS[:2] + (Item(25, 2, 5),)),
])
def test_replace_and_make_instance_refuse_what_parse_refuses(tiny4, old, new, field, value):
    """With the parser's message; built or replaced, capacity -5 gave an
    empty ``dp_fronts`` and capacity -1 a ZeroDivisionError."""
    with pytest.raises(InstanceFormatError) as parsed:
        parse_instance(TINY4_TEXT.replace(old, new))
    match = f"^{re.escape(str(parsed.value))}$"
    with pytest.raises(InstanceFormatError, match=match):
        dataclasses.replace(tiny4, **{field: value})
    fields = dict(name="bad", coords=tiny4.coords, items=tiny4.items, capacity=tiny4.capacity,
                  vmin=tiny4.vmin, vmax=tiny4.vmax, rent=tiny4.rent)
    with pytest.raises(InstanceFormatError, match=match):
        make_instance(**{**fields, field: value})


@pytest.mark.parametrize("field, value, problem", [
    ("capacity", 5.5, "CAPACITY OF KNAPSACK 5.5 is not an integer"),
    ("capacity", True, "CAPACITY OF KNAPSACK True is not an integer"),
    ("items", (Item(math.nan, 2, 2),) + _TINY4_ITEMS[1:], "item 1 profit not a positive integer"),
    ("items", (Item(20, math.inf, 2),) + _TINY4_ITEMS[1:], "item 1 weight not a positive integer"),
    ("items", (Item(20, 2, 2.5),) + _TINY4_ITEMS[1:], "item 1 node 2.5 out of range [2, 4]"),
], ids=["fractional-capacity", "bool-capacity", "nan-profit", "inf-weight", "fractional-node"])
def test_replace_and_make_instance_refuse_values_of_the_wrong_type(tiny4, field, value, problem):
    """Built or replaced, capacity 5.5 gave capacity 5 and True capacity 1;
    a NaN profit raised a bare ValueError, an infinite weight an
    OverflowError, and node 2.5 was truncated to city 2."""
    match = f"^{re.escape(problem)}$"
    with pytest.raises(InstanceFormatError, match=match):
        dataclasses.replace(tiny4, **{field: value})
    fields = dict(name="bad", coords=tiny4.coords, items=tiny4.items, capacity=tiny4.capacity,
                  vmin=tiny4.vmin, vmax=tiny4.vmax, rent=tiny4.rent)
    with pytest.raises(InstanceFormatError, match=match):
        make_instance(**{**fields, field: value})


def test_constructor_refuses_coordinates_that_are_not_an_array(tiny4):
    """A list of coordinates raised an AttributeError; ``make_instance``
    converts one to its array."""
    coords = tiny4.coords.tolist()
    with pytest.raises(InstanceFormatError, match=r"^coordinates must be an \(n, 2\) float64 "):
        dataclasses.replace(tiny4, coords=coords)
    built = make_instance("list", coords, tiny4.items, 5, 0.1, 1.0, 1.0)
    assert built.coords.tobytes() == tiny4.coords.tobytes()


def test_integer_numpy_capacity_builds(tiny4):
    """``make_instance`` converts it to an int; ``replace`` keeps it."""
    built = make_instance("np", tiny4.coords, tiny4.items, np.int64(5), 0.1, 1.0, 1.0)
    assert type(built.capacity) is int and built.capacity == 5
    replaced = dataclasses.replace(tiny4, capacity=np.int64(5))
    t = make_tour([1, 2, 3, 4])
    for inst in (built, replaced):
        assert dp_front(inst, t).rewards.tobytes() == dp_front(tiny4, t).rewards.tobytes()


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
    with pytest.raises(InstanceFormatError, match=f"^{re.escape(problem)}$"):
        make_instance("bad", tiny4.coords, list(tiny4.items), 5, 0.1, vmax, rent)


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
    ("\n1 20 2 2\n", f"\n1 20 2 {2**63}\n", f"item 1 node {2**63} out of range"),
    ("\n2 0 3\n", "\n2 nan 3\n", "coordinates must be finite"),
    ("\n2 0 3\n", "\n2 -inf 3\n", "coordinates must be finite"),
    ("\n2 0 3\n", "\n2 1e150 3\n", "coordinates span too far"),
    ("\n2 0 3\n", "\n2 2e18 3\n", "coordinates span too far"),
    ("CAPACITY OF KNAPSACK: 5", f"CAPACITY OF KNAPSACK: {2**63}",
     f"CAPACITY OF KNAPSACK {2**63} is beyond int64"),
    ("CAPACITY OF KNAPSACK: 5", "CAPACITY OF KNAPSACK: " + "9" * 401,
     "CAPACITY OF KNAPSACK 999"),
])
def test_parse_rejects_values_beyond_int64(old, new, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstanceFormatError, match=match):
            parse_instance(TINY4_TEXT.replace(old, new))


def test_validate_reports_values_beyond_int64(tiny4):
    """Bad coordinates are refused without a float or cast warning."""
    for x, problem in ((2e18, "coordinates span too far"), (1e150, "coordinates span too far"),
                       (float("nan"), "coordinates must be finite")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstanceFormatError, match=f"^{re.escape(problem)}"):
                make_instance("far", [(0, 0), (0, 3), (4, 3), (x, 0)], list(tiny4.items),
                              5, 0.1, 1.0, 1.0)


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


_RAW_FLOATS = st.one_of(st.floats(0, 2), st.floats(-20, 20),
                        st.floats(allow_nan=True, allow_infinity=True),
                        st.floats(1e-320, 1e-300), st.floats(1e300, 1e308))


@st.composite
def instance_values(draw):
    """tiny4's capacity, speeds, rent and one coordinate, each kept or
    replaced by an int or float as ``_BODY_INTS`` and ``_FLOATS`` draw them."""
    values = dict(capacity=5, vmin=0.1, vmax=1.0, rent=1.0)
    for key in draw(st.lists(st.sampled_from(sorted(values)), max_size=4, unique=True)):
        values[key] = draw(_BODY_INTS.map(int) if key == "capacity" else _RAW_FLOATS)
    coords = [[0.0, 0.0], [0.0, 3.0], [4.0, 3.0], [4.0, 0.0]]
    if draw(st.booleans()):
        coords[draw(st.integers(0, 3))][draw(st.integers(0, 1))] = draw(_RAW_FLOATS)
    return coords, values


@settings(max_examples=300, deadline=None)
@given(instance_values())
def test_make_instance_refuses_or_gives_finite_fronts(drawn):
    """Each draw is refused with an InstanceFormatError or gives finite,
    non-empty ``dp_front`` and ``dp_fronts`` fronts; neither path raises a
    float warning."""
    coords, values = drawn
    items = [Item(20, 2, 2), Item(30, 3, 3), Item(25, 2, 4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            inst = make_instance("drawn", coords, items, **values)
        except InstanceFormatError:
            return
        tours = [make_tour([1, 2, 3, 4]), make_tour([1, 4, 3, 2])]
        fronts = [dp_front(inst, t) for t in tours] + dp_fronts(inst, tours)
        assert len(fronts) == 4
        for front in fronts:
            assert front.rewards.size >= 1 and np.all(np.isfinite(front.rewards))
