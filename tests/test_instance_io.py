import numpy as np
import pytest

from ttpsolve.instance_io import (
    InstanceFormatError, Item, distance, make_instance, parse_instance,
    serialize_instance, validate,
)

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
