"""Travelling-thief benchmark instances: parsing, validation, distances.

The on-disk format is the line-oriented benchmark layout: nine header
``KEY: value`` lines, then a node-coordinate section and an items section.
Only the CEIL_2D edge-weight convention is supported.  Cities and items are
1-based in files and in the public API; internal arrays are 0-based.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# full distance matrices are precomputed below this city count
MATRIX_THRESHOLD = 2000
# tour lengths, times and costs must stay below this, far under the float64
# maximum (~1.8e308), so that sums of rewards and costs cannot overflow
COST_LIMIT = 1e300
# CEIL_2D tour lengths are int64 sums of int64 legs; this bound leaves room
# for the float rounding of each leg
LENGTH_LIMIT = 2**62
INT64_MAX = 2**63 - 1


class InstanceFormatError(ValueError):
    """Raised when instance text violates the benchmark layout."""


@dataclass(frozen=True)
class Item:
    profit: int
    weight: int
    node: int  # 1-based city index, never 1 (the depot holds no items)


@dataclass(frozen=True)
class Instance:
    name: str
    n: int
    m: int
    coords: np.ndarray  # (n, 2) float64
    items: tuple
    capacity: int
    vmin: float
    vmax: float
    rent: float
    nu: float
    dist_matrix: np.ndarray | None = field(default=None, compare=False, repr=False)
    item_profit: np.ndarray = field(default=None, compare=False, repr=False)
    item_weight: np.ndarray = field(default=None, compare=False, repr=False)
    item_node: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "item_profit",
                           np.array([it.profit for it in self.items], np.int64))
        object.__setattr__(self, "item_weight",
                           np.array([it.weight for it in self.items], np.int64))
        object.__setattr__(self, "item_node",
                           np.array([it.node for it in self.items], np.int64))
        if self.dist_matrix is None and self.n <= MATRIX_THRESHOLD:
            object.__setattr__(self, "dist_matrix", _ceil2d_matrix(self.coords))


def _ceil2d_matrix(coords):
    diff = coords[:, None, :] - coords[None, :, :]
    return np.ceil(np.sqrt((diff * diff).sum(-1))).astype(np.int64)


def make_instance(name, coords, items, capacity, vmin, vmax, rent):
    """Build an Instance from in-memory data (the fixture-friendly path)."""
    coords = np.asarray(coords, np.float64)
    n = len(coords)
    nu = (vmax - vmin) / capacity if capacity > 0 else 0.0
    return Instance(name=name, n=n, m=len(items), coords=coords,
                    items=tuple(items), capacity=int(capacity),
                    vmin=float(vmin), vmax=float(vmax), rent=float(rent), nu=nu)


def distance(inst: Instance, i: int, j: int) -> int:
    """CEIL_2D distance between 1-based cities ``i`` and ``j``."""
    if not (1 <= i <= inst.n and 1 <= j <= inst.n):
        raise IndexError(f"city index out of range: ({i}, {j}) with n={inst.n}")
    if inst.dist_matrix is not None:
        return int(inst.dist_matrix[i - 1, j - 1])
    dx, dy = inst.coords[i - 1] - inst.coords[j - 1]
    return math.ceil(math.hypot(dx, dy))


_HEADER_KEYS = [
    "PROBLEM NAME",
    "KNAPSACK DATA TYPE",
    "DIMENSION",
    "NUMBER OF ITEMS",
    "CAPACITY OF KNAPSACK",
    "MIN SPEED",
    "MAX SPEED",
    "RENTING RATIO",
    "EDGE_WEIGHT_TYPE",
]


def parse_instance(text: str) -> Instance:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = {}
    idx = 0
    for ln in lines:
        if ln.startswith("NODE_COORD_SECTION"):
            break
        idx += 1
        if ":" not in ln:
            raise InstanceFormatError(f"malformed header line: {ln!r}")
        key, val = ln.split(":", 1)
        key = key.strip()
        if key in header:
            raise InstanceFormatError(f"duplicate header key: {key}")
        header[key] = val.strip()
    for key in _HEADER_KEYS:
        if key not in header:
            raise InstanceFormatError(f"missing header key: {key}")

    if header["EDGE_WEIGHT_TYPE"] != "CEIL_2D":
        raise InstanceFormatError(
            f"unsupported EDGE_WEIGHT_TYPE: {header['EDGE_WEIGHT_TYPE']} (only CEIL_2D)")

    n = int(header["DIMENSION"])
    m = int(header["NUMBER OF ITEMS"])
    capacity = int(header["CAPACITY OF KNAPSACK"])
    vmin = float(header["MIN SPEED"])
    vmax = float(header["MAX SPEED"])
    rent = float(header["RENTING RATIO"])
    if capacity < 0:
        raise InstanceFormatError("negative knapsack capacity")
    if not vmax > vmin > 0:
        raise InstanceFormatError(
            f"speed range degenerate: MIN SPEED {vmin}, MAX SPEED {vmax} "
            "(need MAX SPEED > MIN SPEED > 0)")

    body = lines[idx:]
    if not body or not body[0].startswith("NODE_COORD_SECTION"):
        raise InstanceFormatError("missing NODE_COORD_SECTION")
    try:
        items_at = next(i for i, ln in enumerate(body) if ln.startswith("ITEMS SECTION"))
    except StopIteration:
        raise InstanceFormatError("missing ITEMS SECTION") from None
    coord_lines = body[1:items_at]
    if len(coord_lines) != n:
        raise InstanceFormatError(
            f"dimension mismatch: declared {n} cities, found {len(coord_lines)}")
    coords = np.empty((n, 2), np.float64)
    for expect, ln in enumerate(coord_lines, start=1):
        parts = ln.split()
        if len(parts) != 3:
            raise InstanceFormatError(f"malformed coordinate line: {ln!r}")
        if int(parts[0]) != expect:
            raise InstanceFormatError(f"coordinate index out of order: {ln!r}")
        coords[expect - 1] = (float(parts[1]), float(parts[2]))

    item_lines = body[items_at + 1:]
    if len(item_lines) != m:
        raise InstanceFormatError(
            f"dimension mismatch: declared {m} items, found {len(item_lines)}")
    items = []
    for expect, ln in enumerate(item_lines, start=1):
        parts = ln.split()
        if len(parts) != 4:
            raise InstanceFormatError(f"malformed item line: {ln!r}")
        if int(parts[0]) != expect:
            raise InstanceFormatError(f"item index out of order: {ln!r}")
        profit, weight, node = int(parts[1]), int(parts[2]), int(parts[3])
        if node == 1:
            raise InstanceFormatError(f"item {expect} assigned to city 1")
        if not (1 <= node <= n):
            raise InstanceFormatError(f"item {expect} node out of range: {node}")
        if profit <= 0 or weight <= 0:
            raise InstanceFormatError(f"item {expect} has non-positive profit/weight")
        items.append(Item(profit=profit, weight=weight, node=node))

    problems = _range_violations(coords, items)
    if problems:
        raise InstanceFormatError(problems[0])
    inst = make_instance(header["PROBLEM NAME"], coords, items, capacity, vmin, vmax, rent)
    problems = _float_violations(inst)
    if problems:
        raise InstanceFormatError(problems[0])
    return inst


def _range_violations(coords, items) -> list:
    """Coordinates and item values that the int64 arrays cannot carry.

    Coordinates must be finite, and the longest conceivable tour must stay
    below ``LENGTH_LIMIT``.  The total profit and the total weight of all
    items must fit in int64, so every packing's weight does too.
    """
    report = []
    if not np.all(np.isfinite(coords)):
        report.append("coordinates must be finite")
    elif _longest_tour(coords) >= LENGTH_LIMIT:
        report.append(f"coordinates span too far: tour lengths reach {LENGTH_LIMIT}")
    for name in ("profit", "weight"):
        total = sum(getattr(it, name) for it in items)
        if total > INT64_MAX:
            report.append(f"items' total {name} {total} is beyond int64 ({INT64_MAX})")
    return report


def _longest_tour(coords) -> float:
    """An upper bound on any tour's length: n legs, each at most the
    diagonal of the bounding box plus 1 (CEIL_2D rounds up)."""
    span = coords.max(0, initial=0.0) - coords.min(0, initial=0.0)
    return max(len(coords), 1) * (math.hypot(*span) + 1)


def _float_violations(inst: Instance) -> list:
    """Speed and rent values whose travel costs float64 cannot carry.

    Beyond MAX SPEED finite and RENTING RATIO finite and >= 0, the speed at
    full load, computed as the DP computes it, must stay positive, and the
    length, time and cost of the longest conceivable tour must stay below
    ``COST_LIMIT``.  Checked only on a sound speed range.
    """
    report = []
    if not math.isfinite(inst.vmax):
        report.append(f"MAX SPEED {inst.vmax} is not finite")
    if not (math.isfinite(inst.rent) and inst.rent >= 0):
        report.append(f"RENTING RATIO {inst.rent} must be finite and >= 0")
    if report or not inst.vmax > inst.vmin > 0:
        return report
    slowest = inst.vmax - inst.nu * inst.capacity
    if not slowest > 0:
        return [f"speed at full load computes to {slowest}: MIN SPEED {inst.vmin} "
                f"is too small against MAX SPEED {inst.vmax}"]
    longest = _longest_tour(inst.coords)
    # the DP forms both rent x distance and rent x distance / speed
    worst = max(longest, longest / slowest)
    if not (worst < COST_LIMIT and inst.rent * worst < COST_LIMIT):
        return [f"tour times or costs reach beyond {COST_LIMIT:g} "
                f"(MIN SPEED {inst.vmin}, RENTING RATIO {inst.rent})"]
    return report


def serialize_instance(inst: Instance) -> str:
    """Writer symmetric to :func:`parse_instance`; used for fixtures."""
    out = [
        f"PROBLEM NAME: {inst.name}",
        "KNAPSACK DATA TYPE: unknown",
        f"DIMENSION: {inst.n}",
        f"NUMBER OF ITEMS: {inst.m}",
        f"CAPACITY OF KNAPSACK: {inst.capacity}",
        f"MIN SPEED: {inst.vmin}",
        f"MAX SPEED: {inst.vmax}",
        f"RENTING RATIO: {inst.rent}",
        "EDGE_WEIGHT_TYPE: CEIL_2D",
        "NODE_COORD_SECTION\t(INDEX, X, Y):",
    ]
    for i, (x, y) in enumerate(inst.coords, start=1):
        out.append(f"{i} {x:g} {y:g}")
    out.append("ITEMS SECTION\t(INDEX, PROFIT, WEIGHT, ASSIGNED NODE NUMBER):")
    for i, it in enumerate(inst.items, start=1):
        out.append(f"{i} {it.profit} {it.weight} {it.node}")
    return "\n".join(out) + "\n"


def validate(inst: Instance) -> list:
    """Invariant check; violations are reported, not raised."""
    report = []
    for i, it in enumerate(inst.items, start=1):
        if it.node == 1:
            report.append(f"item {i} at depot (city 1 holds no items)")
        elif not (2 <= it.node <= inst.n):
            report.append(f"item {i} node {it.node} out of range [2, {inst.n}]")
        if it.weight <= 0 or int(it.weight) != it.weight:
            report.append(f"item {i} weight not a positive integer")
        if it.profit <= 0 or int(it.profit) != it.profit:
            report.append(f"item {i} profit not a positive integer")
    if inst.capacity < 0:
        report.append("negative capacity")
    if not (inst.vmax > inst.vmin > 0):
        report.append("speed range degenerate (need vmax > vmin > 0)")
    report += _range_violations(inst.coords, inst.items)
    report += _float_violations(inst)
    if inst.capacity > 0:
        expect_nu = (inst.vmax - inst.vmin) / inst.capacity
        if inst.nu != expect_nu:
            report.append("stored nu inconsistent with (vmax - vmin)/C")
    return report
