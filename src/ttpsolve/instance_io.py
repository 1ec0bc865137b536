"""Travelling-thief benchmark instances: parsing, checks, distances.

The on-disk format is the line-oriented benchmark layout: nine header
``KEY: value`` lines, then a node-coordinate section and an items section.
Only the CEIL_2D edge-weight convention is supported.  Cities and items are
1-based in files and in the public API; internal arrays are 0-based.
"""

import math
from dataclasses import dataclass, field

import numpy as np

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


# eq=False: equality is identity, and an Instance hashes, although it holds arrays
@dataclass(frozen=True, eq=False)
class Instance:
    """A travelling-thief instance whose values the DP can use.

    Every Instance, parsed, built with :func:`make_instance`, constructed or
    made by ``dataclasses.replace``, passes :func:`_check_ranges` and then
    :func:`_check_floats`, or raises :class:`InstanceFormatError` with the
    first problem.  ``n``, ``m``, ``nu`` (the speed lost per unit of weight)
    and the int64 item arrays are derived, so ``replace`` recomputes them.
    """
    name: str
    coords: np.ndarray  # (n, 2) float64
    items: tuple
    capacity: int
    vmin: float
    vmax: float
    rent: float
    n: int = field(init=False)
    m: int = field(init=False)
    nu: float = field(init=False)
    item_profit: np.ndarray = field(init=False, repr=False)
    item_weight: np.ndarray = field(init=False, repr=False)
    item_node: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # before the item values are packed into int64 and the capacity divides
        _check_ranges(self.coords, self.items, self.capacity)
        object.__setattr__(self, "n", len(self.coords))
        object.__setattr__(self, "m", len(self.items))
        object.__setattr__(self, "nu", (self.vmax - self.vmin) / self.capacity
                           if self.capacity > 0 else 0.0)
        object.__setattr__(self, "item_profit",
                           np.array([it.profit for it in self.items], np.int64))
        object.__setattr__(self, "item_weight",
                           np.array([it.weight for it in self.items], np.int64))
        object.__setattr__(self, "item_node",
                           np.array([it.node for it in self.items], np.int64))
        _check_floats(self)


def _ceil2d(a, b):
    """int64 CEIL_2D lengths between the (x, y) points along the last axis of
    ``a`` and ``b``, broadcast against each other: ``_ceil2d(xy[:, None],
    xy[None])`` is the full distance matrix of the points ``xy``."""
    diff = a - b
    return np.ceil(np.sqrt((diff * diff).sum(-1))).astype(np.int64)


def make_instance(name, coords, items, capacity, vmin, vmax, rent):
    """The Instance of in-memory data, converted to its field types."""
    return Instance(name=name, coords=np.asarray(coords, np.float64), items=tuple(items),
                    capacity=int(capacity) if isinstance(capacity, np.integer) else capacity,
                    vmin=float(vmin), vmax=float(vmax), rent=float(rent))


def distance(inst: Instance, i: int, j: int) -> int:
    """CEIL_2D distance between 1-based cities ``i`` and ``j``."""
    if not (1 <= i <= inst.n and 1 <= j <= inst.n):
        raise IndexError(f"city index out of range: ({i}, {j}) with n={inst.n}")
    return int(_ceil2d(inst.coords[i - 1], inst.coords[j - 1]))


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

    n, m, capacity = (_number(int, header[key], f"{key} {header[key]!r} is not an integer")
                      for key in ("DIMENSION", "NUMBER OF ITEMS", "CAPACITY OF KNAPSACK"))
    vmin, vmax, rent = (_number(float, header[key], f"{key} {header[key]!r} is not a number")
                        for key in ("MIN SPEED", "MAX SPEED", "RENTING RATIO"))

    body = lines[idx:]
    if not body or not body[0].startswith("NODE_COORD_SECTION"):
        raise InstanceFormatError("missing NODE_COORD_SECTION")
    try:
        items_at = next(i for i, ln in enumerate(body) if ln.startswith("ITEMS SECTION"))
    except StopIteration:
        raise InstanceFormatError("missing ITEMS SECTION") from None
    coords = np.array(_numbered_rows(body[1:items_at], n, "cities", "coordinate", float, 2),
                      np.float64).reshape(n, 2)
    items = [Item(*row) for row in _numbered_rows(body[items_at + 1:], m, "items", "item", int, 3)]
    return make_instance(header["PROBLEM NAME"], coords, items, capacity, vmin, vmax, rent)


def _number(number, text, problem):
    """``number(text)``, or InstanceFormatError(``problem``) if ``text`` is
    not such a number."""
    try:
        return number(text)
    except ValueError:
        raise InstanceFormatError(problem) from None


def _numbered_rows(lines, count, plural, kind, number, fields):
    """The values of ``lines``, a section of ``count`` lines, each an index
    and then ``fields`` values read with ``number``, indexed 1, 2, ... in order."""
    if len(lines) != count:
        raise InstanceFormatError(
            f"dimension mismatch: declared {count} {plural}, found {len(lines)}")
    rows = []
    for expect, ln in enumerate(lines, start=1):
        parts = ln.split()
        malformed = f"malformed {kind} line: {ln!r}"
        if len(parts) != fields + 1:
            raise InstanceFormatError(malformed)
        if _number(int, parts[0], malformed) != expect:
            raise InstanceFormatError(f"{kind} index out of order: {ln!r}")
        rows.append([_number(number, p, malformed) for p in parts[1:]])
    return rows


def _check_ranges(coords, items, capacity):
    """Raise InstanceFormatError at the first city count, item, coordinate
    or capacity value of the wrong type, outside its range or beyond int64.

    There is at least one city, city 1, the depot.  Each item sits on one
    of the cities 2..n (the depot holds no items), and its profit and
    weight are positive integers.  Coordinates are a finite (n, 2) float64
    array, and the longest conceivable tour must stay below ``LENGTH_LIMIT``.
    The total profit and the total weight of all items must fit in int64, so
    every packing's weight does too, and so must the integer capacity.
    """
    n = len(coords)
    if n < 1:
        raise InstanceFormatError(f"DIMENSION {n} is below 1 (city 1, the depot, must exist)")
    for i, it in enumerate(items, start=1):
        if it.node == 1:
            raise InstanceFormatError(f"item {i} at depot (city 1 holds no items)")
        if not (2 <= it.node <= n and it.node % 1 == 0):
            raise InstanceFormatError(f"item {i} node {it.node} out of range [2, {n}]")
        for name in ("profit", "weight"):
            value = getattr(it, name)
            if not (value > 0 and value % 1 == 0):    # refuses NaN and infinities too
                raise InstanceFormatError(f"item {i} {name} not a positive integer")
    if not (isinstance(coords, np.ndarray) and coords.dtype == np.float64
            and coords.shape[1:] == (2,)):
        raise InstanceFormatError("coordinates must be an (n, 2) float64 array")
    if not np.all(np.isfinite(coords)):
        raise InstanceFormatError("coordinates must be finite")
    if _longest_tour(coords) >= LENGTH_LIMIT:
        raise InstanceFormatError(f"coordinates span too far: tour lengths reach {LENGTH_LIMIT}")
    for name in ("profit", "weight"):
        total = sum(getattr(it, name) for it in items)
        if total > INT64_MAX:
            raise InstanceFormatError(
                f"items' total {name} {total} is beyond int64 ({INT64_MAX})")
    if not isinstance(capacity, (int, np.integer)) or isinstance(capacity, bool):
        raise InstanceFormatError(f"CAPACITY OF KNAPSACK {capacity!r} is not an integer")
    if capacity > INT64_MAX:
        raise InstanceFormatError(
            f"CAPACITY OF KNAPSACK {capacity} is beyond int64 ({INT64_MAX})")


def _longest_tour(coords) -> float:
    """An upper bound on any tour's length: n legs, each at most the
    diagonal of the bounding box plus 1 (CEIL_2D rounds up)."""
    span = coords.max(0, initial=0.0) - coords.min(0, initial=0.0)
    return max(len(coords), 1) * (math.hypot(*span) + 1)


def _check_floats(inst: Instance):
    """Raise InstanceFormatError at the first capacity, speed or rent value
    outside its range, or whose travel costs float64 cannot carry.

    The capacity must be >= 0, MAX SPEED > MIN SPEED > 0 with MAX SPEED
    finite, and RENTING RATIO finite and >= 0.  On such values the speed at
    full load, computed as the DP computes it, must stay positive, and the
    length, time and cost of the longest conceivable tour must stay below
    ``COST_LIMIT``.
    """
    if inst.capacity < 0:
        raise InstanceFormatError(f"negative knapsack capacity {inst.capacity}")
    if not inst.vmax > inst.vmin > 0:
        raise InstanceFormatError(
            f"speed range degenerate: MIN SPEED {inst.vmin}, MAX SPEED {inst.vmax} "
            "(need MAX SPEED > MIN SPEED > 0)")
    if not math.isfinite(inst.vmax):
        raise InstanceFormatError(f"MAX SPEED {inst.vmax} is not finite")
    if not (math.isfinite(inst.rent) and inst.rent >= 0):
        raise InstanceFormatError(f"RENTING RATIO {inst.rent} must be finite and >= 0")
    slowest = inst.vmax - inst.nu * inst.capacity
    if not slowest > 0:
        raise InstanceFormatError(f"speed at full load computes to {slowest}: MIN SPEED "
                                  f"{inst.vmin} is too small against MAX SPEED {inst.vmax}")
    longest = _longest_tour(inst.coords)
    # the DP forms both rent x distance and rent x distance / speed
    worst = max(longest, longest / slowest)
    if not (worst < COST_LIMIT and inst.rent * worst < COST_LIMIT):
        raise InstanceFormatError(f"tour times or costs reach beyond {COST_LIMIT:g} "
                                  f"(MIN SPEED {inst.vmin}, RENTING RATIO {inst.rent})")


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
        out.append(f"{i} {x:.17g} {y:.17g}")
    out.append("ITEMS SECTION\t(INDEX, PROFIT, WEIGHT, ASSIGNED NODE NUMBER):")
    for i, it in enumerate(inst.items, start=1):
        out.append(f"{i} {it.profit} {it.weight} {it.node}")
    return "\n".join(out) + "\n"

