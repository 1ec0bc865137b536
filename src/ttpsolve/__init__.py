"""Bi-objective travelling thief solver toolkit.

An exact Pareto-front dynamic program for the fixed-tour packing problem
drives an indicator-based evolutionary algorithm over TSP tours, with a
benchmark CLI for desk-scale experiment protocols.
"""

from .instance_io import Instance, Item, parse_instance, serialize_instance, distance
from .tours import make_tour, tour_length, inver_over, two_opt_mutate, jump_mutate, crossover
from .pwt_dp import DpFront, dp_front, evaluate
from .fronts import Surface, surface
from .evolve import IbeaConfig, run_ibea

__all__ = [
    "Instance", "Item", "parse_instance", "serialize_instance", "distance",
    "make_tour", "tour_length", "inver_over", "two_opt_mutate", "jump_mutate", "crossover",
    "DpFront", "dp_front", "evaluate",
    "Surface", "surface",
    "IbeaConfig", "run_ibea",
]

__version__ = "0.1.0"
