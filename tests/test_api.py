"""The package's public names: a name leaves or joins ``ttpsolve.__all__``
only together with this list."""

import ttpsolve

PUBLIC = [
    "Instance", "Item", "parse_instance", "serialize_instance", "distance",
    "make_tour", "tour_length", "inver_over", "two_opt_mutate", "jump_mutate", "crossover",
    "DpFront", "dp_front", "evaluate",
    "Surface", "surface",
    "IbeaConfig", "run_ibea",
]


def test_public_api_is_the_listed_names():
    assert set(ttpsolve.__all__) == set(PUBLIC)
    assert len(ttpsolve.__all__) == len(PUBLIC)
    for name in ttpsolve.__all__:
        assert getattr(ttpsolve, name) is not None
