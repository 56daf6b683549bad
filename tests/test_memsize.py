"""Deep-size estimator tests."""

import sys

from repro.util.memsize import approx_deep_size


def test_flat_object():
    assert approx_deep_size(42) == sys.getsizeof(42)


def test_container_larger_than_shell():
    data = {"key": "value" * 100}
    assert approx_deep_size(data) > sys.getsizeof(data)


def test_shared_objects_counted_once():
    shared = "x" * 1000
    assert approx_deep_size([shared, shared]) < 2 * sys.getsizeof(shared) + 200


def test_cycles_terminate():
    a = []
    a.append(a)
    assert approx_deep_size(a) > 0


def test_slots_objects_walked():
    class Slotted:
        __slots__ = ("payload",)

        def __init__(self):
            self.payload = "y" * 500

    assert approx_deep_size(Slotted()) > 500


def test_dict_objects_walked():
    class Plain:
        def __init__(self):
            self.payload = "z" * 500

    assert approx_deep_size(Plain()) > 500


def test_scaling_with_size():
    small = approx_deep_size({i: str(i) for i in range(100)})
    large = approx_deep_size({i: str(i) for i in range(10_000)})
    assert large > small * 20


def test_max_objects_bound():
    huge = [[i] for i in range(100_000)]
    bounded = approx_deep_size(huge, max_objects=1000)
    full = approx_deep_size(huge)
    assert bounded < full
