"""The float-lane fluid cohort against the numpy cohort it replaced.

``tests/reference_cohort.py`` is the numpy ``Cohort`` and
``pool_miss_ratio`` verbatim.  ``repro.fluid.cohort`` holds the same ten
lanes as ``list[float]`` and computes each lane with the same IEEE-754
operation in the same order, and ``lane_sum`` adds in numpy's pairwise
add-reduce order.  So the two must agree bit for bit: every lane value
compared by ``repr`` (which tells ``-0.0`` from ``0.0``), the ledger, the
digest line, the served total and the per-slice grants, after every tick
of a seeded run over slice counts on both sides of numpy's 8-lane unroll
and 128-lane block.

The one operation that may differ is ``pow``: numpy's float64 ``**``
dispatches to SIMD kernels on some CPUs while Python's ``**`` calls
libm, and the two can round a zipf weight differently in the last bit.
``pool_miss_ratio`` must therefore be exact against the reference's
arithmetic on libm's weights everywhere, and against the reference
itself on every input a driver uses, wherever the two ``pow`` agree on
every weight, and within a few ulps elsewhere.
"""

import math
import random

import pytest

np = pytest.importorskip("numpy")

from repro.experiments.scale import ScaleConfig  # noqa: E402
from repro.fluid.cohort import Cohort, CohortSpec, lane_sum, pool_miss_ratio  # noqa: E402
from tests import reference_cohort as reference  # noqa: E402

LANES = (
    "active", "promoted", "srtt", "backlog", "offered", "hits",
    "upstream", "timeouts", "_demand", "_granted",
)
SLICES = (1, 5, 8, 9, 16, 17, 130, 300)


def reduce_ref(values):
    return float(np.add.reduce(np.array(values, dtype=np.float64)))


def assert_same(new: Cohort, old: reference.Cohort) -> None:
    for lane in LANES:
        got = [repr(value) for value in getattr(new, lane)]
        want = [repr(float(value)) for value in getattr(old, lane)]
        assert got == want, lane
    assert {k: repr(v) for k, v in new.ledger().items()} == {
        k: repr(v) for k, v in old.ledger().items()
    }
    assert new.digest_line() == old.digest_line()
    assert repr(new.served_total()) == repr(old.served_total())
    for idx in range(new.spec.slices):
        assert repr(new.granted_last_tick(idx)) == repr(old.granted_last_tick(idx))


def random_spec(rng: random.Random, slices: int) -> CohortSpec:
    return CohortSpec(
        name=f"c{slices}",
        # fewer clients than slices leaves empty lanes; a remainder
        # makes the first lanes one client larger
        clients=rng.choice([0, slices // 2, slices * 3 + rng.randrange(slices), rng.randrange(10**6)]),
        rate=rng.choice([0.015, 0.04, 3.0, rng.uniform(0.001, 50.0)]),
        zone="target-domain.",
        start=1.0,
        stop=4.0,
        pattern=rng.choice(["WC", "NX", "WC_POOL"]),
        pool_size=rng.choice([1, 7, 64, 512]),
        zipf_s=rng.choice([0.8, 0.9, 1.0, 1.3]),
        ttl=rng.choice([5.0, 30.0]),
        slices=slices,
        base_rtt=rng.choice([0.0, 0.004, 0.05]),
        timeout=rng.choice([0.5, 2.0]),
    )


@pytest.mark.parametrize("slices", SLICES)
def test_cohort_lanes_match_numpy_every_tick(slices):
    rng = random.Random(1000 + slices)
    for _ in range(3):
        spec = random_spec(rng, slices)
        new, old = Cohort(spec), reference.Cohort(spec, seed=1)
        assert repr(new.miss_ratio) == repr(old.miss_ratio)
        assert_same(new, old)
        # steps land on, straddle and miss the [start, stop) window
        t = 0.0
        for step in range(60):
            dt = rng.choice([0.25, 0.5, 1.0, 0.1, rng.uniform(0.01, 0.7)])
            t0, t1 = t, t + dt
            assert repr(new.begin_tick(t0, t1)) == repr(old.begin_tick(t0, t1))
            share = rng.choice([0.0, 1.0, rng.random()])
            delay = rng.choice([0.0, 1.0, rng.uniform(0.0, 0.5)])
            new.settle(share, delay)
            old.settle(share, delay)
            assert_same(new, old)
            t = t1
            idx = rng.randrange(slices)
            count = rng.randrange(5)
            if step % 3 == 0:
                assert new.promote_clients(idx, count) == old.promote_clients(idx, count)
            elif step % 3 == 1:
                assert new.demote_clients(idx, count) == old.demote_clients(idx, count)
            assert_same(new, old)


def test_lane_sum_is_numpy_add_reduce():
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(0, 300)
        kind = rng.randrange(4)
        if kind == 0:
            values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12) for _ in range(n)]
        elif kind == 1:
            values = [rng.random() for _ in range(n)]
        elif kind == 2:
            values = [rng.choice([-0.0, 0.0, 1e16, -1e16, 1.0, 0.1]) for _ in range(n)]
        else:
            values = [float(rng.randrange(1000)) for _ in range(n)]
        assert repr(lane_sum(values)) == repr(reduce_ref(values)), n
    for n in (0, 1, 7, 8, 9, 128, 129, 136, 300):
        values = [-0.0] * n
        assert repr(lane_sum(values)) == repr(reduce_ref(values)), n


def test_pool_miss_ratio_exact_on_every_driver_input():
    for clients in (10**4, 10**5, 10**6):
        pools = [s for s in ScaleConfig(clients=clients).cohort_specs() if s.pattern == "WC_POOL"]
        assert [s.name for s in pools] == ["heavy", "medium", "light"]
        for spec in pools:
            args = (spec.aggregate_rate, spec.pool_size, spec.zipf_s, spec.ttl)
            assert repr(pool_miss_ratio(*args)) == repr(reference.pool_miss_ratio(*args)), spec.name


def test_pool_miss_ratio_differs_only_through_pow():
    rng = random.Random(11)
    exact = 0
    for _ in range(300):
        pool = int(math.exp(rng.uniform(0.0, math.log(4096.0))))
        s = rng.choice([1.0, rng.uniform(0.3, 2.0)])
        rate, ttl = rng.uniform(0.1, 1e5), rng.uniform(0.5, 600.0)
        got, want = pool_miss_ratio(rate, pool, s, ttl), reference.pool_miss_ratio(rate, pool, s, ttl)
        libm = [float(rank) ** -s for rank in range(1, pool + 1)]
        # the reference's array arithmetic on libm's weights: equal on any CPU
        weights = np.array(libm)
        weights /= weights.sum()
        assert repr(got) == repr(float((weights / (1.0 + rate * weights * ttl)).sum()))
        if libm == (np.arange(1, pool + 1, dtype=np.float64) ** -s).tolist():
            exact += 1
            assert repr(got) == repr(want)
        else:
            # numpy's pow rounded some weights differently in the last bit;
            # thousands of such weights move the sum by a few ulps
            assert abs(got - want) <= 4 * math.ulp(want)
    assert exact >= 100
