"""The request schedules the serving tests replay.

:func:`~tests.serve.conftest.build_schedule` draws coordinates from the
``derive_rng(seed, "loadgen.coords")`` stream, the stream the retired
load generator drew them from. The identity and batching suites were
written against those schedules, so the pinned coordinate lists below
are the ones that generator produced: a drift here would silently
change which requests those suites check.
"""

import pytest

from .conftest import build_schedule

#: (seed, repeats) -> coordinates of the first 24 requests over a
#: 4-device, 2-scene fleet.
PINNED = {
    (11, 2): [
        (2, 0, 0), (0, 0, 1), (1, 1, 1), (2, 1, 0), (0, 0, 1), (1, 1, 0),
        (1, 1, 0), (3, 0, 1), (2, 1, 0), (1, 0, 1), (1, 0, 0), (2, 1, 0),
        (3, 1, 1), (0, 0, 0), (2, 0, 1), (3, 1, 1), (0, 0, 0), (2, 0, 0),
        (1, 1, 0), (1, 0, 0), (1, 1, 1), (3, 0, 1), (1, 1, 1), (2, 0, 0),
    ],
    (13, 3): [
        (2, 0, 2), (2, 1, 1), (3, 1, 1), (0, 0, 0), (0, 0, 0), (1, 1, 1),
        (1, 0, 0), (2, 0, 2), (2, 1, 0), (0, 1, 1), (3, 1, 0), (2, 0, 0),
        (2, 1, 0), (3, 0, 1), (2, 0, 1), (0, 1, 0), (3, 0, 0), (3, 0, 1),
        (2, 1, 2), (2, 1, 0), (3, 1, 0), (2, 1, 2), (1, 0, 0), (2, 1, 1),
    ],
}


def coords(schedule):
    return [(r.device, r.scene, r.repeat) for r in schedule]


class TestBuildSchedule:
    @pytest.mark.parametrize("seed,repeats", sorted(PINNED))
    def test_names_the_pinned_requests(self, seed, repeats):
        schedule = build_schedule(
            count=24, devices=4, scenes=2, seed=seed, repeats=repeats
        )
        assert coords(schedule) == PINNED[(seed, repeats)]

