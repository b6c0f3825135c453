"""Exact answers near the front door's ``2**53`` coordinate bound.

``GridOracle`` computes in floats and cannot referee such scenes, but
translation can: a scene moved by ``(B, B)`` has the same shortest-path
lengths, and both twins hold exact integers, so every answer must be
byte-for-byte the untranslated one (``check_scene(..., offset=B)``).  Arc
positions along a separator used to be formed as absolute ``x ± y`` before
the float cast, which rounds once ``x + y`` passes ``2**53`` and made
matrices of scenes at ``B = 2**52 - 3`` come back 1–6 units short.
"""

import pytest

from repro.core.crosscheck import check_scene, top_offset
from repro.core.pool import shutdown_pool
from repro.workloads.generators import random_disjoint_rects

OFFSETS = {
    "2**51+7": lambda rects: 2**51 + 7,
    "2**52-3": lambda rects: 2**52 - 3,
    "2**52+12345": lambda rects: 2**52 + 12345,
    "2**53-extent-1": top_offset,
}


@pytest.fixture(autouse=True)
def _no_pool_left():
    yield
    shutdown_pool()


@pytest.mark.parametrize("engine", ["parallel", "parallel-mp"])
@pytest.mark.parametrize("offset", list(OFFSETS))
def test_translated_twin_answers_byte_for_byte(offset, engine):
    for seed in range(3):
        rects = random_disjoint_rects(24, seed=seed)
        b = OFFSETS[offset](rects)
        assert check_scene(rects, seed=seed, engines=(engine,), offset=b) == []
