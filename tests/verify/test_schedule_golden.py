"""Golden schedule digests: sim schedules stay byte-identical across
commits.

Each explorer corpus is pinned by one sha256 over the
``(fingerprint, events_dispatched)`` pair of its first schedules at root
seed 0.  The fingerprint covers the executed schedule, the client
history and the fault log; the dispatch count catches a refactor that
adds or drops kernel events without changing what any client saw.

A digest here moves only when observable simulated behaviour moves.
Re-pin one only for a change that is meant to alter behaviour, and
record what moved and why in CHANGES.md — never to get past a failure.
"""

import hashlib

import pytest

from repro.verify import LIVE_SHAPES, POLICY_SHAPES, SCAN_SHAPES, SHAPES, Explorer

SCHEDULES = 10

GOLDEN = {
    "SHAPES": (
        SHAPES,
        "bc622d6fa1f0b06b55223c033fba7254f05ab49b7204d236c1943efaf239ceb0",
    ),
    "LIVE_SHAPES": (
        LIVE_SHAPES,
        "6c6801ec36928b4c4b43c5bf8ef6433957c55dd7341c9a7795247ac388ceae9f",
    ),
    "POLICY_SHAPES": (
        POLICY_SHAPES,
        "ae224093ff5374bab2ab1cea956ed81e887ae8de9590b7d557bad6dd29858468",
    ),
    "SCAN_SHAPES": (
        SCAN_SHAPES,
        "8768f45478c39d0165828ff5552bdf1c9df35f041daa09c727e48911b31fd54a",
    ),
}


def corpus_digest(shapes) -> str:
    hasher = hashlib.sha256()

    def absorb(outcome) -> None:
        hasher.update(repr((outcome.fingerprint(), outcome.events_dispatched)).encode())

    Explorer(seed=0, shapes=shapes, on_outcome=absorb).explore(SCHEDULES)
    return hasher.hexdigest()


@pytest.mark.parametrize("corpus", sorted(GOLDEN))
def test_corpus_schedules_match_golden_digest(corpus):
    shapes, expected = GOLDEN[corpus]
    assert corpus_digest(shapes) == expected
