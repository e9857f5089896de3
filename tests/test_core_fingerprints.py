"""Pinned whole-run fingerprints (see :mod:`tests.fingerprints`).

Each row of ``tests/data/run_fingerprints.json`` pins two digests.  The
``outcome`` digests were generated at the commit before a sweep round's
last two exchanges were fused (four alltoalls and up to two allreduces
an iteration): one that moves means the assignment, some iteration's Q
or move count, the final Q or a phase's edge count / ghost fraction
moved, and no change of the communication schedule may do that.  The
``cost`` digests (modelled clock, messages, bytes, collective counts)
are those of the current schedule.  After an intended change, run
``python -m tests.fingerprints --against`` the parent's table first,
then regenerate with ``--write-pins`` (``--write-pins cost`` when only
the schedule was meant to move).
"""

import pytest

from tests import fingerprints

PINS = fingerprints.load_pins()


def test_pins_cover_the_pinned_rows():
    assert len(PINS) == 36
    assert sorted(PINS) == sorted(
        f"{name}/integer/p{p}/{label}"
        for name, p, label in fingerprints.pinned_keys()
    )


@pytest.mark.parametrize("name,p,label", fingerprints.pinned_keys())
def test_run_fingerprint(name, p, label):
    row = fingerprints.pinned_row(name, p, label)
    pin = PINS[row.key]
    # Told apart from an algorithm change: the input itself differs.
    assert row.graph == pin["graph"], (
        f"{name}: this numpy's Generator stream builds a different graph "
        "than the one the digests were pinned on — not an algorithm diff"
    )
    assert row.outcome == pin["outcome"], f"{row.key}: outcome moved"
    assert row.cost == pin["cost"], f"{row.key}: outcome equal, cost moved"
