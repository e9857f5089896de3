"""Pinned whole-run fingerprints (see :mod:`tests.fingerprints`).

``tests/data/run_fingerprints.json`` was generated at the commit before
the loops of ``core/distlouvain.py`` were cut into stages; a digest that
moves means the assignment, some iteration's Q, the modelled clock, or a
message / byte / collective count of that run moved.  After an intended
change, diff the full tables of ``python -m tests.fingerprints`` on both
commits first, then regenerate with ``--write-pins``.
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
    key, graph_fp, digest = fingerprints.pinned_row(name, p, label)
    pin = PINS[key]
    # Told apart from an algorithm change: the input itself differs.
    assert graph_fp == pin["graph"], (
        f"{name}: this numpy's Generator stream builds a different graph "
        "than the one the digests were pinned on — not an algorithm diff"
    )
    assert digest == pin["run"], key
