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

import json
import os
import subprocess
import sys

import pytest

from tests import fingerprints

PINS = fingerprints.load_pins()


def test_pins_cover_the_pinned_rows():
    assert len(PINS) == 54
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


#: Rows of the full table rerun under two string-hash seeds: an ET row
#: (random draws, fractional weights) and a killed-then-resumed run on
#: disk checkpoints.
HASH_SEED_ROWS = """
import json
from tests import fingerprints as f
rows = [
    f._row("soc-friendster", "fractional", 3, "et", f.FULL_CONFIGS["et"]),
    f._resumed_row("channel"),
]
print(json.dumps([[r.key, r.outcome, r.cost] for r in rows]))
"""


def test_rows_do_not_depend_on_the_hash_seed():
    """An order taken from a set or dict of strings changes with
    ``PYTHONHASHSEED``; two fresh interpreters must still agree."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = [os.path.join(root, "src"), root, os.environ.get("PYTHONPATH", "")]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", HASH_SEED_ROWS],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env={
                **os.environ, "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.pathsep.join(p for p in path if p),
            },
        )
        for seed in ("0", "1")
    ]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        outputs.append(json.loads(out))
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]
