"""Message payload size estimation.

The performance model charges communication cost per byte, so every
message needs a byte size.  Real MPI programs send raw buffers whose size
is exact; the simulator ships Python objects, so we estimate the size the
equivalent packed buffer would have on the wire.

The estimate intentionally models *packed binary data*, not pickled
Python objects: the paper's implementation exchanges arrays of 64-bit
vertex/community identifiers and 64-bit floating point weights, so a
list of ``n`` ints is charged ``8 * n`` bytes, matching what the C++
implementation would transmit.
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: Wire size of one scalar (vertex id, community id, weight), in bytes.
SCALAR_BYTES = 8

#: Fixed envelope cost charged per message (headers, matching metadata).
ENVELOPE_BYTES = 32


def nbytes(obj: Any) -> int:
    """Return the estimated wire size of ``obj`` in bytes.

    Supported payload shapes are the ones the library actually sends:
    numpy arrays, scalars, (nested) tuples/lists, dicts and sets of
    scalars, and ``None``.  Anything else falls back to a conservative
    per-object constant so an unexpected payload is charged, never free.
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        # Covers structured (record) arrays too: a packed
        # ``(id, tot, size)`` struct-array is charged its true
        # ``itemsize * n`` wire footprint, exactly what the equivalent
        # C++ implementation would put in an MPI derived datatype.
        return int(obj.nbytes)
    if isinstance(obj, np.void):  # one record of a structured array
        return int(obj.nbytes)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return SCALAR_BYTES
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, dict):
        return sum(nbytes(k) + nbytes(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(nbytes(x) for x in obj)
    # Dataclass-like objects used as messages expose __dict__.
    d = getattr(obj, "__dict__", None)
    if d is not None:
        return sum(nbytes(v) for v in d.values())
    return 64


def message_bytes(obj: Any) -> int:
    """Wire size of a message: payload plus a fixed envelope."""
    return ENVELOPE_BYTES + nbytes(obj)
