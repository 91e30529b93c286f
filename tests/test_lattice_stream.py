"""Pins every block of the lattice stream, simplex._lattice_blocks, on a
fixed list of lattices, block limits and both interior modes: each
block's row count, integer dtype, integer parts and float rows.

One sha256 over all of them is kept in
tests/data/lattice_blocks_digest.json. A change that moves any block on
purpose re-records it with `PYTHONPATH=src python tests/test_lattice_stream.py`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

from coalition_forge import simplex

DIGEST = Path(__file__).parent / "data" / "lattice_blocks_digest.json"

# Block limits of 1 to 5 rows cost a generator call per few rows, so on
# lattices of more than this many rows only the wider limits are streamed.
_SMALL_LATTICE = 1_000


def cases() -> list[tuple[int, int, int | None, bool]]:
    """(m, resolution, block_rows, interior) for every pinned stream: small
    lattices at narrow and wide limits, the benchmark's grid lattices, a
    wide m and a long binary lattice."""
    out = []
    for m, resolution in itertools.product((2, 3, 4, 5, 8, 12), (1, 2, 3, 7)):
        small = math.comb(resolution + m - 1, m - 1) <= _SMALL_LATTICE
        for limit in (None, 1, 2, 5, 64) if small else (None, 64, 333):
            out += [(m, resolution, limit, False), (m, resolution, limit, True)]
    for m, resolution in ((3, 400), (4, 100), (5, 50), (6, 30), (3, 200), (4, 60), (200, 2)):
        for limit in (None, 333):
            out += [(m, resolution, limit, False), (m, resolution, limit, True)]
    out += [(2, 5000, 333, False), (2, 5000, 333, True)]
    return out


def stream_digest() -> dict:
    h = hashlib.sha256()
    blocks = 0
    for case in cases():
        h.update(repr(case).encode())
        for parts, grid in simplex._lattice_blocks(*case):
            h.update(repr((len(parts), parts.dtype.str)).encode())
            h.update(parts.tobytes())
            h.update(grid.tobytes())
            blocks += 1
    return {"cases": len(cases()), "blocks": blocks, "sha256": h.hexdigest()}


def test_lattice_stream_blocks_are_pinned():
    assert stream_digest() == json.loads(DIGEST.read_text(encoding="utf-8"))


if __name__ == "__main__":
    record = stream_digest()
    DIGEST.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
