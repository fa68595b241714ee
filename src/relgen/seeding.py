"""Deterministic sub-seed derivation.

Every random decision in a pipeline run is drawn from a numpy generator
seeded through :func:`derive_subseed`, so any row block, run stage, or retry
can be reproduced in isolation. The derivation is a plain SHA-256 hash and is
simple enough to re-implement elsewhere:

    subseed = int.from_bytes(sha256(f"{master_seed}|{run_tag}|{index}".encode())[:16], "big")

The resulting 128-bit integer seeds ``numpy.random.default_rng`` (PCG64).
For the table runs ("prerun", "main", "add") the index is the block index
``row // CHUNK_ROWS``: one stream serves a whole block of rows.

``STREAM_VERSION`` names this stream layout and the arithmetic that turns
its draws into categories. It is written into every manifest, and a dataset
is only regenerated by code of the same version, because another version
may give other output bytes from the same seed.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_subseed(master_seed: int, run_tag: str, index: int = 0) -> int:
    """Hash (master_seed, run_tag, index) into a 128-bit sub-seed."""
    payload = f"{master_seed}|{run_tag}|{index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:16], "big")


def substream(master_seed: int, run_tag: str, index: int = 0) -> np.random.Generator:
    """Return a generator seeded from the derived sub-seed."""
    return np.random.default_rng(derive_subseed(master_seed, run_tag, index))


# Version 1 seeded one stream per row; version 2 seeds one per block of
# CHUNK_ROWS = 8192 rows. Version 3 sums nearest-centroid d^2 column by column.
STREAM_VERSION = 3

SEED_DERIVATION_NOTE = (
    "subseed = int.from_bytes(sha256(f'{master_seed}|{run_tag}|{index}')"
    ".digest()[:16], 'big'); streams are numpy PCG64 (default_rng); "
    "for the table runs index is the block index row // 8192, and each "
    "block draws its roots and noise vectorised for all 8192 rows"
)
