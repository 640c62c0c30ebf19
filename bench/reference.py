"""The reference slice: a yardstick for how fast the machine is right now.

On a shared machine the same pass can take 60% longer in one minute than
in the next, in CPU time as well as wall time.  The worker runs this fixed
pure-Python work (tuple hashing, dict lookups, integer arithmetic) before
each task and after the last one; pass times divided by its time drift far
less than the pass times themselves.  No program change can touch it.  It
allocates no tracked objects and runs with the cyclic collector off, so the
program's heap does not slow it.  About 0.08 s on a 2-vCPU x86 VM.
"""

from __future__ import annotations

import gc
import time

KEYS = [(i % 61, i % 127, i) for i in range(4096)]
TABLE = {key: i for i, key in enumerate(KEYS)}
ROUNDS = 120


def slice_s() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for _ in range(ROUNDS):
            for key in KEYS:
                total = (total + TABLE[key] * key[1]) % 1000003
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
