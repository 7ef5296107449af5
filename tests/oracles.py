"""Reference implementations the tests compare the package against."""

import numpy as np

from modscatter.arith import _INT64_ROOT

_SCAN_CHUNK = 1 << 22


def sqrt_minus_one_brute(q: int) -> list[int]:
    """Exhaustive-scan oracle: all p in [1, q) with p*p + 1 == 0 (mod q), sorted.

    Definitional and independent of the factorization rule in modscatter.arith.
    Returns [] for q = 1 (the count convention there is handled by the
    caller).  A chunked int64 scan; refuses q above _INT64_ROOT, where
    (q-1)**2 would wrap.
    """
    if q < 1:
        raise ValueError("q must be positive")
    if q > _INT64_ROOT:
        raise ValueError(f"q = {q} exceeds {_INT64_ROOT}, where the int64 scan would wrap")
    out: list[int] = []
    for lo in range(1, q, _SCAN_CHUNK):
        p = np.arange(lo, min(lo + _SCAN_CHUNK, q), dtype=np.int64)
        hits = p[(p * p + 1) % q == 0]
        out.extend(int(v) for v in hits)
    return out
