"""Order-preserving thread-pool map over independent work items.

No library code calls it: the MM* factorization inverts its blocks with one
batched lu_invert call per stack. The module stays only because the traced
benchmark imports monarch.parallel and wraps parallel_map by name.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map fn over items, preserving order; sequential when threads <= 1."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))
