"""Scalar-multiply accounting.

Kernels report how many scalar multiplies they perform via add_multiplies();
a test or benchmark wraps the call in count_multiplies() to read the tally.
Counts are exact for the structured matvec paths (one unit per scalar
multiply, complex counted the same as real) and proportional-to-work for the
iterative solvers.

Tallies are per context: a tally counts the work of its own thread (or
asyncio task) inside the block, every enclosing tally counts it too, and
work in other threads is not counted.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


@dataclass
class MultiplyTally:
    multiplies: int = 0


_tallies: ContextVar[tuple[MultiplyTally, ...]] = ContextVar("multiply_tallies", default=())


def add_multiplies(count: int) -> None:
    for tally in _tallies.get():
        tally.multiplies += count


@contextmanager
def count_multiplies():
    """Context manager yielding a MultiplyTally fed by all enclosed kernels."""
    tally = MultiplyTally()
    token = _tallies.set(_tallies.get() + (tally,))
    try:
        yield tally
    finally:
        _tallies.reset(token)
