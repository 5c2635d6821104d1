"""The cell map: an order-preserving map over independent (object, degree) cells.

The thread count comes from the --threads flag, falling back to the
KOSZULCAT_THREADS variable, then 1.  It is validated but does not change the
work: the cell computations are pure Python and hold the interpreter lock, so
a thread pool ran no faster than the plain map, and every count maps the cells
in order on the calling thread.
"""

from __future__ import annotations

import os

from .errors import PreconditionError

ENV_VAR = "KOSZULCAT_THREADS"
MAX_THREADS = 256


def resolve_threads(flag_value=None) -> int:
    if flag_value is not None:
        n = int(flag_value)
    else:
        raw = os.environ.get(ENV_VAR)
        try:
            n = int(raw) if raw else 1
        except ValueError:
            raise PreconditionError("%s must be an integer, got %r" % (ENV_VAR, raw)) from None
    if n < 1:
        raise PreconditionError("thread count must be positive, got %d" % n)
    if n > MAX_THREADS:
        raise PreconditionError("thread count must be at most %d, got %d" % (MAX_THREADS, n))
    return n


def make_parallel_map(threads: int):
    """An order-preserving map over cells, the same for every thread count."""
    return lambda fn, items: list(map(fn, items))
