"""The serial, order-preserving map batch evaluation streams through.

Per-example evaluation runs in process, one example at a time; all
generation parallelism comes from the backend
(``BackendSpec(kind="process", workers=N)``). :class:`WorkerPool` is
therefore no executor. It exists as a class only because
``perfbench/tracer.py`` wraps :meth:`WorkerPool.map_ordered` when it
installs its spans; once that hook is gone, the loop folds into
:class:`~repro.runtime.runner.BatchRunner`, whose ``_run_keyed``
consumes :meth:`WorkerPool.imap_ordered` lazily so each record is
checkpointed as soon as it is computed.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

__all__ = ["WorkerPool"]


class WorkerPool:
    """Order-preserving serial map over work items."""

    def map_ordered(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item, returning results in input order."""
        return list(self.imap_ordered(fn, items))

    def imap_ordered(self, fn: Callable, items: Iterable) -> Iterator:
        """Lazily yield ``fn(item)`` for every item, in input order."""
        for item in items:
            yield fn(item)
