"""Independent work split between this process and forked children.

:func:`ordered` yields ``fn(item)`` for a list of items, in item order.  With
``processes`` above 1 the items are cut into that many contiguous groups:
this process runs the first group as the results are consumed, and each
other group runs in a child forked when the iteration starts.  A child sends
back each result, with the warnings it raised, through a pipe; results reach
the consumer in item order whichever process computed them.  Where a child
fails (its ``fn`` raised, or it died) or cannot be forked, the items it did
not deliver are run here at their turn, so an exception surfaces exactly as
in a serial run.

:func:`processes` is the rule for splitting: fork exists and is safe (not
macOS, one Python thread), one process per CPU this process may run on, and
every process gets at least ``min_share`` units of work.  Otherwise it
returns 1 and :func:`ordered` is a plain loop.  ``taskset -c 0`` therefore
makes every run serial.

A child ends with ``os._exit``: it flushes no inherited output buffer and
runs no exit handler, so nothing the parent printed is written twice.
Side effects of ``fn`` in a child, other than warnings, do not reach the
parent.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
import warnings

__all__ = ["cpus", "ordered", "processes", "spans"]


def cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def processes(work: int, min_share: int) -> int:
    """Processes to split ``work`` units over, each getting at least ``min_share``; 1 is serial."""
    if not hasattr(os, "fork") or sys.platform == "darwin" or threading.active_count() != 1:
        return 1
    return max(1, min(cpus(), work // min_share))


def spans(n: int, parts: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of ``parts`` contiguous near-equal pieces of ``range(n)``."""
    size, extra = divmod(n, parts)
    bounds = [0]
    for j in range(parts):
        bounds.append(bounds[-1] + size + (j < extra))
    return list(zip(bounds[:-1], bounds[1:]))


def ordered(fn, items, processes: int = 1):
    """Yield ``fn(item)`` for each of ``items`` in order, split over ``processes``.

    Close the generator (``contextlib.closing``) when stopping early: that
    kills and reaps the children still running.
    """
    items = list(items)
    groups = [items[a:b] for a, b in spans(len(items), max(1, min(processes, len(items))))]
    children = []
    try:
        for group in groups[1:]:
            children.append(_Child(fn, group))
        for item in groups[0]:
            yield fn(item)
        for child in children:
            yield from child.results()
    finally:
        for child in children:
            child.close()


class _Child:
    """A forked process running ``fn`` over ``group``, and the parent's end of its pipe.

    If no process can be forked, ``pid`` is None and the parent runs the group.
    """

    def __init__(self, fn, group):
        self.fn, self.group, self.pid = fn, group, None
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            return
        if pid == 0:
            code = 1
            try:
                os.close(read)
                with open(write, "wb") as out, warnings.catch_warnings(record=True) as caught:
                    for item in group:
                        result = fn(item)
                        raised = [(w.message, w.category, w.filename, w.lineno) for w in caught]
                        pickle.dump((result, raised), out, pickle.HIGHEST_PROTOCOL)
                        out.flush()
                        caught.clear()
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self.pid, self.pipe = pid, open(read, "rb")

    def results(self):
        """The child's results in order; what it did not deliver is computed here."""
        delivered = 0
        if self.pid is not None:
            try:
                for _ in self.group:
                    result, raised = pickle.load(self.pipe)
                    for message, category, filename, lineno in raised:
                        module, registry = _origin(filename)
                        warnings.warn_explicit(message, category, filename, lineno, module, registry)
                    yield result
                    delivered += 1
            except (EOFError, pickle.UnpicklingError):
                pass  # the child failed or died: the rest of its share is redone below
            finally:
                self.close()
        for item in self.group[delivered:]:
            yield self.fn(item)

    def close(self):
        """Kill and reap the child, if it is still there."""
        if self.pid is None:
            return
        self.pipe.close()
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # already reaped, where SIGCHLD is ignored
        self.pid = None


def _origin(filename):
    """(module name, warning registry) of the loaded module in ``filename``, as ``warn`` uses."""
    for name, module in list(sys.modules.items()):
        if getattr(module, "__file__", None) == filename:
            return name, vars(module).setdefault("__warningregistry__", {})
    return None, None
