"""Independent work split between this process and persistent forked workers.

:func:`ordered` yields ``fn(item)`` for a list of items, in item order.
This process runs the first item as the results are consumed, and each
other item is sent to a worker of its own.  A worker is a child forked the
first time a round needs it and kept for the life of this process: each
round sends it one request, ``fn`` and its item pickled through a pipe, and
it sends back the result, with the warnings it raised, through a second
pipe.  Results reach the consumer in item order whichever process computed
them.  Where a worker fails (its ``fn`` raised, or it died) or cannot be
forked, its item is run here at its turn, so an exception surfaces exactly
as in a serial run.  Where ``fn`` or an item does not pickle, that item
runs here.

A worker is killed and reaped when its round ends early (the consumer
closes the generator, or this process's item raises) and when it dies or
fails; the next round that splits forks a new one.  :func:`close` ends
every worker: it closes their request pipes, on which a worker exits, and
reaps them, killing any that has not exited within ``CLOSE_WAIT_S``.  It
runs at exit (``atexit``), and a worker whose parent died without it exits
when its request pipe closes.  A child forked from this process by anyone
else (``os.register_at_fork``) drops the workers it inherited, without
touching them, and forks its own when it splits.

A worker runs ``fn`` in the state this process had when the worker was
forked, apart from the warning filters and numpy's error state
(``np.seterr``), which go with every request: module state patched since
then is not seen there.  The classes and functions a request names by
reference must be the objects the worker has under those names: one
redefined or reloaded here since the fork (a notebook cell run again,
``importlib.reload``) ends the worker, the item runs here, and the next
round forks a fresh worker.  Side effects of ``fn`` in a worker, other than
warnings, do not reach this process.  A worker ends with
``os._exit``: it flushes no inherited output buffer and runs no exit
handler, so nothing the parent printed is written twice.

:func:`processes` is the rule for splitting: fork exists and is safe (not
macOS, one Python thread), one process per CPU this process may run on, and
every process gets at least ``min_share`` units of work.  Otherwise it
returns 1, and a caller that passes :func:`ordered` one item per process
starts no worker.  ``taskset -c 0`` therefore makes every run serial.
"""

from __future__ import annotations

import atexit
import contextlib
import io
import os
import pickle
import signal
import sys
import threading
import time
import warnings

__all__ = ["close", "cpus", "ordered", "processes", "spans"]

# Seconds close() waits for an idle worker to exit on its closed pipe before killing it.
CLOSE_WAIT_S = 1.0


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


def ordered(fn, items):
    """Yield ``fn(item)`` for each of ``items`` in order: the first here, each other in a worker.

    Close the generator (``contextlib.closing``) when stopping early: that
    kills and reaps the workers still running its items.
    """
    items = list(items)
    sent = []
    try:
        for item in items[1:]:
            sent.append((item, _send(fn, item)))
        if items:
            yield fn(items[0])
        for item, worker in sent:
            yield _result(fn, item, worker)
    finally:
        for _, worker in sent:
            if worker is not None and worker.busy:  # the round ended early
                worker.kill()


def _send(fn, item):
    """The worker now running ``fn(item)``, or None where it runs here."""
    numpy = sys.modules.get("numpy")
    errstate = None if numpy is None else (numpy.geterr(), numpy.geterrcall())
    buffer = io.BytesIO()
    pickler = _Naming(buffer)
    try:
        pickler.dump((fn, item, warnings.filters, errstate))
    except (pickle.PicklingError, TypeError, AttributeError):
        return None
    pickle.dump({id(obj) for obj in pickler.given}, buffer, pickle.HIGHEST_PROTOCOL)
    request = buffer.getbuffer()
    worker = next((w for w in _workers if not w.busy), None) or _Worker.fork()
    if worker is not None and worker.send(request):
        return worker
    return None


def _result(fn, item, worker):
    """``fn(item)`` from ``worker``, or computed here where it did not deliver it."""
    if worker is not None:
        try:
            result, raised = pickle.load(worker.results)
        except (EOFError, pickle.UnpicklingError):
            worker.kill()  # it failed or died: the item is redone below
        else:
            worker.busy = False
            for message, category, filename, lineno in raised:
                module, registry = _origin(filename)
                warnings.warn_explicit(message, category, filename, lineno, module, registry)
            return result
    return fn(item)


class _Worker:
    """A forked process serving requests, and this process's ends of its two pipes."""

    def __init__(self, pid, requests, results):
        self.pid, self.requests, self.results = pid, requests, results
        self.busy = False

    @classmethod
    def fork(cls):
        """A new worker in ``_workers``, or None if no process can be forked."""
        request_read, request_write = os.pipe()
        result_read, result_write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            pid = None
        if pid == 0:
            code = 1
            try:
                os.close(request_write)
                os.close(result_read)
                _serve(open(request_read, "rb"), open(result_write, "wb"))
                code = 0
            finally:
                os._exit(code)
        os.close(request_read)
        os.close(result_write)
        if pid is None:
            os.close(request_write)
            os.close(result_read)
            return None
        worker = cls(pid, request_write, open(result_read, "rb"))
        _workers.append(worker)
        return worker

    def send(self, request) -> bool:
        """Start a round with the pickled ``request``; False, and the worker is gone, if it died."""
        try:
            view = memoryview(request)
            while view:
                view = view[os.write(self.requests, view):]
        except BrokenPipeError:
            self.kill()
            return False
        self.busy = True
        return True

    def kill(self):
        """Kill and reap the worker."""
        self._drop()
        _kill(self.pid)

    def _drop(self):
        """Close this process's ends of the pipes and forget the worker."""
        _workers.remove(self)
        self.busy = False
        os.close(self.requests)
        self.results.close()


class _Naming(pickle.Pickler):
    """A pickler that keeps every object it is given other than the builtin
    numbers, strings and containers: all that it writes by name among them."""

    def __init__(self, file):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.given = []

    def reducer_override(self, obj):
        self.given.append(obj)
        return NotImplemented


class _Resolving(pickle.Unpickler):
    """An unpickler that notes the id of each object it looks up by name."""

    def __init__(self, file):
        super().__init__(file)
        self.found = set()

    def find_class(self, module, name):
        obj = super().find_class(module, name)
        self.found.add(id(obj))
        return obj


def _serve(requests, results):
    """The worker's loop: run each request's item and send back its result, until EOF.

    A request whose names resolve here to other objects than in the parent
    (a fork keeps every address, so an object unchanged since the fork has
    the same id in both) ends the loop, and with it the worker."""
    while True:
        loader = _Resolving(requests)
        try:
            fn, item, filters, errstate = loader.load()
        except EOFError:
            return  # the parent closed the pipe, or died
        if not loader.found <= pickle.load(requests):
            return  # redefined or reloaded in the parent since the fork
        with warnings.catch_warnings(record=True) as caught, _numpy_errors(errstate):
            warnings.filters[:] = filters
            result = fn(item)
        raised = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        pickle.dump((result, raised), results, pickle.HIGHEST_PROTOCOL)
        results.flush()


def _numpy_errors(errstate):
    """numpy's error state ``(np.geterr(), np.geterrcall())`` of the parent, as a context."""
    if errstate is None:
        return contextlib.nullcontext()
    import numpy

    handling, call = errstate
    return numpy.errstate(call=call, **handling)


def _reap(pid, block):
    """Whether ``pid`` has been reaped (or was, where SIGCHLD is ignored)."""
    try:
        return os.waitpid(pid, 0 if block else os.WNOHANG)[0] == pid
    except ChildProcessError:
        return True


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    _reap(pid, block=True)


def close():
    """End every worker of this process: close its request pipe, reap it, kill it if it lingers."""
    ending = list(_workers)
    for worker in ending:
        worker._drop()
    deadline = time.monotonic() + CLOSE_WAIT_S
    for worker in ending:
        while not _reap(worker.pid, block=False):
            if time.monotonic() > deadline:
                _kill(worker.pid)
                break
            time.sleep(0.001)


def _forget():
    """In a forked child: drop the inherited workers, which belong to the parent."""
    for worker in list(_workers):
        worker._drop()


_workers: list[_Worker] = []
atexit.register(close)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


def _origin(filename):
    """(module name, warning registry) of the loaded module in ``filename``, as ``warn`` uses."""
    for name, module in list(sys.modules.items()):
        if getattr(module, "__file__", None) == filename:
            return name, vars(module).setdefault("__warningregistry__", {})
    return None, None
