"""Run a function in a forked child with a time limit.

The benchmark process imports the package once and forks one child per
unit of work, so every child starts with the package imported and every
in-process memo empty -- the state a fresh `cisupport` process has.  The
parent holds no threads (numpy is pinned to one thread before import), which
keeps fork safe.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import time


class Outcome:
    def __init__(self, value, error, elapsed, maxrss_mb):
        self.value = value  # what the function returned (JSON), or None
        self.error = error  # None, "timeout", or a short description
        self.elapsed = elapsed  # seconds from fork to reaped child
        self.maxrss_mb = maxrss_mb


def _start(fn, limit_s):
    """Fork a child that calls fn() and writes the result to a pipe."""
    limit = max(1, int(limit_s + 0.999))
    rfd, wfd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child
        code = 0
        try:
            os.close(rfd)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(limit)
            data = json.dumps({"value": fn()}).encode()
        except BaseException as exc:  # report, never return into the parent's code
            data = json.dumps({"error": f"{type(exc).__name__}: {exc}"[:500]}).encode()
            code = 1
        try:
            with os.fdopen(wfd, "wb") as out:
                out.write(data)
        finally:
            os._exit(code)
    os.close(wfd)
    return pid, rfd, start


def _finish(pid, data, start):
    """Reap the child and decode what it wrote."""
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    maxrss_mb = usage.ru_maxrss / 1024.0
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        error = "timeout" if sig == signal.SIGALRM else f"killed by signal {sig}"
        return Outcome(None, error, elapsed, maxrss_mb)
    try:
        payload = json.loads(data)
    except ValueError:
        return Outcome(None, "child wrote no result", elapsed, maxrss_mb)
    return Outcome(payload.get("value"), payload.get("error"), elapsed, maxrss_mb)


def run_forked(fn, limit_s):
    """Call fn() in a child; it must return a JSON-serializable value.

    A child still running after `limit_s` seconds is killed by SIGALRM and
    reported as a timeout.  The parent always reaps the child before
    returning.
    """
    pid, rfd, start = _start(fn, limit_s)
    with os.fdopen(rfd, "rb") as inp:
        data = inp.read()
    return _finish(pid, data, start)


def map_forked(fns, limit, width):
    """Outcomes of fn() for each fn, in order, each in its own child, with
    at most `width` children running at once.

    `limit()` gives a child's time limit when it is started; a fn whose
    limit is not positive is not started.  The pipes are read as data
    arrives, so no child waits on a full pipe while another is read.
    """
    out = [None] * len(fns)
    todo = list(enumerate(fns))[::-1]
    sel = selectors.DefaultSelector()
    while todo or sel.get_map():
        while todo and len(sel.get_map()) < width:
            i, fn = todo.pop()
            limit_s = limit()
            if limit_s <= 0:
                out[i] = Outcome(None, "not started: no time left", 0.0, 0.0)
                continue
            pid, rfd, start = _start(fn, limit_s)
            sel.register(rfd, selectors.EVENT_READ, (i, pid, start, []))
        if not sel.get_map():
            continue
        for key, _ in sel.select():
            i, pid, start, chunks = key.data
            chunk = os.read(key.fd, 1 << 20)
            if chunk:
                chunks.append(chunk)
                continue
            sel.unregister(key.fd)
            os.close(key.fd)
            out[i] = _finish(pid, b"".join(chunks), start)
    sel.close()
    return out
