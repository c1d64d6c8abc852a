"""Run a task in a forked child, so its memory stays out of the parent's peak.

The benchmark reports this process's peak resident memory as the program's.
Work of the benchmark's own that allocates a lot (generating a crop, parsing
a command's output to check it) runs in a child instead: its pages count in
RUSAGE_CHILDREN, never in RUSAGE_SELF.
"""

from __future__ import annotations

import json
import os

__all__ = ["ChildFailed", "in_child"]


class ChildFailed(Exception):
    """The task raised in the child, or the child died without an answer."""


def in_child(task):
    """Return ``task()``, computed in a forked child and sent back as JSON.

    The child always leaves through ``os._exit``, so it runs no exit handlers
    and flushes none of the parent's buffers; the parent waits for it.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                answer = [True, task()]
            except Exception as exc:
                answer = [False, f"{type(exc).__name__}: {exc}"]
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(answer, pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    os.waitpid(pid, 0)
    if not data:
        raise ChildFailed("the child died without an answer")
    ok, value = json.loads(data)
    if not ok:
        raise ChildFailed(value)
    return value
