"""The processes that share a trial's rounds: one forked helper per usable
core beyond the first, each pinned to a core of its own, numpy's OpenBLAS
on one thread, whose products are the same to the bit.  Where OpenBLAS
cannot be held so, a trial runs in one process.  Threads would not help:
the small numpy calls hold the interpreter lock.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import HelperExited


@dataclass
class _Helper:
    """A forked process that does its share of every round."""

    pid: int
    commands: int  # write end of its pipe: one 4-byte round index per round; -1 once closed
    replies: int  # read end of its pipe: one byte per share and per evaluation, 1 if it raised


def _usable_cores() -> int:
    """Cores this process may run on; 1 where the platform cannot pin a process to one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else 1


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The (get, set) thread-count calls of the OpenBLAS under numpy's matrix
    products, or None where numpy runs on another BLAS or they cannot be found."""
    try:
        # a name is looked up in the libraries the module links against too
        numpy_core = ctypes.CDLL(np._core._multiarray_umath.__file__)
        # as numpy's wheels (scipy-openblas, 64-bit integers) and a plain OpenBLAS name them
        for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads"):
            if hasattr(numpy_core, name % "set"):
                get, set_ = getattr(numpy_core, name % "get"), getattr(numpy_core, name % "set")
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    except (AttributeError, OSError):
        pass
    return None


def _set_blas_threads(count: int) -> int:
    """Run numpy's OpenBLAS on count threads; return the count it ran on."""
    get, set_ = _openblas_threads()
    before = get()
    set_(count)
    return before


def shared_buffer(size: int) -> mmap.mmap:
    """size zeroed bytes of anonymous memory, shared with every process forked after."""
    return mmap.mmap(-1, size)


def _outcome(work: Callable[..., None], *args) -> bytes:
    """A helper's answer for work(*args): 1 if it raised and 0 if not."""
    try:
        work(*args)
    except Exception:
        return b"\1"
    return b"\0"


def _serve(share: Callable[[int, int, int], None], evaluate: Callable[[int], None], first: int, step: int,
           commands: int, replies: int) -> None:
    """A helper's loop: for each round t it is sent, until EOF, run
    share(t, first, step) and answer one byte (see _outcome).  The first
    helper then runs evaluate(t - 1), while the parent detects and
    aggregates, and answers a second byte for it."""
    while message := os.read(commands, 4):
        t = int.from_bytes(message, "little")
        os.write(replies, _outcome(share, t, first, step))
        if first == 1 and t:
            os.write(replies, _outcome(evaluate, t - 1))


def _failed(helper: _Helper, t: int) -> bool:
    """Read helper's next answer, for its work in round t: whether that raised."""
    reply = os.read(helper.replies, 1)
    if not reply:
        raise HelperExited(f"training helper {helper.pid} exited in round {t}")
    return reply != b"\0"


class Processes:
    """The parent and the helpers of one trial.  share(t, first, step) does
    process first's part of round t, which step processes share, and
    evaluate(t) scores round t's model; in a helper, each reads and writes
    memory from shared_buffer.  An error leaves only after the evaluation
    owed, whose error a one-process run raises first.  Exiting reaps the
    helpers and gives the parent back its cores and BLAS threads."""

    def __init__(self, share: Callable[[int, int, int], None], evaluate: Callable[[int], None]):
        self.share, self.evaluate = share, evaluate
        self.helpers: list[_Helper] = []
        self.evaluating: int | None = None  # the model the first helper evaluates, its answer unread
        self.held: tuple[set[int], int] | None = None  # the parent's cores and BLAS threads before

    def __enter__(self) -> Processes:
        """Hold OpenBLAS to one thread and fork the helpers, where it can be
        held: pinned, a process's BLAS threads would take turns on its core."""
        count = _usable_cores() - 1 if _openblas_threads() else 0
        if count:
            self.held = os.sched_getaffinity(0), _set_blas_threads(1)
            try:
                self._fork_helpers(count, sorted(self.held[0]))
            except BaseException:
                self.__exit__(None)
                raise
        return self

    def _fork_helpers(self, count: int, cores: list[int]) -> None:
        """Fork count helpers; helper j does share j of each round's count + 1,
        the parent share 0.  Pin the parent to its first core and helper j to
        the j-th, counting around when there are more processes than cores."""
        for first in range(1, count + 1):
            commands_in, commands_out = os.pipe()
            replies_in, replies_out = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                for fd in (commands_in, commands_out, replies_in, replies_out):
                    os.close(fd)
                raise
            if pid == 0:
                # os._exit, so the helper runs no exit handler and flushes none of
                # the parent's buffered output
                try:
                    os.close(commands_out)
                    os.close(replies_in)
                    for helper in self.helpers:  # an earlier helper's pipes are the parent's alone
                        os.close(helper.commands)
                        os.close(helper.replies)
                    _serve(self.share, self.evaluate, first, count + 1, commands_in, replies_out)
                finally:
                    os._exit(0)
            os.close(commands_in)
            os.close(replies_out)
            self.helpers.append(_Helper(pid, commands_out, replies_in))
            os.sched_setaffinity(pid, {cores[first % len(cores)]})
        os.sched_setaffinity(0, {cores[0]})

    def run(self, t: int) -> None:
        """Round t: send it to every helper, run the parent's share and read
        each helper's answer.  If any process fails, the parent reruns the
        round alone, share(t, 0, 1): every step is seeded per client and round
        and reads only what the parent wrote before the round was sent, so the
        rerun raises the one-process run's error, and a failure that does not
        recur leaves that run's results.  The first helper then evaluates
        round t - 1's model; await_evaluation reads its answer."""
        for helper in self.helpers:
            try:
                os.write(helper.commands, t.to_bytes(4, "little"))
            except BrokenPipeError:
                raise HelperExited(f"training helper {helper.pid} exited in round {t}") from None
        try:
            self.share(t, 0, len(self.helpers) + 1)
            failed = False
        except Exception:
            if not self.helpers:  # this was the one-process run
                raise
            failed = True
        for helper in self.helpers:  # every helper answers before its results are read or rewritten
            failed |= _failed(helper, t)
        if t and self.helpers:
            self.evaluating = t - 1
        if failed:
            self.await_evaluation()
            self.share(t, 0, 1)

    def await_evaluation(self) -> None:
        """Read the first helper's answer for the model it evaluates, if one
        is owed; call it before rewriting what that evaluation reads.  If the
        evaluation failed, the parent runs it again, and so raises the error a
        one-process run raises before the next round's work."""
        t, self.evaluating = self.evaluating, None
        if t is not None and _failed(self.helpers[0], t + 1):
            self.evaluate(t)

    def close(self) -> None:
        """Close every helper's pipes that are still open, which it reads as EOF and exits on."""
        for helper in self.helpers:
            if helper.commands >= 0:
                os.close(helper.commands)
                os.close(helper.replies)
                helper.commands = helper.replies = -1

    def __exit__(self, error: type[BaseException] | None, *_) -> None:
        try:
            if error is not None and issubclass(error, Exception):
                self.await_evaluation()
        finally:
            self.close()
            for helper in self.helpers:
                os.waitpid(helper.pid, 0)
            if self.held:  # so the threads BLAS starts again get the parent's cores
                os.sched_setaffinity(0, self.held[0])
                _set_blas_threads(self.held[1])
