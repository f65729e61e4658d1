"""Pieces shared by the workloads: jobs, cache resets, memory."""

from __future__ import annotations

import resource

import oracle
from spans import original


class Job:
    """One unit of timed work and the check of its answer.

    run() calls the program and returns what it answered; it is timed.
    check(answer) runs after the round, untimed and untraced, and returns
    None when the answer is right, FAILED when the operation failed, or
    a message saying what is wrong.
    """

    __slots__ = ("name", "run", "check")

    def __init__(self, name: str, run, check):
        self.name = name
        self.run = run
        self.check = check


class _Failed:
    def __repr__(self):
        return "FAILED"


FAILED = _Failed()


class Workload:
    """Defaults for the workload hooks that run.py calls."""

    jobs: list = []

    def clear(self) -> None:
        """Forget everything set-up made, before it is done again."""
        clear_program_caches()
        oracle.class_trees.cache_clear()
        oracle.components.cache_clear()

    def before_round(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def trace_setup(self) -> None:
        pass

    def trace_metrics(self) -> dict:
        return {}


def clear_program_caches() -> None:
    """Empty every cache homtrees keeps, so the next call starts cold."""
    from homtrees import freehom, trees, ueg

    for fn in (freehom.class_context, freehom._nf_key, trees.parse, trees.enumerate_shapes):
        original(fn).cache_clear()
    ueg._level_cache.clear()
