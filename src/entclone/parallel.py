"""Worker-count policy of the Monte Carlo process pool."""

from __future__ import annotations

import os


def worker_count(requested: int, tasks: int) -> int:
    """Processes worth starting for ``tasks`` independent tasks.

    min(requested, tasks, os.cpu_count()), and at least 1: a pool larger
    than the task list or the machine only adds start-up cost. A request
    below 1 is an error rather than a silent serial run.
    """
    if requested < 1:
        raise ValueError(f"worker count must be at least 1, got {requested}")
    return max(1, min(requested, tasks, os.cpu_count() or 1))
