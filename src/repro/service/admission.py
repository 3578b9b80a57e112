"""Job queue and admission control for the shared place pool.

Admission is strict FIFO: the head job waits until the pool can hold its
whole lease (head-of-line blocking is the price of starvation freedom —
a stream of small jobs can never park a big one forever).  The queue is
unbounded: a job the pool can never host is reported as starved when the
stream ends, not turned away on arrival.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.runtime.pool import DEDICATED, PlacePool
from repro.service.jobs import DEDICATED_SPARES, JobSpec


class JobQueue:
    """FIFO queue of jobs waiting for pool capacity."""

    def __init__(self) -> None:
        self._queue: Deque[JobSpec] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def offer(self, job: JobSpec) -> None:
        """Enqueue *job* at the tail."""
        self._queue.append(job)

    def head(self) -> Optional[JobSpec]:
        return self._queue[0] if self._queue else None

    def pop(self) -> JobSpec:
        return self._queue.popleft()


class AdmissionController:
    """Decides when the queue's head job may carve its lease."""

    def __init__(self, pool: PlacePool, economics: str):
        self.pool = pool
        self.economics = economics

    def can_admit(self, job: JobSpec) -> bool:
        """True when the pool can host *job* right now.

        Needs enough live free places for the group (place zero excluded —
        it is the service coordinator) and, under ``dedicated`` economics,
        enough live reserve to commit the job's dedicated spares up-front.
        """
        free = self.pool.lendable_free
        if free < job.places:
            return False
        if self.economics == DEDICATED:
            return self.pool.reserve_remaining >= DEDICATED_SPARES
        return True

    def pop_admissible(self, queue: JobQueue) -> Optional[JobSpec]:
        """Pop the head job if FIFO order allows it to start right now.

        One job per call: the caller must carve the lease before asking
        again, so the capacity check always sees the pool's true state.
        """
        job = queue.head()
        if job is None or not self.can_admit(job):
            return None
        return queue.pop()
