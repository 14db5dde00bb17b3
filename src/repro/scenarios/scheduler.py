"""Fault-tolerant pool scheduling for sweep cells.

The process backend used to push every job into one executor and hope:
a single abruptly-dead worker (OOM kill, segfault, ``os._exit``)
breaks the whole ``ProcessPoolExecutor``, so every remaining future
raised ``BrokenProcessPool`` and a one-cell accident turned a long
sweep into a mostly-failed manifest.  :class:`PoolScheduler` replaces
that submit/collect loop with generations of pools:

* **Crash containment** — when the pool breaks, the jobs that never
  produced a real worker reply are resubmitted into a fresh pool,
  uncharged: only the cell that actually killed the pool should
  consume an attempt.  The rebuild budget (:attr:`SchedulerConfig.
  pool_rebuilds`) bounds how often that happens; once it is spent the
  remaining jobs run **isolated** — one single-worker pool per job —
  which exactly identifies the killer (its private pool breaks, no
  siblings involved) and lets every innocent cell finish.
* **Per-cell timeouts** — a cell observed running longer than
  ``cell_timeout`` wall seconds is charged an attempt and reaped: the
  pool's workers are killed (the only way to stop a busy process) and
  the generation ends.  A timed-out cell retries in the next pool
  generation until its attempt budget is spent, then lands as a
  ``timeout:`` failure.

Scheduling decisions are timed with ``time.monotonic``; the only wall
clock read is the per-cell ``started_at``/``finished_at`` stamp that
feeds the manifest, mirroring what ``attempt_job`` reports from
healthy workers.
"""

from __future__ import annotations

import time
import traceback as traceback_module
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro import faults
from repro.obs import metrics as obs_metrics
from repro.scenarios import backends as backends_module
from repro.scenarios.backends import (
    JobOutcome,
    OutcomeHook,
    SweepJob,
    backoff_delay,
    _outcome,
)

#: Default worker-side exponential-backoff base between retries of a
#: failing cell (seconds); doubles per attempt, see
#: :func:`repro.scenarios.backends.backoff_delay`.
DEFAULT_RETRY_BACKOFF = 0.1

#: Default number of times a broken pool is rebuilt wholesale before
#: the scheduler falls back to isolating each remaining job in its own
#: single-worker pool.
DEFAULT_POOL_REBUILDS = 1


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduling knobs shared by the backends and the runner.

    Everything here shapes *when and where* cells execute, never what
    they compute — the determinism harness pins that no knob changes a
    payload byte.
    """

    #: Wall-clock seconds a cell may be observed running before it is
    #: reaped and charged an attempt.  ``None`` disables timeouts.
    cell_timeout: "Optional[float]" = None
    #: Base of the worker-side exponential retry backoff (seconds).
    retry_backoff: float = DEFAULT_RETRY_BACKOFF
    #: Whole-pool rebuilds allowed before isolation mode.
    pool_rebuilds: int = DEFAULT_POOL_REBUILDS
    #: Coordinator poll granularity (seconds) — bounds timeout
    #: reaction latency, not any result.
    poll_interval: float = 0.05

    def validate(self) -> None:
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(
                f"cell_timeout must be > 0, got {self.cell_timeout!r}"
            )
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {self.retry_backoff!r}"
            )
        if self.pool_rebuilds < 0:
            raise ValueError(
                f"pool_rebuilds must be >= 0, got {self.pool_rebuilds!r}"
            )
        if self.poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be > 0, got {self.poll_interval!r}"
            )


class PoolScheduler:
    """Drives one batch of jobs through generations of executor pools.

    ``make_pool(workers)`` builds a fresh executor.  Outcomes are
    emitted via ``on_outcome`` from the coordinating thread as they
    resolve, and :meth:`run` returns them in original job order.
    """

    def __init__(
        self,
        *,
        make_pool: "Callable[[int], object]",
        workers: int,
        max_retries: int = 0,
        on_outcome: "Optional[OutcomeHook]" = None,
        config: "Optional[SchedulerConfig]" = None,
    ):
        self.make_pool = make_pool
        self.workers = max(1, workers)
        self.max_retries = max_retries
        self.on_outcome = on_outcome
        self.config = config or SchedulerConfig()
        self.config.validate()
        self.outcomes: "List[JobOutcome]" = []
        #: digest -> attempts charged by the coordinator (timeouts and
        #: identified crashes); worker-reported attempts add on top.
        self.charged: "Dict[str, int]" = {}

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def run(self, jobs: "Sequence[SweepJob]") -> "List[JobOutcome]":
        remaining = list(jobs)
        rebuilds_left = self.config.pool_rebuilds
        while remaining:
            remaining, crashed = self._run_generation(remaining)
            if not remaining:
                break
            if crashed:
                if rebuilds_left > 0:
                    # An unidentified worker death broke the pool:
                    # rebuild and resubmit every job that never got a
                    # real reply, charging nobody — the killer is in
                    # there somewhere, but so are its innocent
                    # siblings.
                    rebuilds_left -= 1
                    obs_metrics.count("sweep.pool_rebuilds")
                else:
                    # Budget spent: a deterministic crasher would
                    # rebuild forever.  Isolation identifies it
                    # exactly and still completes every sibling.
                    self._run_isolated(remaining)
                    remaining = []
        order = {job.digest: index for index, job in enumerate(jobs)}
        self.outcomes.sort(key=lambda outcome: order[outcome.job.digest])
        return self.outcomes

    # ------------------------------------------------------------------
    # one pool generation
    # ------------------------------------------------------------------
    def _run_generation(self, jobs):
        """Run *jobs* in one fresh pool.

        Returns ``(survivors, crashed)``: the jobs that still need a
        pool generation (unreplied after a crash, or timeout retries
        with budget left), and whether the pool broke *unexpectedly*
        (a deliberate timeout reap is not a crash and costs no rebuild
        budget).
        """
        config = self.config
        lanes = min(self.workers, len(jobs))
        pool = self.make_pool(lanes)
        job_of: "Dict[object, SweepJob]" = {}
        unresolved: "Dict[str, SweepJob]" = {
            job.digest: job for job in jobs
        }
        retrying: "Set[str]" = set()
        active: "Set[object]" = set()
        running_since: "Dict[object, float]" = {}
        started_wall: "Dict[str, float]" = {}
        crashed = False
        reaped = False
        try:
            try:
                for job in jobs:
                    future = self._submit(pool, job)
                    job_of[future] = job
                    active.add(future)
            except BrokenExecutor:
                # The pool can break while we are still submitting (a
                # very fast crasher): everything is a survivor.
                crashed = True
            while not crashed and active and unresolved:
                done, _ = wait(
                    active,
                    timeout=config.poll_interval,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    active.discard(future)
                    running_since.pop(future, None)
                    job = job_of[future]
                    try:
                        reply = future.result()
                    except BrokenExecutor:
                        crashed = True
                        break
                    except Exception as exc:  # noqa: BLE001
                        # attempt_job never raises, so this worker died
                        # in a way that did *not* break the pool (e.g.
                        # an unpicklable reply or a monkeypatched entry
                        # point).  Final failure, no resubmit.
                        del unresolved[job.digest]
                        self._emit_worker_death(
                            job, exc, started_wall.get(job.digest)
                        )
                        continue
                    del unresolved[job.digest]
                    self._emit_reply(job, reply)
                if crashed:
                    break
                now = time.monotonic()
                for future in active:
                    if future not in running_since and future.running():
                        running_since[future] = now
                        # Wall stamp of the cell's observed start, for
                        # the manifest/status view — never in a payload.
                        started_wall.setdefault(
                            job_of[future].digest,
                            time.time(),  # repro: allow(DET002) manifest stamp
                        )
                if config.cell_timeout is not None and self._charge_timeouts(
                    now=now,
                    running_since=running_since,
                    job_of=job_of,
                    unresolved=unresolved,
                    retrying=retrying,
                    started_wall=started_wall,
                ):
                    reaped = True
                    break
        finally:
            if crashed or reaped or active:
                # Deliberate reap, cleanup after a crash, or in-flight
                # leftovers after an exception escaped the loop: kill
                # the workers and do not block on them — every settled
                # cell is already emitted.
                self._reap_pool(pool)
                pool.shutdown(wait=False, cancel_futures=True)
            else:
                pool.shutdown(wait=True)
        survivors = [
            job
            for job in jobs
            if job.digest in unresolved or job.digest in retrying
        ]
        return survivors, crashed

    def _submit(self, pool, job: SweepJob):
        remaining_retries = max(
            0, self.max_retries - self.charged.get(job.digest, 0)
        )
        # Coordinator-side injection: a kill here takes down the whole
        # invocation with the cell still unsubmitted.
        faults.faultpoint("sched.submit", name=job.name)
        # Late-bound through the module so tests that monkeypatch
        # backends.attempt_job reach every backend, pools included.
        return pool.submit(
            backends_module.attempt_job,
            (
                job.name, job.digest, job.spec_json, remaining_retries,
                job.journal_path, self.config.retry_backoff,
            ),
        )

    def _charge_timeouts(
        self,
        *,
        now,
        running_since,
        job_of,
        unresolved,
        retrying,
        started_wall,
    ) -> bool:
        """Charge cells observed running past the timeout.

        Returns True when anything was charged; the caller then kills
        the workers and ends the generation, resubmitting the innocent
        in-flight cells uncharged.
        """
        timeout = self.config.cell_timeout
        expired = [
            future
            for future, since in running_since.items()
            if now - since > timeout
        ]
        charged_any = False
        for future in expired:
            job = job_of[future]
            digest = job.digest
            del unresolved[digest]
            charged_any = True
            obs_metrics.count("sweep.cell_timeouts")
            self.charged[digest] = self.charged.get(digest, 0) + 1
            if self.charged[digest] > self.max_retries:
                self._emit_timeout_failure(job, started_wall.get(digest))
            else:
                retrying.add(digest)
        return charged_any

    # ------------------------------------------------------------------
    # isolation mode — one single-worker pool per job
    # ------------------------------------------------------------------
    def _run_isolated(self, jobs) -> None:
        obs_metrics.count("sweep.isolated_cells", len(jobs))
        for job in jobs:
            self._run_one_isolated(job)

    def _run_one_isolated(self, job: SweepJob) -> None:
        """Run one job to a final outcome in private pools.

        A private pool makes crash attribution exact: if it breaks,
        *this* cell killed it, so the attempt charge lands on the
        right digest and the retry budget bounds a deterministic
        crasher.
        """
        config = self.config
        digest = job.digest
        while True:
            pool = self.make_pool(1)
            broke = False
            timed_out = False
            reply = None
            died: "Optional[BaseException]" = None
            # repro: allow(DET002) wall stamp of the isolated attempt's start for the manifest/status view; never in a payload
            observed_start = time.time()
            try:
                try:
                    future = self._submit(pool, job)
                    reply = future.result(timeout=config.cell_timeout)
                except FuturesTimeoutError:
                    timed_out = True
                except BrokenExecutor:
                    broke = True
                except Exception as exc:  # noqa: BLE001
                    died = exc
            finally:
                if broke or timed_out:
                    self._reap_pool(pool)
                    pool.shutdown(wait=False, cancel_futures=True)
                else:
                    pool.shutdown(wait=True)
            if reply is not None:
                self._emit_reply(job, reply)
                return
            if died is not None:
                self._emit_worker_death(job, died, observed_start)
                return
            if timed_out:
                obs_metrics.count("sweep.cell_timeouts")
            self.charged[digest] = self.charged.get(digest, 0) + 1
            if self.charged[digest] > self.max_retries:
                if timed_out:
                    self._emit_timeout_failure(job, observed_start)
                else:
                    self._emit_worker_death(job, None, observed_start)
                return
            delay = backoff_delay(
                self.charged[digest], config.retry_backoff
            )
            if delay > 0:
                time.sleep(delay)

    # ------------------------------------------------------------------
    # outcome emission
    # ------------------------------------------------------------------
    def _emit(self, outcome: JobOutcome) -> JobOutcome:
        self.outcomes.append(outcome)
        if self.on_outcome is not None:
            self.on_outcome(outcome)
        return outcome

    def _emit_reply(self, job: SweepJob, reply) -> JobOutcome:
        # A kill here dies with the reply computed but not yet folded
        # into the cache/manifest — resume must recompute the cell.
        faults.faultpoint("sched.reply", name=job.name)
        charged = self.charged.get(job.digest, 0)
        if charged:
            # Reaped/crashed attempts were observed here, not in the
            # worker; fold them into the reported attempt count.
            reply = list(reply)
            reply[4] = int(reply[4]) + charged
        return self._emit(_outcome(job, reply))

    def _emit_worker_death(
        self,
        job: SweepJob,
        exc: "Optional[BaseException]",
        observed_start: "Optional[float]",
    ) -> JobOutcome:
        attempts = self.charged.get(job.digest, 0) + 1
        if exc is None:
            error = (
                "worker died: the worker process exited abruptly"
                " (segfault, OOM kill or os._exit) on every allowed"
                " attempt"
            )
            traceback_text = ""
        else:
            error = f"worker died: {type(exc).__name__}: {exc}"
            traceback_text = "".join(
                traceback_module.format_exception(
                    type(exc), exc, exc.__traceback__
                )
            )
        reply = (
            job.digest, None, error, traceback_text, attempts,
            observed_start,
            # repro: allow(DET002) failure finish stamp for the manifest/status view; never in a payload
            time.time() if observed_start is not None else None,
        )
        return self._emit(_outcome(job, reply))

    def _emit_timeout_failure(
        self, job: SweepJob, observed_start: "Optional[float]"
    ) -> JobOutcome:
        attempts = self.charged.get(job.digest, 0)
        error = (
            f"timeout: cell exceeded --cell-timeout"
            f" ({self.config.cell_timeout:g}s wall) on every allowed"
            f" attempt"
        )
        reply = (
            job.digest, None, error, "", max(1, attempts),
            observed_start,
            # repro: allow(DET002) failure finish stamp for the manifest/status view; never in a payload
            time.time() if observed_start is not None else None,
        )
        return self._emit(_outcome(job, reply))

    # ------------------------------------------------------------------
    # pool reaping
    # ------------------------------------------------------------------
    @staticmethod
    def _reap_pool(pool) -> None:
        """Kill a process pool's workers; a no-op for pools without any."""
        faults.faultpoint("sched.reap")
        processes = getattr(pool, "_processes", None)
        if not processes:
            return
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 — already-dead worker
                pass
