"""Persistent worker pools: one long-lived pool, many ``run_tasks`` calls.

A fresh process pool per :func:`run_tasks` call would price pooling
out of small batches: ~20 ms of pool startup plus model/state shipping
paid per call, per worker. :class:`WorkerService` keeps one pool alive
across calls instead -- lazily started on first use, reused while the
resolved worker count stays put, resized (restarted) when it changes,
and shut down cleanly through a context manager, an explicit
:meth:`WorkerService.shutdown`, or the ``atexit`` hook guarding the
process-wide shared instance.

Generations
-----------

A classic pool binds its initializer at creation, but a persistent pool
serves calls whose per-call state (model, images, encoder snapshot,
parent runtime config) differs. The service therefore versions that
state: every :meth:`WorkerService.run` call mints a new *generation* --
the parent's :class:`~repro.runtime.config.RuntimeConfig` plus the
caller's ``(initializer, initargs)``, pickled once -- and every task
carries the generation id. A worker whose last-seen generation differs
re-applies the runtime config and re-runs the initializer before
executing the cell; a worker already on the right generation runs the
cell directly: state is applied once per worker per call, without a
pool startup per call. As a further warm-path shortcut, a call whose
state pickles byte-identically to the previous call's *reuses* the
previous generation: already-initialized workers then skip
re-initialization and keep what the initializer built (a loaded model,
a warmed plan) -- the model-shipping amortization repeated evaluations
want. Initializers
must therefore establish state idempotently; cells must not mutate it
in ways a repeated identical call may not observe (every cell in this
package treats worker state as read-only).

Because generation state travels with the tasks rather than through
fork-time memory inheritance, small blobs ride inline in every task
(cheap, and workers already on the right generation ignore them), while
a blob past :data:`_INLINE_BLOB_LIMIT` -- e.g. a whole pickled model --
is spilled to a temporary file once per call and tasks carry only its
path: each worker reads the file at most once, so a large model crosses
the parent's pipe zero times and the disk once, instead of once per
task. Callers should still prefer artifact paths for long-lived state
(``sharded_forward(model_path=...)`` ships the ``.npz`` + ``.plan.npz``
location, and :func:`repro.parallel.shard.sharded_forward` ships image
rows as memory-mapped slices of one temp file).

Pool sizing is grow-only: a call needing fewer workers than the running
pool reuses it (submissions are chunked so at most the requested count
run concurrently -- an explicit ``workers=2`` stays a concurrency cap
even on a wider pool), and only a call needing *more* workers restarts
it. Alternating small and large fan-outs therefore never thrashes pool
startup or the workers' warm per-process caches.

Start methods
-------------

The service defaults to :func:`repro.parallel.pool.pool_start_method`
(``fork`` on Linux, ``spawn`` elsewhere) but honours
``REPRO_START_METHOD`` (``fork`` | ``forkserver`` | ``spawn``).
``forkserver`` is the recommended override for long-lived services
embedded in threaded parents: workers fork from a clean server process
instead of from whatever state the parent has accumulated, at the cost
of one extra process. None of this affects results -- the service never
relies on inherited memory, so every start method computes the same
bytes (locked down by ``tests/parallel/``).

The service is the only pooled executor: :func:`run_tasks` and the
self-healing rounds of :mod:`repro.parallel.retry` both run on it.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing as mp
import os
import pickle
import tempfile
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError, WorkerCrashError, WorkerTimeoutError

# The env constants and readers were defined here historically; they
# moved to the layer's config module (rule P101) and stay importable.
from repro.parallel.config import (  # noqa: F401
    BREAKER_COOLDOWN_MS_ENV,
    BREAKER_THRESHOLD_ENV,
    BREAKER_WINDOW_MS_ENV,
    START_METHOD_ENV,
    WORKERS_ENV,
    _reset_override_for_worker,
    env_positive as _env_positive,
    resolve_workers,
    service_start_method,
)
from repro.runtime.config import RuntimeConfig, runtime_config, set_runtime_config


@dataclass
class ServiceStats:
    """Lifetime counters of one service (bench/observability surface)."""

    pool_starts: int = 0  # pools created (lazy start + grow restarts)
    runs: int = 0  # run() calls served by a pool
    warm_runs: int = 0  # runs served by an already-running pool
    cells: int = 0  # tasks executed through the pool
    generations: int = 0  # distinct per-call state broadcasts
    generation_reuses: int = 0  # runs whose state matched the previous one
    blob_spills: int = 0  # generations whose state went via a temp file
    aborts: int = 0  # pools torn down after a worker crash / call timeout
    restarts: int = 0  # pool starts that recovered from an abort (backoff-gated)
    breaker_trips: int = 0  # times the circuit breaker opened
    breaker_serial_runs: int = 0  # runs degraded to inline serial (breaker open)

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class CircuitBreaker:
    """Abort-rate circuit breaker over a service's pool.

    Tracks pool aborts in a rolling window. While the abort count stays
    under ``threshold`` the breaker is *closed* and pooled execution
    proceeds normally. Hitting the threshold *opens* it: for
    ``cooldown_s`` the service stops restarting pools and degrades to
    inline serial execution -- ending a terminate/respawn storm from a
    persistently hostile workload. Once the cooldown elapses the breaker
    goes *half-open*: the next run probes the pool; success closes the
    breaker (and clears the abort history), another abort re-opens it
    for a fresh cooldown.
    """

    def __init__(
        self,
        threshold: int = 5,
        window_s: float = 30.0,
        cooldown_s: float = 1.0,
    ) -> None:
        if threshold < 1:
            raise ConfigError(
                f"breaker threshold must be >= 1, got {threshold}"
            )
        self.threshold = threshold
        self.window_s = window_s
        self.cooldown_s = cooldown_s
        self.trips = 0
        self._abort_times: deque = deque()
        self._open_until: Optional[float] = None
        self._probing = False

    def _prune(self, now: float) -> None:
        while self._abort_times and now - self._abort_times[0] > self.window_s:
            self._abort_times.popleft()

    @property
    def state(self) -> str:
        """``closed`` | ``open`` | ``half-open`` (cooldown elapsed)."""
        if self._open_until is None:
            return "closed"
        if self._probing or time.monotonic() >= self._open_until:
            return "half-open"
        return "open"

    def record_abort(self) -> bool:
        """Note one pool abort; ``True`` if this trip opened the breaker."""
        now = time.monotonic()
        self._abort_times.append(now)
        self._prune(now)
        if self._probing:
            # The half-open probe failed: straight back to open.
            self._probing = False
            self._open_until = now + self.cooldown_s
            self.trips += 1
            return True
        if self._open_until is None and len(self._abort_times) >= self.threshold:
            self._open_until = now + self.cooldown_s
            self.trips += 1
            return True
        return False

    def record_success(self) -> None:
        """A pooled run completed: close after a successful probe."""
        if self._open_until is not None:
            self._open_until = None
            self._probing = False
            self._abort_times.clear()

    def allow_pool(self) -> bool:
        """Whether the next run may use the pool (half-open = probe)."""
        if self._open_until is None:
            return True
        if time.monotonic() >= self._open_until:
            self._probing = True
            return True
        return False


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: Monotonic across the whole process (never reset on pool restarts), so
#: a fresh worker -- whose last-seen generation is None -- always
#: re-initializes, and a stale worker can never mistake old state for new.
_GENERATION_COUNTER = 0  # repro: lint-ok[P102] parent-only monotonic id; workers compare, never increment

_WORKER_GENERATION: Optional[int] = None  # repro: lint-ok[P102] per-worker last-applied generation; written only by that worker

#: Generation blobs up to this size ride inline in every task; larger
#: ones (pickled models, image snapshots) are spilled to a temp file the
#: workers each read once, keeping the per-task pipe traffic at payload
#: size.
_INLINE_BLOB_LIMIT = 64 * 1024


def _service_bootstrap() -> None:  # pragma: no cover - runs in workers
    """Once per worker process: pin the no-nested-pools environment."""
    os.environ[WORKERS_ENV] = "1"
    _reset_override_for_worker()
    from repro.faults import mark_worker_process

    mark_worker_process()


def _service_cell(task: Tuple[int, Tuple[str, object], Callable, object]):
    """One task: sync to the task's generation, then run the cell.

    The generation blob -- inline bytes, or a temp-file path for large
    state -- re-applies the parent's runtime config and runs the
    caller's initializer exactly once per worker per generation. An
    initializer that raises leaves the worker's
    generation unchanged, so the next task retries it rather than
    running the cell against half-applied state.
    """
    global _WORKER_GENERATION
    generation, (blob_kind, blob_value), fn, payload = task
    if _WORKER_GENERATION != generation:
        if blob_kind == "file":
            with open(blob_value, "rb") as handle:
                blob = handle.read()
        else:
            blob = blob_value
        config_kwargs, initializer, initargs = pickle.loads(blob)
        set_runtime_config(RuntimeConfig(**config_kwargs))
        if initializer is not None:
            initializer(*initargs)
        _WORKER_GENERATION = generation
    return fn(payload)


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class WorkerService:
    """A lazily started, persistent, grow-only process pool.

    Usable standalone (``with WorkerService(workers=4) as svc: svc.run(...)``)
    or -- the common path -- as the process-wide shared instance every
    :func:`repro.parallel.pool.run_tasks` call reuses. The pool starts
    on the first pooled ``run`` and survives until :meth:`shutdown`,
    context-manager exit, a call needing *more* workers (grow restart),
    or interpreter exit (the shared instance registers an ``atexit``
    hook); calls needing fewer workers reuse the wider pool with their
    concurrency capped by chunked submission.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        restart_backoff_ms: float = 50.0,
        restart_backoff_max_ms: float = 2000.0,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self._default_workers = workers
        self._start_method = start_method
        self._pool = None
        self._pool_workers = 0
        self._owner_pid = os.getpid()
        # (state digest, generation id, blob ref) of the last broadcast:
        # a run whose pickled state is byte-identical reuses it, so warm
        # workers skip re-initialization (and keep e.g. a loaded model).
        self._generation_cache: Optional[Tuple[bytes, int, Tuple]] = None
        self.stats = ServiceStats()
        # Post-abort restart damping: a flapping worker must not spin a
        # terminate/respawn loop at pool-start speed. Doubled per
        # consecutive abort, reset by the first successful pooled run.
        self._restart_backoff_ms = restart_backoff_ms
        self._restart_backoff_max_ms = restart_backoff_max_ms
        self._consecutive_aborts = 0
        self._last_abort: Optional[float] = None
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            threshold=int(_env_positive(BREAKER_THRESHOLD_ENV, 5, int)),
            window_s=_env_positive(BREAKER_WINDOW_MS_ENV, 30000.0) / 1000.0,
            cooldown_s=_env_positive(BREAKER_COOLDOWN_MS_ENV, 1000.0) / 1000.0,
        )

    # -- lifecycle ------------------------------------------------------
    def _ensure_pool(self, count: int):
        """A pool of at least ``count`` workers (grow-only resizing).

        A wider pool than requested is reused as-is -- :meth:`run`
        chunks submissions so at most ``count`` of its workers are busy
        -- because restarting would re-pay pool startup *and* discard
        every worker's warm per-process caches (plan geometry, BLAS-fold
        calibration), the exact costs the service exists to amortize.
        """
        inherited = self._pool is not None and self._owner_pid != os.getpid()
        too_small = self._pool is not None and self._pool_workers < count
        if inherited or too_small:
            self.shutdown()
        if self._pool is None:
            if self._last_abort is not None:
                # Restart backoff: damp terminate/respawn storms after a
                # crash. Exponential in the consecutive-abort count,
                # capped, and charged only for the remaining fraction.
                backoff_s = min(
                    self._restart_backoff_ms
                    * (2.0 ** max(0, self._consecutive_aborts - 1)),
                    self._restart_backoff_max_ms,
                ) / 1000.0
                wait = self._last_abort + backoff_s - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                self.stats.restarts += 1
            method = self._start_method or service_start_method()
            context = mp.get_context(method)
            self._pool = context.Pool(
                processes=count, initializer=_service_bootstrap
            )
            self._pool_workers = count
            self._owner_pid = os.getpid()
            self.stats.pool_starts += 1
        return self._pool

    @property
    def running(self) -> bool:
        """Whether a pool is currently alive under this service."""
        return self._pool is not None

    @property
    def pool_workers(self) -> int:
        """Worker count of the running pool (0 when not running)."""
        return self._pool_workers if self._pool is not None else 0

    def _drop_generation_cache(self) -> None:
        cached, self._generation_cache = self._generation_cache, None
        if (
            cached is not None
            and cached[2][0] == "file"
            and self._owner_pid == os.getpid()  # never unlink a parent's file
            and os.path.exists(cached[2][1])
        ):
            os.remove(cached[2][1])

    def shutdown(self) -> None:
        """Stop the pool (if any). The next pooled run restarts lazily.

        A pool handle inherited through ``fork`` (``os.getpid()`` differs
        from the creating process) is dropped without closing -- the
        pipes belong to the parent, and closing them from a child would
        sabotage the parent's still-live pool; likewise a spilled
        generation file is only unlinked by the process that wrote it.
        """
        self._drop_generation_cache()
        pool, self._pool = self._pool, None
        self._pool_workers = 0
        if pool is not None and self._owner_pid == os.getpid():
            pool.close()
            pool.join()

    def _abort_pool(self) -> None:
        """Tear down a pool that lost a worker (or blew its budget).

        ``terminate`` rather than ``close``+``join``: joining a pool
        whose in-flight tasks died with their worker can itself hang on
        the unaccounted results. The next pooled run restarts lazily --
        that restart *is* the recovery path.
        """
        self._drop_generation_cache()
        pool, self._pool = self._pool, None
        self._pool_workers = 0
        if pool is not None and self._owner_pid == os.getpid():
            pool.terminate()
            pool.join()
        self.stats.aborts += 1
        self._consecutive_aborts += 1
        self._last_abort = time.monotonic()
        if self.breaker.record_abort():
            self.stats.breaker_trips += 1

    def _note_success(self) -> None:
        """A pooled run completed: reset abort damping, close the breaker."""
        self._consecutive_aborts = 0
        self._last_abort = None
        self.breaker.record_success()

    def _run_inline(
        self,
        fn: Callable,
        payloads: List,
        initializer: Optional[Callable],
        initargs: Tuple,
    ) -> List:
        """Degraded serial execution while the breaker is open.

        Semantics match the single-worker serial fallback: the
        initializer (then the cells) run in the calling process, so
        progress continues at serial speed instead of feeding a restart
        storm. Fault-plan injection is skipped by design -- these cells
        do not run in a worker process (see :mod:`repro.faults`).
        """
        self.stats.breaker_serial_runs += 1
        self.stats.runs += 1
        self.stats.cells += len(payloads)
        if initializer is not None:
            initializer(*initargs)
        return [fn(payload) for payload in payloads]

    def __enter__(self) -> "WorkerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- execution ------------------------------------------------------
    def run(
        self,
        fn: Callable,
        payloads: Iterable,
        workers: Optional[int] = None,
        initializer: Optional[Callable] = None,
        initargs: Tuple = (),
        timeout: Optional[float] = None,
    ) -> List:
        """``[fn(p) for p in payloads]`` on the persistent pool.

        Same contract as :func:`repro.parallel.pool.run_tasks` (results
        in payload order, module-level picklable callables, serial
        fallback at one resolved worker -- initializer then runs in the
        calling process), plus warm reuse: consecutive calls share the
        pool, and only the generation blob -- runtime config,
        initializer, initargs, pickled once per call and spilled to a
        temp file when large -- travels alongside the tasks; a call
        whose state is byte-identical to the previous one reuses its
        generation outright, so warm workers skip re-initialization.
        (The warm path still pays one pickle of the state to compute the
        reuse digest -- correctness over cleverness: the digest must
        cover exactly what workers would apply. Ship big state by
        artifact path, as ``sharded_forward(model_path=...)`` does with
        a content digest alongside, to keep that O(KB).) ``workers`` is
        a concurrency cap even when the running pool is wider:
        submissions are chunked so at most that many workers are busy.

        Fault containment: a worker that dies mid-call raises
        :class:`~repro.errors.WorkerCrashError`, an exceeded ``timeout``
        (seconds) raises :class:`~repro.errors.WorkerTimeoutError`;
        either way the pool is torn down (``terminate``) and the next
        run restarts it lazily -- the service recovers, the caller gets
        a typed error, and nothing ever hangs on results a dead worker
        cannot deliver (see :func:`repro.parallel.pool.guarded_map_wait`).
        """
        payloads = list(payloads)
        count = min(
            resolve_workers(
                workers if workers is not None else self._default_workers
            ),
            max(1, len(payloads)),
        )
        if count <= 1 or len(payloads) <= 1:
            if initializer is not None:
                initializer(*initargs)
            return [fn(payload) for payload in payloads]
        if not self.breaker.allow_pool():
            return self._run_inline(fn, payloads, initializer, initargs)
        generation, blob_ref = self._broadcast_generation(
            initializer, initargs, count=count
        )
        pool = self._pool
        self.stats.cells += len(payloads)
        tasks = [(generation, blob_ref, fn, payload) for payload in payloads]
        # chunksize 1 keeps assignment balanced; on a pool wider than the
        # requested cap, chunk so at most `count` chunks exist -- i.e. at
        # most `count` workers ever hold work from this call.
        if self._pool_workers <= count:
            chunksize = 1
        else:
            chunksize = -(-len(tasks) // count)
        from repro.parallel.pool import guarded_map_wait

        result = pool.map_async(_service_cell, tasks, chunksize=chunksize)
        try:
            results = guarded_map_wait(pool, result, timeout=timeout)
        except (WorkerCrashError, WorkerTimeoutError):
            self._abort_pool()
            raise
        self._note_success()
        return results

    def _broadcast_generation(
        self,
        initializer: Optional[Callable],
        initargs: Tuple,
        count: int,
    ) -> Tuple[int, Tuple]:
        """Ensure a pool and mint (or reuse) the call's generation blob.

        Shared by :meth:`run` and :meth:`run_indexed` so both paths
        carry byte-identical state broadcasts -- a retry round reuses
        the warm generation a mapped call established, and vice versa.
        Updates run/warm-run/generation stats; callers account cells.
        """
        blob = pickle.dumps(
            (asdict(runtime_config()), initializer, initargs),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        digest = hashlib.sha256(blob).digest()
        starts_before = self.stats.pool_starts
        self._ensure_pool(count)  # a grow restart clears the cache
        self.stats.runs += 1
        if self.stats.pool_starts == starts_before:
            self.stats.warm_runs += 1
        cached = self._generation_cache
        if cached is not None and cached[0] == digest:
            # Byte-identical state: reuse the broadcast, so workers
            # already on this generation skip re-initialization entirely
            # (the spill file, if any, still serves never-initialized
            # workers).
            _, generation, blob_ref = cached
            self.stats.generation_reuses += 1
        else:
            global _GENERATION_COUNTER
            _GENERATION_COUNTER += 1
            generation = _GENERATION_COUNTER
            self._drop_generation_cache()
            if len(blob) > _INLINE_BLOB_LIMIT:
                fd, spill_path = tempfile.mkstemp(suffix=".generation.blob")
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                blob_ref = ("file", spill_path)
                self.stats.blob_spills += 1
            else:
                blob_ref = ("inline", blob)
            self._generation_cache = (digest, generation, blob_ref)
            self.stats.generations += 1
        return generation, blob_ref

    def run_indexed(
        self,
        fn: Callable,
        tasks: List[Tuple[int, object]],
        workers: Optional[int] = None,
        initializer: Optional[Callable] = None,
        initargs: Tuple = (),
        timeout: Optional[float] = None,
    ) -> Tuple[Dict[int, object], set, Optional[BaseException]]:
        """One recovery round for the retry layer: indexed, partial-harvest.

        Same generation semantics as :meth:`run`, but each ``(index,
        payload)`` task is submitted individually and a crash or timeout
        returns ``(done, dispatched, error)`` instead of raising -- the
        completed results survive, and only the lost tasks need
        re-execution (see :func:`repro.parallel.pool.gather_indexed`).
        There is **no** serial fallback here even for a single task: a
        suspect task must run in a worker process so that killing its
        worker cannot kill the caller. The one exception is an *open*
        circuit breaker, which degrades to inline execution -- by then
        the workload has already proven it kills pools, and the retry
        layer quarantines true poison tasks before the breaker opens.
        A cell that raises its own exception still propagates.
        """
        count = min(
            resolve_workers(
                workers if workers is not None else self._default_workers
            ),
            max(1, len(tasks)),
        )
        if not self.breaker.allow_pool():
            payloads = [payload for _, payload in tasks]
            results = self._run_inline(fn, payloads, initializer, initargs)
            done = {
                index: result
                for (index, _), result in zip(tasks, results)
            }
            return done, set(), None
        generation, blob_ref = self._broadcast_generation(
            initializer, initargs, count=count
        )
        pool = self._pool
        self.stats.cells += len(tasks)
        payload_by = {
            index: (generation, blob_ref, fn, payload)
            for index, payload in tasks
        }
        from repro.parallel.pool import gather_indexed

        done, dispatched, error = gather_indexed(
            pool,
            lambda index: pool.apply_async(
                _service_cell, (payload_by[index],)
            ),
            [index for index, _ in tasks],
            window=count,
            timeout=timeout,
        )
        if error is not None:
            self._abort_pool()
        else:
            self._note_success()
        return done, dispatched, error


# ---------------------------------------------------------------------------
# The shared instance run_tasks routes through
# ---------------------------------------------------------------------------

_SHARED: Optional[WorkerService] = None  # repro: lint-ok[P102] parent-only singleton; fork-inherited copies are detected by owner pid and discarded


def shared_service() -> WorkerService:
    """The process-wide service behind every pooled ``run_tasks`` call.

    Created on first use (with an ``atexit`` shutdown hook); a handle
    inherited by a forked child is replaced with the child's own fresh
    instance rather than reused, since pool pipes do not survive a fork
    usefully.
    """
    global _SHARED
    if _SHARED is None:
        _SHARED = WorkerService()
        atexit.register(shutdown_worker_service)
    elif _SHARED._owner_pid != os.getpid() and _SHARED._pool is not None:
        _SHARED = WorkerService()
    return _SHARED


def shutdown_worker_service() -> None:
    """Stop the shared pool (idempotent; the service restarts lazily)."""
    if _SHARED is not None:
        _SHARED.shutdown()


def service_stats() -> Dict[str, int]:
    """Lifetime counters of the shared service (zeros before first use)."""
    if _SHARED is None:
        return ServiceStats().as_dict()
    return _SHARED.stats.as_dict()
