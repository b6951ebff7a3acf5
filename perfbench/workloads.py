"""The benchmark's workloads, run inside one measuring child process.

Each workload loads its inputs and warms up in ``__init__`` (the part
``setup_s`` times), runs timed passes with :meth:`measure`, checks the
program's outputs with :meth:`check`, and turns the passes into the
end-to-end and per-layer metrics named in ``BENCHMARK.json``.

Offline workloads (``eval-pooled``, ``simulate-sparse``) are closed
loops: one operation over the whole 400-image test split after another.
Their request-level metrics read one operation as one request:
``serve_p50_ms`` / ``serve_p99_ms`` are percentiles of the operation's
latency and ``serve_sat_rps`` is operations completed per second.
"""

from __future__ import annotations

import importlib
import os
import queue
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import inputs
from spans import ENGINE_CHILDREN, Patches, install_runtime_spans

LAYERS = (
    "conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1",
    "conv3_2", "conv3_3", "fc1", "fc2",
)
#: Shard geometry of ``ExperimentContext.evaluate``.
EVAL_SHARD = 128
#: Open-loop rates of ``serve-open``, fixed so they never move with the
#: code under test: about 40 % of the default server's capacity on a
#: 2-core x86 box, and about twice that capacity.
NOMINAL_RPS = 200.0
OVERLOAD_RPS = 1100.0
#: A ``serve-open`` pass alternates the two rates in this many cycles,
#: each spending ``NOMINAL_SHARE`` of its time at the nominal rate.
#: Rate and latency figures are per-cycle samples whose median a run
#: reports, so a stall of the (virtual) machine in one cycle does not set
#: the run's figures.
CYCLES = 3
NOMINAL_SHARE = 0.6
SERVE_NAME = "bench"


@dataclass
class Pass:
    """What one timed pass of a workload produced."""

    seconds: float = 0.0  # wall time of the pass
    images: int = 0  # images (offline) or served requests completed
    attempted: int = 0
    failed: int = 0
    op_seconds: List[float] = field(default_factory=list)  # offline ops
    counters: List[Dict] = field(default_factory=list)  # per op/batch
    stats: List[object] = field(default_factory=list)  # SpikeStats per op/batch
    errors: List[str] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children (MiB)."""
    import multiprocessing

    pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    if total_kb == 0:
        import resource

        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


def cpu_steal_s() -> float:
    """Seconds of CPU the hypervisor has taken from this VM so far (all
    CPUs, from ``/proc/stat``; 0 where the kernel does not report it)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    ticks = int(fields[8]) if len(fields) > 8 else 0
    return ticks / os.sysconf("SC_CLK_TCK")


def density_totals(stats_list) -> Dict[str, float]:
    """Output spike density per layer over several ``SpikeStats``."""
    spikes: Dict[str, float] = {}
    slots: Dict[str, float] = {}
    for stats in stats_list:
        for name, count in stats.per_layer.items():
            spikes[name] = spikes.get(name, 0.0) + count
            slots[name] = slots.get(name, 0.0) + (
                stats.neuron_counts[name] * stats.samples * stats.timesteps
            )
    return {name: spikes[name] / slots[name] for name in spikes if slots[name]}


def sparsity(stats) -> float:
    """Share of neuron-timesteps without a spike, over the whole network."""
    spikes = sum(stats.per_layer.values())
    slots = sum(
        stats.neuron_counts[name] * stats.samples * stats.timesteps
        for name in stats.per_layer
    )
    return 1.0 - spikes / slots


def shard_module():
    """``repro.parallel.shard``: where callers look ``sharded_forward`` up."""
    return importlib.import_module("repro.parallel.shard")


def routing_signature(counters) -> tuple:
    return tuple(
        (name, c.dense_steps, c.event_steps, c.int_dense_steps, c.int_event_steps)
        for name, c in sorted(counters.items())
    )


def silent_layers(stats) -> List[str]:
    return [name for name in LAYERS if stats.per_layer.get(name, 0.0) <= 0.0]


class Workload:
    """Shared plumbing; subclasses define setup, one pass and the checks."""

    name = ""
    #: Spans that only see the parent process on this workload.
    worker_side: tuple = ()

    def __init__(self, ctx, args) -> None:
        self.scheme = inputs.SCHEMES[self.name]
        self.timesteps = ctx.timesteps_for(inputs.CODING)
        _train, test = ctx.dataset(inputs.DATASET)
        self.order = inputs.split_order(args.seed, len(test.images))
        self.images = np.ascontiguousarray(test.images[self.order])
        self.labels = test.labels[self.order]
        self.encoder = ctx.evaluation_encoder(inputs.CODING)
        start = time.perf_counter()
        self.model = ctx.trained(inputs.DATASET, self.scheme, inputs.CODING)
        self.trained_ms = (time.perf_counter() - start) * 1e3
        self.weights_digest = self.model.weights_digest()
        self.path = inputs.model_path(ctx, self.scheme)
        self.capture = Patches()

    def provenance(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "weights_digest": self.weights_digest,
            "artifact_sha256": inputs.file_digest(self.path),
            "plan_sidecar_sha256": inputs.file_digest(
                self.path[: -len(".npz")] + ".plan.npz"
            ),
        }

    def close(self) -> None:
        self.capture.restore()

    # -- offline closed loop -------------------------------------------
    def operation(self, result: Pass):
        raise NotImplementedError

    def measure(self, seconds: float) -> Pass:
        """Closed loop of whole-split operations for ``seconds``."""
        result = Pass()
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds:
            result.attempted += 1
            start = time.perf_counter()
            try:
                self.operation(result)
            except Exception:  # a failing operation is counted, not fatal
                result.failed += 1
                traceback.print_exc(limit=3, file=sys.stderr)
                continue
            result.op_seconds.append(time.perf_counter() - start)
            result.images += len(self.images)
        result.seconds = time.perf_counter() - begin
        return result

    def end_to_end(self, timed: Pass) -> Dict[str, object]:
        """Metrics of the untraced pass. A list is a set of samples: the
        run reports the median of all its processes' samples together."""
        ops = timed.op_seconds
        return {
            "images_per_s": [len(self.images) / op for op in ops],
            "serve_p50_ms": [op * 1e3 for op in ops],
            "serve_p99_ms": percentile(ops, 99) * 1e3,
            "serve_sat_rps": [1.0 / op for op in ops],
        }

    def install_spans(self, patches: Patches) -> None:
        install_runtime_spans(patches)
        patches.wrap(shard_module(), "sharded_forward", "parallel.sharded_forward")

    def sim_report_from_counts(self, input_totals: Dict[str, float], samples: int):
        """Simulated per-image cost of this model on the activity measured."""
        from repro.hw import HybridSimulator, lw_config

        simulator = HybridSimulator(self.model, lw_config(inputs.DATASET, scheme=self.model.scheme))
        per_image = {name: value / samples for name, value in input_totals.items()}
        return simulator.run_from_counts(per_image, self.timesteps)


class EvalPooled(Workload):
    """``sharded_forward`` at the geometry ``ExperimentContext.evaluate`` uses."""

    name = "eval-pooled"
    worker_side = (
        "runtime.engine_run_ms", "runtime.dense_conv_ms", "runtime.dense_fc_ms",
        "runtime.or_pool_ms", "runtime.engine_self_ms", "runtime.event_conv_ms",
        "runtime.int_kernel_ms", "snn.lif_scan_ms", "snn.stats_record_ms",
        "snn.encode_ms",
    )

    def __init__(self, ctx, args) -> None:
        super().__init__(ctx, args)
        self.first = None
        self._forward()  # starts the pool; workers load the model and sidecar

    def _forward(self, workers: Optional[int] = None):
        return shard_module().sharded_forward(
            self.model, self.images, self.timesteps, self.encoder,
            shard_size=EVAL_SHARD, workers=workers, model_path=self.path,
        )

    def operation(self, result: Pass) -> None:
        out = self._forward()
        result.counters.append(out.runtime_counters)
        result.stats.append(out.stats)
        if self.first is None:
            self.first = out
        elif out.logits.tobytes() != self.first.logits.tobytes():
            result.errors.append("pooled logits changed between evaluations")

    def check(self, passes: List[Pass]) -> List[str]:
        serial = self._forward(workers=1)
        self.reference = serial
        if self.first is None:
            return ["no evaluation completed"]
        errors = []
        if serial.logits.tobytes() != self.first.logits.tobytes():
            errors.append("pooled logits differ from the serial (workers=1) pass")
        for stats in (s for p in passes for s in p.stats):
            if stats.per_layer != serial.stats.per_layer:
                errors.append("pooled per-layer spike counts differ from the serial pass")
                break
        errors += [f"layer {name} is silent" for name in silent_layers(serial.stats)]
        return errors

    def end_to_end(self, timed: Pass) -> Dict[str, object]:
        out = self.reference
        report = self.sim_report_from_counts(out.input_spike_totals, len(self.images))
        metrics = super().end_to_end(timed)
        metrics.update(
            accuracy=float((out.logits.argmax(axis=1) == self.labels).mean()),
            sparsity=sparsity(out.stats),
            sim_latency_ms=report.latency_ms,
            sim_energy_mj=report.energy_mj,
        )
        return metrics

    def close(self) -> None:
        from repro.parallel import shutdown_worker_service

        shutdown_worker_service()
        super().close()


class SimulateSparse(Workload):
    """``HybridSimulator.run`` over the test split on the rescaled fp32 model."""

    name = "simulate-sparse"

    def __init__(self, ctx, args) -> None:
        from repro.hw import HybridSimulator, lw_config

        super().__init__(ctx, args)
        self.factors = [float(v) for v in args.factors.split(",")]
        inputs.scale_layers(self.model, self.factors)
        self.simulator = HybridSimulator(self.model, lw_config(inputs.DATASET))
        self.outputs: List = []
        self.capture.wrap(self.model, "forward", on_result=self.outputs.append)
        self.first = None
        self.report = self.simulator.run(
            self.images, self.timesteps, self.encoder, labels=self.labels
        )
        self.outputs.clear()

    def provenance(self) -> Dict[str, object]:
        record = super().provenance()
        record["scale_factors"] = self.factors
        record["scaled_weights_digest"] = self.model.weights_digest()
        return record

    def operation(self, result: Pass) -> None:
        self.outputs.clear()
        report = self.simulator.run(
            self.images, self.timesteps, self.encoder, labels=self.labels
        )
        (out,) = self.outputs
        self.outputs.clear()  # drop the recorded trains before the next op
        result.counters.append(out.runtime_counters)
        result.stats.append(out.stats)
        if not any(
            c.event_updates > 0 for name, c in out.runtime_counters.items()
            if name.startswith("conv")
        ):
            result.errors.append("no conv layer took the event kernels")
        if self.first is None:
            self.first = report
        elif report.logits.tobytes() != self.first.logits.tobytes():
            result.errors.append("simulated logits changed between runs")
        self.report = report
        result.extra["input_events"] = sum(
            layer.input_events for layer in report.layers if layer.engine == "sparse"
        )

    def check(self, passes: List[Pass]) -> List[str]:
        from repro.runtime import runtime_overrides

        self.capture.restore()
        if self.first is None:
            return ["no simulation completed"]
        with runtime_overrides(force_path="dense"):
            dense = self.model.forward(self.images, self.timesteps, self.encoder)
        errors = []
        if dense.logits.tobytes() != self.first.logits.tobytes():
            errors.append("event-routed simulation logits differ from the forced-dense forward")
        for stats in (s for p in passes for s in p.stats):
            if stats.per_layer != dense.stats.per_layer:
                errors.append("simulated per-layer spike counts differ from the forced-dense forward")
                break
        errors += [f"layer {name} is silent" for name in silent_layers(dense.stats)]
        return errors

    def end_to_end(self, timed: Pass) -> Dict[str, object]:
        metrics = super().end_to_end(timed)
        metrics.update(
            accuracy=self.report.accuracy,
            sparsity=sparsity(timed.stats[-1]),
            sim_latency_ms=self.report.latency_ms,
            sim_energy_mj=self.report.energy_mj,
        )
        return metrics

    def install_spans(self, patches: Patches) -> None:
        simulator = importlib.import_module("repro.hw.simulator")
        super().install_spans(patches)
        patches.wrap(simulator.HybridSimulator, "run", "hw.run")
        patches.wrap(simulator, "sparse_layer_cycle_sums", "hw.cycle_sums")
        patches.wrap(self.model, "forward", "hw.forward")


@dataclass
class Phase:
    """One open-loop phase of ``serve-open``."""

    offered: int = 0
    completed: int = 0
    rejected: int = 0
    timed_out: int = 0
    failed: int = 0
    seconds: float = 0.0
    latency_ms: List[float] = field(default_factory=list)  # from due time
    lag_ms: List[float] = field(default_factory=list)  # send - due
    queue_ms: List[float] = field(default_factory=list)
    execute_ms: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    correct: int = 0
    responses: List = field(default_factory=list)  # (sample, logits)

    @classmethod
    def concat(cls, phases) -> "Phase":
        """All requests of ``phases`` as one phase."""
        total = cls()
        for phase in phases:
            for name, value in vars(phase).items():
                setattr(total, name, getattr(total, name) + value)
        return total


class ServeOpen(Workload):
    """``InferenceServer`` (default ``ServeConfig``) under open-loop load."""

    name = "serve-open"

    def __init__(self, ctx, args) -> None:
        from repro.serving import InferenceServer

        super().__init__(ctx, args)
        self.offset = inputs.stream_offset(args.seed)
        self.server = InferenceServer()
        self.server.register(
            SERVE_NAME, self.model, self.timesteps,
            encoder=self.encoder, model_path=self.path,
        )
        self.sent = 0
        self.batches: List = []
        self.capture.wrap(
            shard_module(), "sharded_forward",
            on_result=lambda out: self.batches.append(out),
        )
        # Warm-up: the first batch-1 forwards of a fresh process are ~30x
        # slower than later ones, and batch sizes up to max_batch first
        # appear under overload.
        for _ in range(40):
            self._submit(0).result()
        self._phase(NOMINAL_RPS, 0.5)
        self._phase(OVERLOAD_RPS, 0.3)

    def _submit(self, k: int):
        sample = int(k % len(self.images))
        self.sent += 1
        return self.server.submit(
            SERVE_NAME, self.images[sample], stream_index=self.offset + sample
        )

    def _phase(self, rate: float, seconds: float) -> Phase:
        """Send at ``rate`` for ``seconds`` from a generator thread; the
        calling thread collects every response as it resolves."""
        from repro.errors import QueueFullError, ReproError, RequestTimeoutError, ServerClosedError

        count = max(1, int(rate * seconds))
        first = self.sent
        self.sent += count
        handoff: "queue.Queue" = queue.Queue()

        def generate() -> None:
            begin = time.monotonic() + 0.002
            for k in range(count):
                due = begin + k / rate
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                sample = (first + k) % len(self.images)
                try:
                    pending = self.server.submit(
                        SERVE_NAME, self.images[sample],
                        stream_index=self.offset + sample,
                    )
                except (QueueFullError, ServerClosedError):
                    pending = None
                handoff.put((sample, due, sent, pending))
            handoff.put(None)

        phase = Phase()
        thread = threading.Thread(target=generate, name="perfbench-load", daemon=True)
        thread.start()
        first_due = last_done = None
        while True:
            item = handoff.get()
            if item is None:
                break
            sample, due, sent, pending = item
            first_due = due if first_due is None else first_due
            phase.offered += 1
            phase.lag_ms.append((sent - due) * 1e3)
            if pending is None:
                phase.rejected += 1
                continue
            try:
                response = pending.result()
            except RequestTimeoutError:
                phase.timed_out += 1
                continue
            except ReproError:
                phase.failed += 1
                continue
            last_done = time.monotonic()
            phase.completed += 1
            phase.latency_ms.append((last_done - due) * 1e3)
            phase.queue_ms.append(response.queue_ms)
            phase.execute_ms.append(response.latency_ms - response.queue_ms)
            phase.batch_sizes.append(response.batch_size)
            phase.correct += int(response.prediction == self.labels[sample])
            phase.responses.append((sample, response.logits))
        thread.join()
        phase.seconds = (last_done or time.monotonic()) - first_due
        return phase

    def measure(self, seconds: float) -> Pass:
        stats_before = self.server.stats()[SERVE_NAME]
        self.batches.clear()
        cycle = seconds / CYCLES
        begin = time.perf_counter()
        cycles = [
            (
                self._phase(NOMINAL_RPS, NOMINAL_SHARE * cycle),
                self._phase(OVERLOAD_RPS, (1.0 - NOMINAL_SHARE) * cycle),
            )
            for _ in range(CYCLES)
        ]
        stats_after = self.server.stats()[SERVE_NAME]
        nominal = Phase.concat(n for n, _ in cycles)
        overload = Phase.concat(o for _, o in cycles)
        return Pass(
            seconds=time.perf_counter() - begin,
            images=nominal.completed + overload.completed,
            attempted=nominal.offered,
            failed=nominal.offered - nominal.completed,
            counters=[out.runtime_counters for out in self.batches],
            stats=[out.stats for out in self.batches],
            extra={
                "cycles": cycles,
                "nominal": nominal,
                "overload": overload,
                "server": {
                    key: stats_after[key] - stats_before[key] for key in stats_after
                },
            },
        )

    def check(self, passes: List[Pass]) -> List[str]:
        reference = self.model.forward(
            self.images, self.timesteps, self.encoder.for_samples(self.offset)
        )
        self.reference = reference
        # Sample i rides stream offset + i, so row i of one offline
        # forward from that offset is every request's reference.
        rows = [np.ascontiguousarray(row).tobytes() for row in reference.logits]
        errors = []
        mismatched = 0
        for timed in passes:
            for phase in (timed.extra["nominal"], timed.extra["overload"]):
                for sample, logits in phase.responses:
                    if logits.tobytes() != rows[sample]:
                        mismatched += 1
        if mismatched:
            errors.append(f"{mismatched} served responses differ from the offline forward")
        errors += [f"layer {name} is silent" for name in silent_layers(reference.stats)]
        return errors

    def end_to_end(self, timed: Pass) -> Dict[str, object]:
        cycles, nominal = timed.extra["cycles"], timed.extra["nominal"]
        report = self.sim_report_from_counts(
            self.reference.input_spike_totals, len(self.images)
        )
        return {
            "images_per_s": [
                (n.completed + o.completed) / (n.seconds + o.seconds) for n, o in cycles
            ],
            "serve_p50_ms": [percentile(n.latency_ms, 50) for n, _ in cycles],
            "serve_p99_ms": percentile(nominal.latency_ms, 99),
            "serve_sat_rps": [o.completed / o.seconds for _, o in cycles],
            "accuracy": nominal.correct / max(1, nominal.completed),
            "sparsity": sparsity(self.reference.stats),
            "sim_latency_ms": report.latency_ms,
            "sim_energy_mj": report.energy_mj,
        }

    def close(self) -> None:
        self.server.shutdown()
        super().close()


WORKLOADS = {cls.name: cls for cls in (EvalPooled, SimulateSparse, ServeOpen)}


def layer_metrics(workload: Workload, untraced: Pass, traced: Pass, patches: Patches) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from the traced pass.

    Span times and runtime counters are per image (per served request on
    ``serve-open``); service and serving counters are totals.
    """
    from repro.parallel import retry_stats, service_stats

    images = max(1, traced.images)

    def per_image_ms(*names: str) -> float:
        return sum(patches.ms(name) for name in names) / images

    def counter_total(field_name: str) -> float:
        return sum(
            getattr(c, field_name) for counters in traced.counters for c in counters.values()
        )

    service = service_stats()
    signatures = [routing_signature(c) for c in traced.counters]
    metrics: Dict[str, float] = {
        "experiments.trained_ms": workload.trained_ms,
        "parallel.sharded_forward_ms": per_image_ms("parallel.sharded_forward"),
        "parallel.pool_starts": service["pool_starts"],
        "parallel.generations": service["generations"],
        "parallel.generation_reuses": service["generation_reuses"],
        "parallel.blob_spills": service["blob_spills"],
        "parallel.restarts": service["restarts"],
        "parallel.retries": retry_stats().retries,
        "parallel.breaker_serial_runs": service["breaker_serial_runs"],
        "runtime.engine_run_ms": per_image_ms("runtime.engine_run"),
        "runtime.dense_conv_ms": per_image_ms("runtime.dense_conv"),
        "runtime.dense_fc_ms": per_image_ms("runtime.dense_fc"),
        "runtime.or_pool_ms": per_image_ms("runtime.or_pool"),
        "runtime.engine_self_ms": per_image_ms("runtime.engine_run") - per_image_ms(*ENGINE_CHILDREN),
        "snn.lif_scan_ms": per_image_ms("snn.lif_scan"),
        "snn.stats_record_ms": per_image_ms("snn.stats_record"),
        "snn.encode_ms": per_image_ms("snn.encode"),
        "runtime.event_conv_ms": per_image_ms("runtime.event_conv"),
        "runtime.event_steps": counter_total("event_steps") / images,
        "runtime.event_updates": counter_total("event_updates") / images,
        "runtime.int_kernel_ms": per_image_ms("runtime.int_kernel"),
        "runtime.int_dense_steps": counter_total("int_dense_steps") / images,
        "runtime.int_event_steps": counter_total("int_event_steps") / images,
        "runtime.dense_steps": counter_total("dense_steps") / images,
        "runtime.dense_cost_steps": counter_total("dense_cost_steps") / images,
        "runtime.routing_changes": sum(1 for s in signatures if s != signatures[0]),
    }
    densities = density_totals(traced.stats)
    for name in LAYERS:
        metrics[f"runtime.density.{name}"] = 100.0 * densities.get(name, 0.0)
    hw_run = per_image_ms("hw.run")
    metrics.update({
        "hw.forward_ms": per_image_ms("hw.forward"),
        "hw.cycle_sums_ms": per_image_ms("hw.cycle_sums"),
        "hw.report_ms": hw_run - per_image_ms("hw.forward", "hw.cycle_sums") if hw_run else 0.0,
        "hw.input_events": float(traced.extra.get("input_events", 0.0)),
    })
    nominal = traced.extra.get("nominal", Phase())
    overload = traced.extra.get("overload", Phase())
    server = traced.extra.get("server", {})
    metrics.update({
        "serving.queue_ms_p50": percentile(nominal.queue_ms, 50),
        "serving.queue_ms_p99": percentile(nominal.queue_ms, 99),
        "serving.execute_ms_p50": percentile(nominal.execute_ms, 50),
        "serving.batch_size_mean": float(np.mean(nominal.batch_sizes)) if nominal.batch_sizes else 0.0,
        "serving.batches": server.get("batches", 0),
        "serving.rejected": server.get("rejected_full", 0),
        "serving.timed_out": server.get("timed_out", 0),
        "serving.generator_lag_ms_p99": percentile(nominal.lag_ms + overload.lag_ms, 99),
        "trace_overhead_pct": 100.0 * (host_cost(traced) / host_cost(untraced) - 1.0),
    })
    return metrics


def host_cost(timed: Pass) -> float:
    """Host time per unit of work, the base of ``trace_overhead_pct``:
    the median operation (offline) or the mean execute time per served
    request at the nominal rate (``serve-open``)."""
    if "nominal" in timed.extra:
        phase = timed.extra["nominal"]
        return float(np.mean(np.asarray(phase.execute_ms) / np.asarray(phase.batch_sizes)))
    return float(np.median(timed.op_seconds))


def routing_record(passes: List[Pass]) -> Dict[str, object]:
    """Every distinct per-layer routing seen, with how many ops took it."""
    seen: Dict[tuple, Dict[str, object]] = {}
    for timed in passes:
        for counters in timed.counters:
            entry = seen.setdefault(
                routing_signature(counters),
                {"ops": 0, "layers": {n: c.as_dict() for n, c in counters.items()}},
            )
            entry["ops"] += 1
    return {"ops": sum(len(p.counters) for p in passes), "distinct": list(seen.values())}
