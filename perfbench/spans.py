"""Benchmark-side spans and result capture around the program's functions.

The program has no tracer of its own, so per-layer time is measured by
replacing a function *where the calling module looks it up* (for
example ``repro.runtime.engine.dense_conv``, which the engine imported
by name) with a wrapper that adds the call's wall time to a named
total. Every patch is undone by :meth:`Patches.restore`, so the timed
passes run the program untouched.

Spans only see the process they were installed in: work a pooled call
hands to worker processes is not visible here.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Patches:
    """Named wall-time totals from wrapped functions, plus their undo list."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: Optional[str] = None,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper.

        With ``name`` the wrapper adds each call's duration to
        ``seconds[name]``; with ``on_result`` it hands each return value
        to that callback (outside the timed interval).
        """
        original = getattr(owner, attr)
        seconds = self.seconds

        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    seconds[name] += time.perf_counter() - start
            if on_result is not None:
                on_result(result)
            return result

        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def ms(self, name: str) -> float:
        return self.seconds.get(name, 0.0) * 1e3


_MISSING = object()


def install_runtime_spans(patches: Patches) -> None:
    """Spans over the runtime engine's stages and the encoder.

    The kernels are wrapped in ``repro.runtime.engine``, the name space
    the engine calls them from; the cost model's own probe calls
    import them from ``repro.runtime.kernels`` and stay unwrapped.
    """
    from repro.snn.metrics import SpikeStats

    # import_module: ``repro.quant.convert`` is also the name of a function
    # the package re-exports, which ``import ... as`` would pick up.
    convert = importlib.import_module("repro.quant.convert")
    engine = importlib.import_module("repro.runtime.engine")

    patches.wrap(engine.InferenceEngine, "run", "runtime.engine_run")
    patches.wrap(engine, "dense_conv", "runtime.dense_conv")
    patches.wrap(engine, "dense_fc", "runtime.dense_fc")
    patches.wrap(engine, "event_conv", "runtime.event_conv")
    patches.wrap(engine, "event_conv_blocked", "runtime.event_conv")
    patches.wrap(engine, "dense_conv_int", "runtime.int_kernel")
    patches.wrap(engine, "event_conv_int", "runtime.int_kernel")
    patches.wrap(engine, "or_pool", "runtime.or_pool")
    patches.wrap(engine, "lif_scan", "snn.lif_scan")
    patches.wrap(SpikeStats, "record", "snn.stats_record")
    patches.wrap(convert, "stack_encoder_frames", "snn.encode")


#: Spans nested inside ``runtime.engine_run``; the rest is its self time
#: (activity scans, BN, dispatch, accumulation).
ENGINE_CHILDREN = (
    "runtime.dense_conv",
    "runtime.dense_fc",
    "runtime.event_conv",
    "runtime.int_kernel",
    "runtime.or_pool",
    "snn.lif_scan",
    "snn.stats_record",
)
