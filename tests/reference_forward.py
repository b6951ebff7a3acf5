"""Test oracle for :meth:`DeployableNetwork.forward`: the per-timestep loop.

The fused runtime (:mod:`repro.runtime`) replaced this loop in
production. It stays here as the reference every equivalence test --
and the runtime hot-path bench -- compares the runtime against: one
fresh im2col + GEMM per layer and timestep on the dequantized weights
(:meth:`DeployableNetwork._layer_current`), reset-by-subtraction LIF and
OR-pooling by reshape + max.

Exactness contract: on the unblocked fold (every layer when
``event_kblock=0``, and every shape whose full-``K`` GEMM calibrates
exact) the runtime matches this loop bit for bit. Deep conv shapes on
the default canonical blocked fold may differ from its full-``K`` GEMM
in the last ulp; there the runtime is only guaranteed dispatch
invariant (forced dense == forced event == cost-routed).

Import it as ``from reference_forward import reference_forward``: the
test suite's root directory is on ``sys.path`` under pytest, and the
bench adds it explicitly.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ShapeError
from repro.quant.convert import DeployableNetwork, DeployableOutput
from repro.runtime import unstack_trains
from repro.snn.encoding import DirectEncoder, Encoder
from repro.snn.metrics import SpikeStats


def or_pool(x: np.ndarray, window: int) -> np.ndarray:
    """OR-gate max pooling on binary ``(N, C, H, W)`` maps (Sec. IV-B)."""
    n, c, h, w = x.shape
    return x.reshape(n, c, h // window, window, w // window, window).max(axis=(3, 5))


def reference_forward(
    model: DeployableNetwork,
    images: np.ndarray,
    timesteps: int,
    encoder: Optional[Encoder] = None,
    record: bool = False,
) -> DeployableOutput:
    """``model.forward`` computed one timestep and one layer at a time.

    Returns the runtime's output layout: with ``record=True`` each
    layer's input train is one stacked ``(T, N, ...)`` array, with the
    per-timestep lists as views of it. ``runtime_counters`` is ``None``
    (no dispatch happens here).
    """
    images = np.asarray(images, dtype=np.float32)
    if images.ndim != 4 or images.shape[1:] != model.input_shape:
        raise ShapeError(
            f"expected (N, {model.input_shape}) images, got {images.shape}"
        )
    encoder = encoder or DirectEncoder()
    encoder.reset()
    n = images.shape[0]
    beta, theta = model.lif.beta, model.lif.threshold

    stats = SpikeStats(samples=n, timesteps=timesteps)
    input_totals: Dict[str, float] = {}
    trains: Dict[str, List[np.ndarray]] = {layer.name: [] for layer in model.layers}
    membranes: Dict[str, Optional[np.ndarray]] = {
        layer.name: None for layer in model.layers
    }
    accumulated = np.zeros((n, model.population_size), dtype=np.float32)

    for t in range(timesteps):
        x = encoder.encode(images, t).data
        for layer in model.layers:
            if record:
                trains[layer.name].append(x.copy())
            input_totals[layer.name] = (
                input_totals.get(layer.name, 0.0) + float(x.sum())
            )
            current = model._layer_current(layer, x)
            previous = membranes[layer.name]
            integrated = current if previous is None else beta * previous + current
            spikes = (integrated > theta).astype(np.float32)
            membranes[layer.name] = integrated - spikes * theta
            stats.record(layer.name, t, spikes)
            x = spikes
            if layer.pool_after > 1:
                x = or_pool(x, layer.pool_after)
        accumulated += x

    logits = accumulated.reshape(n, model.num_classes, model.population_group).sum(
        axis=2
    )
    stacked = (
        {name: np.stack(series) for name, series in trains.items()}
        if record
        else None
    )
    return DeployableOutput(
        logits=logits,
        stats=stats,
        input_spike_totals=input_totals,
        spike_trains=unstack_trains(stacked),
        spike_trains_stacked=stacked,
    )


def with_reference_forward(model: DeployableNetwork) -> DeployableNetwork:
    """A shallow copy of ``model`` whose ``forward`` is the oracle.

    Lets whole consumers of a deployable -- e.g. ``HybridSimulator`` --
    run unchanged on top of the reference loop.
    """
    clone = copy.copy(model)
    clone.forward = lambda *args, **kwargs: reference_forward(model, *args, **kwargs)
    return clone
