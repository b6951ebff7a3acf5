"""Workload inputs: trained models, seed-derived data, calibration, provenance.

Every run's inputs are made here: the test-image order and the serve
stream offset from ``--seed``, and the per-layer scale factors that set
the sparse regime of ``simulate-sparse``. The program itself only ever
sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional

import numpy as np

DATASET = "cifar10"
SCALE = "small"
CODING = "direct"
#: Scheme of each workload's model (``repro serve`` defaults to int4;
#: int8p2 is the scheme whose integer datapath arbitration is live).
SCHEMES = {"eval-pooled": "int8p2", "simulate-sparse": "fp32", "serve-open": "int4"}
#: Models trained on the first run in a checkout: every gated workload's.
GATED_SCHEMES = ("fp32", "int4")
#: Output spike density each layer of ``simulate-sparse`` is calibrated
#: to, conv1_1 to fc2. Every routing decision sits away from its break
#: point: conv1_2, conv2_1 and conv3_1 see inputs above the runtime's 5 %
#: event-dispatch threshold (conv2_1 and conv3_1 behind OR-pooling) and
#: stay dense; conv2_2, conv3_2 and conv3_3 see about 3 % and take the
#: event kernels. The FC layers sit at 8 % so the population code rarely
#: goes silent.
TARGET_DENSITY = (0.08, 0.08, 0.03, 0.04, 0.03, 0.03, 0.05, 0.08, 0.08)


def workspace_dir(root: str) -> str:
    """Trained models and temp files of the benchmark (git-ignored)."""
    return os.path.join(root, ".bench_build", "perfbench")


def context(root: str):
    from repro.experiments.context import ExperimentContext

    return ExperimentContext(SCALE, workspace=workspace_dir(root), seed=0)


def model_path(ctx, scheme: str) -> str:
    return ctx.model_path(ctx.model_key(DATASET, scheme, CODING))


def prepare_models(ctx, schemes) -> None:
    """Train (first run in a checkout) and plan every model ``schemes`` names.

    ``ExperimentContext.trained`` caches the model and writes its plan
    sidecar; later processes only load them.
    """
    for scheme in schemes:
        ctx.trained(DATASET, scheme, CODING)


def rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per input kind, all driven by ``seed``."""
    return np.random.default_rng([int(seed), stream])


def split_order(seed: int, count: int) -> np.ndarray:
    """The order the test split is presented in."""
    return rng(seed, 1).permutation(count)


def stream_offset(seed: int) -> int:
    """``serve-open``'s counter-stream index of the first sample presented;
    the sample at position ``i`` rides stream ``offset + i``."""
    return int(rng(seed, 2).integers(0, 1 << 20))


def scale_factors(ctx) -> List[float]:
    """Per-layer weight/bias factors that put ``simulate-sparse`` in the
    sparse regime, calibrated once per checkout and cached.

    Scaling a layer's weights and bias by ``s`` scales its current by
    ``s``, which is the same as running that one layer at threshold
    ``theta / s``. Layer by layer, from the input, the current is
    computed on the whole training split (upstream layers already
    scaled) and the threshold that gives the layer's target density is
    found by bisection on a replay of the LIF recurrence. A network-wide
    threshold cannot do this: the layers need factors between about 0.2
    and 1.4. Calibrating on the whole split, not a seed-chosen batch,
    keeps the workload the same for every seed, so its accuracy,
    sparsity and simulated cost repeat exactly.
    """
    model = ctx.trained(DATASET, SCHEMES["simulate-sparse"], CODING)
    cache = model_path(ctx, SCHEMES["simulate-sparse"])[: -len(".npz")] + ".scales.json"
    key = {"weights_digest": model.weights_digest(), "targets": list(TARGET_DENSITY)}
    if os.path.exists(cache):
        with open(cache) as handle:
            cached = json.load(handle)
        if cached.get("key") == key:
            return cached["factors"]
    train, _test = ctx.dataset(DATASET)
    timesteps = ctx.timesteps_for(CODING)
    beta, theta = model.lif.beta, model.lif.threshold
    originals = [(layer.weight_q, layer.bias_q) for layer in model.layers]
    factors: List[float] = []
    try:
        for index, (layer, target) in enumerate(zip(model.layers, TARGET_DENSITY)):
            current = np.concatenate([
                _layer_currents(model, layer, train.images[start : start + 256], timesteps)
                for start in range(0, len(train.images), 256)
            ], axis=1)
            lo, hi = math.log(theta) - 3.0, math.log(theta) + 6.0
            for _ in range(30):
                mid = 0.5 * (lo + hi)
                if _lif_density(current, beta, math.exp(mid)) > target:
                    lo = mid
                else:
                    hi = mid
            factors.append(theta / math.exp(0.5 * (lo + hi)))
            scale_layers(model, factors[-1:], first=index)
    finally:
        for layer, (weight, bias) in zip(model.layers, originals):
            layer.weight_q, layer.bias_q = weight, bias
        model.invalidate_runtime_cache()
    with open(cache, "w") as handle:
        json.dump({"key": key, "factors": factors}, handle)
    return factors


def _layer_currents(model, layer, images: np.ndarray, timesteps: int) -> np.ndarray:
    """``layer``'s ``(T, N, ...)`` input current on ``images``."""
    trains = model.forward(images, timesteps, record=True).spike_trains[layer.name]
    return np.stack([model._layer_current(layer, x) for x in trains])


def _lif_density(current: np.ndarray, beta: float, threshold: float) -> float:
    """Spike density of reset-by-subtraction LIF over ``(T, ...)`` currents."""
    membrane = np.zeros_like(current[0])
    spikes = 0
    for step in current:
        membrane = beta * membrane + step
        fired = membrane > threshold
        spikes += int(fired.sum())
        membrane = membrane - fired * np.float32(threshold)
    return spikes / current.size


def scale_layers(model, factors: List[float], first: int = 0) -> None:
    """Scale layers ``first, first + 1, ...`` by ``factors``, in place."""
    for layer, factor in zip(model.layers[first:], factors):
        scale = np.float32(factor)
        layer.weight_q = (layer.weight_q * scale).astype(np.float32)
        layer.bias_q = (layer.bias_q * scale).astype(np.float32)
    model.invalidate_runtime_cache()


def file_digest(path: str) -> Optional[str]:
    if not os.path.exists(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _blas_threads() -> Optional[int]:
    """Threads the OpenBLAS numpy loaded will use, read through its C API."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            libs = sorted({
                line.split()[-1] for line in handle
                if "openblas" in line and ".so" in line
            })
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment(root: str) -> Dict[str, object]:
    """Machine and software facts every result is recorded with."""
    import scipy

    from repro.parallel.config import resolve_workers, service_start_method

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # checkouts without .git
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "default_workers": resolve_workers(),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pool_start_method": service_start_method(),
        "platform": sys.platform,
    }
