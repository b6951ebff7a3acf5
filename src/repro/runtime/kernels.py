"""Dense and event-driven layer kernels used by the inference engine.

Both kernels compute the same layer current and are bit-identical on
binary spike inputs, so the density dispatcher can switch freely:

* the **dense** kernel gathers im2col columns with the plan's cached
  index vector and issues one BLAS matmul for the whole fused batch;
* the **event** kernel extracts active spike coordinates, expands them
  into (im2col-row, output-position) contributions through the plan's
  inverse tap tables, and scatter-accumulates the corresponding weight
  columns -- the software twin of the ECU + accumulation pipeline.

Bit-exactness of the event path rests on the accumulation order: when
BLAS folds each output element over ``k`` in ascending order with a
single accumulator, skipping the zero terms of a binary input cannot
change a float32 partial sum (beyond the sign of an exact zero), and the
scatter preserves that order -- it is one scipy CSR product, whose rows
store ascending column indices. Which fold a GEMM uses, however, depends
on the BLAS kernel selected for the layer's shape (large-``k`` and
FC-shaped GEMMs may split ``k`` over several accumulator lanes). The
runtime therefore *calibrates* each conv layer shape once per process --
:func:`calibrate_fold_exact` probes the scatter kernel against the dense
kernel on random binary inputs -- and the dispatcher only ever routes
layers to the event path after their shape has proven bit-identical in
this environment.

Deep conv shapes (``K >= ~500`` in this environment) fail that unblocked
probe: their full-``K`` GEMM folds multi-lane. For them the runtime
switches both kernels to a **canonical blocked k-fold**: the im2col
reduction is split into fixed-size k-blocks, each block is reduced on
its own (a small block GEMM on the dense side, a per-block scatter on
the event side), and the per-block partial sums are folded in the same
ascending block order by both kernels. Bit-exactness then only requires
the *within-block* GEMM to fold single-lane, which holds for small
enough blocks; :func:`resolve_event_block` probes candidate block sizes
largest-first and picks the biggest one that proves exact, so the
event path stays open at any depth -- the software twin of the blocked
event-accumulation pipelines in sparse-SNN accelerators (Sommer et al.,
ExSpike). FC layers always take the dense path: their single small GEMM
is negligible host cost and their BLAS shape is the multi-lane one.

Quantized conv layers also have an **integer datapath**, and it reuses
the same two accumulations rather than a kernel family of its own: the
unfold+GEMM and the event scatter run on the layer's integer-valued
float32 weights (``LayerPlan.wq`` / ``wqT``) and a single boundary
dequantization turns the accumulator into the layer current. The engine
only routes a layer here when every output channel's L1 norm
``sum_k |wq|`` is at most 2^24. With 0/1 inputs every partial sum is
then an integer float32 represents exactly, so any BLAS or scatter fold
order yields the same bits as an int32 accumulator would -- no blocked
fold, no calibration, and BLAS speed at any depth.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from scipy import sparse

from repro.runtime.plan import BlockTables, LayerPlan
from repro.utils.rng import new_rng


class BufferPool:
    """Reusable scratch arrays keyed by (tag, shape); one per network."""

    def __init__(self) -> None:
        self._buffers: Dict[Tuple, np.ndarray] = {}

    def get(self, tag: str, shape: Tuple[int, ...], dtype=np.float32) -> np.ndarray:
        key = (tag, shape, np.dtype(dtype).str)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[key] = buffer
        return buffer

    def clear(self) -> None:
        self._buffers.clear()


# ---------------------------------------------------------------------------
# Dense (time-fused) path
# ---------------------------------------------------------------------------

def _unfold_matmul(
    layer: LayerPlan,
    x: np.ndarray,
    wmat: np.ndarray,
    buffers: Optional[BufferPool],
    max_elements: int,
    tables: Optional[BlockTables] = None,
) -> np.ndarray:
    """Bias-free unfold+GEMM accumulation of ``wmat`` over a binary or
    analog (B, Cin, H, W) batch; returns (B, Cout, OH, OW) float32.

    With ``tables`` the ``k`` reduction runs as the canonical blocked
    fold over their weight slices instead of one full-``K`` GEMM.
    """
    g = layer.geometry
    batch = x.shape[0]
    kernel = g.kernel
    out = np.empty((batch, wmat.shape[0], g.p), dtype=np.float32)
    chunk = max(1, min(batch, max_elements // max(1, g.k * g.p)))
    for start in range(0, batch, chunk):
        stop = min(batch, start + chunk)
        xc = x[start:stop]
        if g.padding:
            p = g.padding
            xc = np.pad(xc, ((0, 0), (0, 0), (p, p), (p, p)))
        windows = np.lib.stride_tricks.sliding_window_view(
            xc, (kernel, kernel), axis=(2, 3)
        )  # (b, Cin, OH, OW, K, K)
        if buffers is not None:
            cols = buffers.get("cols", (stop - start, g.k, g.p))
        else:
            cols = np.empty((stop - start, g.k, g.p), dtype=np.float32)
        np.copyto(
            cols.reshape(stop - start, g.cin, kernel, kernel, g.oh, g.ow),
            windows.transpose(0, 1, 4, 5, 2, 3),
        )
        out_chunk = out[start:stop]
        if tables is None or tables.nblocks == 1:
            np.matmul(wmat, cols, out=out_chunk)
        else:
            if buffers is not None:
                partial = buffers.get("kpartial", out_chunk.shape)
            else:
                partial = np.empty(out_chunk.shape, dtype=np.float32)
            edges = tables.edges
            np.matmul(
                tables.wmat_blocks[0], cols[:, edges[0]:edges[1], :],
                out=out_chunk,
            )
            for i in range(1, tables.nblocks):
                np.matmul(
                    tables.wmat_blocks[i], cols[:, edges[i]:edges[i + 1], :],
                    out=partial,
                )
                np.add(out_chunk, partial, out=out_chunk)
    return out.reshape(batch, wmat.shape[0], g.oh, g.ow)


def dense_conv(
    layer: LayerPlan,
    x: np.ndarray,
    buffers: Optional[BufferPool] = None,
    max_elements: int = 1 << 24,
    kblock: Optional[int] = None,
) -> np.ndarray:
    """Unfold-matmul convolution over a fused (B, Cin, H, W) batch.

    The unfold copies sliding windows into the pooled im2col buffer (one
    strided C-level copy, measurably faster than an index gather) and a
    single batched matmul against the plan's cached weight matrix
    produces every output position for the whole fused batch. Batches
    whose im2col buffer would exceed ``max_elements`` are chunked --
    bit-exact either way, since per-sample GEMM results are independent
    of the batch split.

    With ``kblock`` set, the ``k`` reduction runs as the canonical
    blocked fold instead of one full-``K`` GEMM: one block GEMM per
    ``kblock``-sized slice of the im2col rows, partial sums accumulated
    in ascending block order. :func:`event_conv_blocked` folds the same
    partials in the same order, which is what makes the two bit-identical
    at shapes whose full-``K`` fold is multi-lane (see module docs).
    """
    tables = layer.block_tables(kblock) if kblock else None
    out = _unfold_matmul(layer, x, layer.wmat, buffers, max_elements, tables)
    np.add(out, layer.bias.reshape(1, -1, 1, 1), out=out)
    return out


def dense_fc(layer: LayerPlan, x2d: np.ndarray) -> np.ndarray:
    """Fully connected current for a fused (B, Nin) batch."""
    out = x2d @ layer.wmat.T
    np.add(out, layer.bias, out=out)
    return out


# ---------------------------------------------------------------------------
# Event-driven path
# ---------------------------------------------------------------------------

def _scatter_columns(
    rows: np.ndarray,
    cols: np.ndarray,
    weight_rows: np.ndarray,
    n_rows: int,
) -> np.ndarray:
    """Sum ``weight_rows[cols]`` into ``out[rows]`` in ascending-k order."""
    matrix = sparse.csr_matrix(
        (np.ones(rows.size, dtype=np.float32), (rows, cols)),
        shape=(n_rows, weight_rows.shape[0]),
    )
    return matrix @ weight_rows


def _event_contributions(
    layer: LayerPlan, x: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Scatter coordinates of a (B, Cin, H, W) binary batch: the output
    row ``b * P + p`` and im2col row ``k`` of every in-bounds event tap."""
    g = layer.geometry
    b_idx, pix = np.nonzero(x.reshape(x.shape[0], -1))
    valid = g.contrib_valid[pix]
    k_all = g.contrib_k[pix][valid]
    q_all = (b_idx[:, None].astype(np.int64) * g.p + g.contrib_p[pix])[valid]
    return q_all, k_all


def _rows_to_nchw(out2d: np.ndarray, layer: LayerPlan, batch: int) -> np.ndarray:
    """(B * P, Cout) scatter rows -> contiguous (B, Cout, OH, OW)."""
    g = layer.geometry
    cout = out2d.shape[1]
    return np.ascontiguousarray(
        out2d.reshape(batch, g.p, cout).transpose(0, 2, 1)
    ).reshape(batch, cout, g.oh, g.ow)


def _event_scatter(
    layer: LayerPlan, x: np.ndarray, wT: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Bias-free event accumulation of the (K, Cout) rows ``wT``:
    returns the (B, Cout, OH, OW) accumulator and the number of scatter
    contributions (events x in-bounds taps)."""
    batch = x.shape[0]
    q_all, k_all = _event_contributions(layer, x)
    out2d = _scatter_columns(q_all, k_all, wT, batch * layer.geometry.p)
    return _rows_to_nchw(out2d, layer, batch), int(k_all.size)


def event_conv(layer: LayerPlan, x: np.ndarray) -> Tuple[np.ndarray, int]:
    """Event-driven convolution over a (B, Cin, H, W) binary batch.

    Returns the layer current and the number of scatter contributions
    (events x in-bounds taps) actually accumulated.
    """
    current, updates = _event_scatter(layer, x, layer.wT)
    np.add(current, layer.bias.reshape(1, -1, 1, 1), out=current)
    return current, updates


def event_conv_blocked(
    layer: LayerPlan, x: np.ndarray, kblock: int
) -> Tuple[np.ndarray, int]:
    """Blocked event-driven convolution over a (B, Cin, H, W) binary batch.

    The event coordinates are extracted once, sorted by im2col row ``k``
    (stable, so the within-row order is untouched), and partitioned into
    ``kblock``-sized k-ranges with one ``searchsorted`` against the
    plan's precomputed block edges. Each block's contributions are
    scatter-accumulated against that block's contiguous weight slice --
    ascending ``k`` within the block, exactly as :func:`event_conv` does
    for the whole row range -- and the per-block partial sums are folded
    in ascending block order, mirroring the blocked dense fold term for
    term. Blocks that received no events are skipped: their dense-side
    partial is exactly zero, so the fold is unchanged (calibration
    probes sparse inputs and would catch any environment where it is
    not).

    Returns the layer current and the number of scatter contributions,
    exactly like :func:`event_conv`.
    """
    batch = x.shape[0]
    tables = layer.block_tables(kblock)
    n_rows = batch * layer.geometry.p
    q_all, k_all = _event_contributions(layer, x)
    out2d: Optional[np.ndarray] = None
    if k_all.size:
        order = np.argsort(k_all, kind="stable")
        k_sorted = k_all[order]
        q_sorted = q_all[order]
        edges = tables.edges
        splits = np.searchsorted(k_sorted, edges)
        for i in range(tables.nblocks):
            lo, hi = int(splits[i]), int(splits[i + 1])
            if lo == hi:
                continue
            partial = _scatter_columns(
                q_sorted[lo:hi],
                k_sorted[lo:hi] - edges[i],
                tables.wT_blocks[i],
                n_rows,
            )
            if out2d is None:
                out2d = partial
            else:
                np.add(out2d, partial, out=out2d)
    if out2d is None:
        out2d = np.zeros((n_rows, layer.out_channels), dtype=np.float32)
    current = _rows_to_nchw(out2d, layer, batch)
    np.add(current, layer.bias.reshape(1, -1, 1, 1), out=current)
    return current, int(k_all.size)


# ---------------------------------------------------------------------------
# Integer datapath for quantized deployables
# ---------------------------------------------------------------------------

def _dequantize_current(acc: np.ndarray, layer: LayerPlan) -> np.ndarray:
    """Layer-boundary dequantization of a (B, Cout, OH, OW) accumulator.

    ``acc`` holds exact integers in float32 (the engine only routes here
    when ``layer.int_overflow_ok``) and is dequantized in place by the
    documented rounding rule (see :mod:`repro.quant.quantizer`): one
    float32 multiply by the scale, one float32 bias add, IEEE-754
    round-half-to-even at each step.
    """
    scale = layer.wq_scale
    if scale.ndim == 0:
        np.multiply(acc, scale, out=acc)
    else:
        np.multiply(acc, scale.reshape(1, -1, 1, 1), out=acc)
    np.add(acc, layer.bias.reshape(1, -1, 1, 1), out=acc)
    return acc


def event_conv_int(layer: LayerPlan, x: np.ndarray) -> Tuple[np.ndarray, int]:
    """Event-driven convolution on the integer datapath.

    Same contract as :func:`event_conv` -- (current, updates) -- but the
    scatter accumulates the layer's integer-valued weight rows and the
    float current is produced by a single boundary dequantization. This
    is the software twin of the paper's integer datapath: binary spikes
    select quantized weight columns, the accumulator holds integers, and
    the shift-and-add de-quantizer runs once per output element. Always
    unblocked: under the overflow bound every fold order is exact.
    """
    acc, updates = _event_scatter(layer, x, layer.wqT)
    return _dequantize_current(acc, layer), updates


def dense_conv_int(
    layer: LayerPlan,
    x: np.ndarray,
    buffers: Optional[BufferPool] = None,
    max_elements: int = 1 << 24,
) -> np.ndarray:
    """Unfold-matmul convolution on the integer datapath.

    One BLAS GEMM over the integer-valued weights, then the boundary
    dequantization. Under the overflow bound every partial sum is an
    exact integer, so the result equals :func:`event_conv_int` bit for
    bit at any depth, without a blocked fold.
    """
    acc = _unfold_matmul(layer, x, layer.wq, buffers, max_elements)
    return _dequantize_current(acc, layer)


def _probes_agree(
    layer: LayerPlan, reference: Callable, *candidates: Callable
) -> bool:
    """True when every kernel in ``candidates`` reproduces ``reference``
    bit-for-bit on the calibration probes.

    The probes are fixed: batch-2 random binary inputs at densities
    0.02, 0.1 and 0.3 drawn in that order from one seeded stream, so
    every calibration in every process compares on the same inputs. A
    multi-lane BLAS fold differing from the scatter kernel's sequential
    ascending-``k`` fold produces last-ulp mismatches on essentially
    every random probe, so a handful of probes across densities
    separates the two regimes decisively.
    """
    g = layer.geometry
    rng = new_rng(0xC0FFEE)
    for density in (0.02, 0.1, 0.3):
        probe = (
            rng.random((2, g.cin, g.height, g.width)) < density
        ).astype(np.float32)
        want = reference(probe)
        for kernel in candidates:
            if not np.array_equal(kernel(probe), want):
                return False
    return True


def calibrate_int_exact(layer: LayerPlan, block: Optional[int] = None) -> bool:
    """True when the integer path reproduces the float path bit-for-bit.

    The reference is what the engine would otherwise compute for these
    steps: the float dense fold at the layer's calibrated ``block``
    (which the float event kernel is already calibrated identical to).
    Both integer flavours are probed -- they share one exact accumulator,
    so a mismatch between them would indicate a kernel bug rather than a
    fold-order effect. The verdict depends on the weight values (through
    the scales), so it is cached per layer -- keyed by block -- not in
    the per-shape fold cache; sidecars persist it and loaders seed it
    through :func:`seed_int_exact`, live-wins.

    Power-of-two scales (``QuantScheme.pow2_scale``) pass by
    construction: the dequantized weights and every float32 partial sum
    are exactly representable, making all fold orders agree. Arbitrary
    scales essentially always fail -- the probe is what keeps the 'auto'
    integer path exactness-preserving rather than hopeful.
    """
    if not layer.has_int_lowering or layer.geometry is None:
        return False
    if not layer.int_overflow_ok:
        return False
    key = int(block or 0)
    cached = layer._int_exact.get(key)
    if cached is not None:
        return cached
    exact = _probes_agree(
        layer,
        lambda x: dense_conv(layer, x, kblock=key or None),
        lambda x: event_conv_int(layer, x)[0],
        lambda x: dense_conv_int(layer, x),
    )
    layer._int_exact[key] = exact
    return exact


def seed_int_exact(layer: LayerPlan, block: Optional[int], exact: bool) -> None:
    """Pre-populate a layer's integer-exactness verdict (sidecar fast
    path). Live-wins: a verdict probed in this process is never
    overwritten by a loaded one."""
    layer._int_exact.setdefault(int(block or 0), bool(exact))


#: Candidate k-block sizes probed largest-first by the auto resolution.
#: In practice the within-block GEMM stays single-lane up to a few
#: hundred k rows on common BLAS builds, so the largest candidates keep
#: the per-block overhead lowest while the small ones are the safety net.
KBLOCK_CANDIDATES = (512, 256, 128, 64, 32)

# (shape key, block) -> the event and dense kernels proved bit-identical
# at that fold (block 0 = unblocked).
_FOLD_EXACT_CACHE: Dict[Tuple, bool] = {}  # repro: lint-ok[P102] per-process memo of a pure predicate; same key gives same value in every process
# shape key -> auto-resolved block (0 = unblocked exact, >0 = blocked
# with that size, None = no exact configuration; dense fallback).
_BLOCK_CHOICE_CACHE: Dict[Tuple, Optional[int]] = {}  # repro: lint-ok[P102] per-process memo of a pure choice function; same key gives same value in every process

_UNRESOLVED = object()  # distinguishes "never probed" from "probed: None"


def calibration_key(layer: LayerPlan) -> Tuple:
    """Process-wide calibration-cache key for a conv layer shape."""
    g = layer.geometry
    return (
        g.cin, g.height, g.width, g.kernel, g.padding, layer.out_channels,
    )


def calibrate_fold_exact(layer: LayerPlan, block: int = 0) -> bool:
    """True when the event and dense kernels are bit-identical for this
    layer's shape at fold ``block`` in the current environment.

    ``block == 0`` compares the unblocked kernels (:func:`event_conv`
    against the full-``K`` GEMM). ``block > 0`` compares the two blocked
    kernels *at that block size* -- the canonical blocked fold is the
    reference, not the unblocked GEMM (at deep shapes those differ in
    the last ulp by construction, which is the whole reason the blocked
    fold exists); a block too large for this environment's BLAS to fold
    single-lane fails exactly like the unblocked probe at deep shapes.
    The verdict depends only on the layer shape (not the weight values)
    and is cached process-wide per ``(shape, block)``.
    """
    block = int(block)
    key = (calibration_key(layer), block)
    cached = _FOLD_EXACT_CACHE.get(key)
    if cached is not None:
        return cached
    exact = _probes_agree(
        layer,
        lambda x: dense_conv(layer, x, kblock=block or None),
        lambda x: (
            event_conv_blocked(layer, x, block) if block else event_conv(layer, x)
        )[0],
    )
    _FOLD_EXACT_CACHE[key] = exact
    return exact


def resolve_event_block(
    layer: LayerPlan, kblock: Optional[int] = None
) -> Optional[int]:
    """The layer's calibrated event-path configuration.

    Returns ``0`` when the plain (unblocked) event path is bit-exact,
    a block size ``B > 0`` when only the blocked fold is, and ``None``
    when no probed configuration is exact (the layer stays on the dense
    fallback). ``kblock`` mirrors ``RuntimeConfig.event_kblock``:

    * ``None`` (auto) -- prefer the unblocked path, else the largest
      exact :data:`KBLOCK_CANDIDATES` entry;
    * ``0`` -- blocking disabled: unblocked-or-dense (pre-blocking
      behaviour);
    * ``B > 0`` -- force block size ``B`` (still subject to the
      exactness probe; an inexact forced block falls back like auto
      would at that single candidate, and a block spanning all of
      ``k`` is the unblocked fold).
    """
    if layer.kind != "conv" or layer.geometry is None:
        return None
    k = int(layer.geometry.k)
    if kblock is not None:
        block = kblock if kblock < k else 0
        return block if calibrate_fold_exact(layer, block) else None
    key = calibration_key(layer)
    choice = _BLOCK_CHOICE_CACHE.get(key, _UNRESOLVED)
    if choice is not _UNRESOLVED:
        return choice
    choice = None
    for candidate in (0,) + KBLOCK_CANDIDATES:
        if candidate < k and calibrate_fold_exact(layer, candidate):
            choice = candidate
            break
    _BLOCK_CHOICE_CACHE[key] = choice
    return choice


def seed_block_resolution(key: Tuple, block: Optional[int]) -> None:
    """Pre-populate the auto block choice (plan persistence fast path).

    The auto resolution is ``0`` exactly when the unblocked probe passed,
    so the choice also seeds the unblocked verdict (``block == 0``), and
    a positive block seeds its (shape, block) exactness verdict: a cold
    worker runs zero probe GEMMs for shapes its sidecar settled. Live
    wins: a verdict or resolution already probed in this process is never
    overwritten, so a stale sidecar can never *upgrade* a shape to the
    event path that the current environment has disproven.
    """
    key = tuple(key)
    _FOLD_EXACT_CACHE.setdefault((key, 0), block == 0)
    if key not in _BLOCK_CHOICE_CACHE:
        _BLOCK_CHOICE_CACHE[key] = None if block is None else int(block)
        if block:
            _FOLD_EXACT_CACHE.setdefault((key, int(block)), True)


# ---------------------------------------------------------------------------
# Spike-domain helpers
# ---------------------------------------------------------------------------

def or_pool(x: np.ndarray, window: int) -> np.ndarray:
    """OR-gate max pooling on a (B, C, H, W) binary batch (Sec. IV-B).

    Folds the window via strided ``np.maximum`` passes, which is an
    order of magnitude faster than a reshape + multi-axis ``max`` and
    exactly equal (max involves no rounding).
    """
    out = np.ascontiguousarray(x[:, :, ::window, ::window])
    for i in range(window):
        for j in range(window):
            if i == 0 and j == 0:
                continue
            np.maximum(out, x[:, :, i::window, j::window], out=out)
    return out
