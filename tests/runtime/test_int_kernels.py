"""Integer datapath: exact integer accumulation, probes and dispatch.

Quantized deployables historically dequantized to float32 and ran the
float kernels -- the "int8" runtime was float inference in disguise.
These tests pin the actual integer lowering: the int kernels' exactness
against an int64 reference fold (under the overflow bound every partial
sum is an exact integer, so dense and event int always agree), the
bit-exactness probe that decides whether the integer path may replace
float under ``int_kernels='auto'``, the overflow bound that gates every
integer dispatch, and the per-layer counter attribution of every
int/float decision.
"""

import dataclasses

import numpy as np
import pytest

from repro.quant import INT8_P2, INT_ACCUMULATION_LIMIT, convert, quantize_array
from repro.quant.schemes import scheme_by_name
from repro.runtime import (
    InferenceEngine,
    LayerCounters,
    attach_int_lowering,
    calibrate_int_exact,
    dense_conv_int,
    event_conv_int,
    runtime_overrides,
)
from repro.runtime.kernels import dense_conv
from repro.runtime.refshapes import (
    make_conv_layer_plan,
    make_conv_network_plan,
)
from repro.snn import build_network
from repro.snn.encoding import RateEncoder


def binary_batch(shape, density, seed=7, batch=3):
    rng = np.random.default_rng(seed)
    return (rng.random((batch,) + tuple(shape)) < density).astype(np.float32)


def make_int_layer(cin, h, w, cout, seed=0, pow2=True):
    """A conv LayerPlan whose wmat is the exact dequantization of an
    attached int8 lowering (the invariant ``plan_deployable`` upholds
    for quantized models)."""
    layer = make_conv_layer_plan(cin, h, w, cout, seed=seed)
    scheme = INT8_P2 if pow2 else scheme_by_name("int8")
    q, scale = quantize_array(layer.wmat, scheme)
    wmat = (q.astype(np.float32) * scale.reshape(-1, 1)).astype(np.float32)
    layer.wmat = wmat
    layer.wT = np.ascontiguousarray(wmat.T)
    attach_int_lowering(layer, q, scale)
    return layer


def lowered_layer(cin, h, w, cout, qmax, seed=0):
    """A conv plan carrying a lowering of uniform integers in
    [-qmax, qmax] with per-channel scales (qmax > 127 is int16-wide)."""
    layer = make_conv_layer_plan(cin, h, w, cout, seed=seed)
    rng = np.random.default_rng(seed)
    q = rng.integers(-qmax, qmax + 1, size=(cout, layer.geometry.k))
    scale = rng.uniform(1e-3, 1e-2, cout).astype(np.float32)
    attach_int_lowering(layer, q, scale)
    return layer


def int64_oracle(layer, x):
    """Reference integer fold: im2col through the plan geometry, an
    int64 matmul of the quantized weights, then the documented
    dequantization (one float32 scale multiply, one bias add)."""
    g = layer.geometry
    pad = g.padding
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(
        xp, (g.kernel, g.kernel), axis=(2, 3)
    )
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(x.shape[0], g.k, g.p)
    acc = layer.wq.astype(np.int64) @ cols.astype(np.int64)
    current = acc.astype(np.float32).reshape(x.shape[0], -1, g.oh, g.ow)
    scale = layer.wq_scale.reshape((1, -1, 1, 1) if layer.wq_scale.ndim else ())
    return current * scale + layer.bias.reshape(1, -1, 1, 1)


class TestIntKernels:
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.3])
    def test_int_dense_equals_int_event_always(self, density):
        """Integer addition is associative: the two int flavours agree
        bit-for-bit at every density, pow2 scales or not."""
        for pow2 in (True, False):
            layer = make_int_layer(8, 6, 6, 12, seed=3, pow2=pow2)
            x = binary_batch((8, 6, 6), density, seed=5)
            dense = dense_conv_int(layer, x)
            event, updates = event_conv_int(layer, x)
            assert np.array_equal(dense, event)
            assert updates >= 0

    @pytest.mark.parametrize("cin", [3, 64, 256])  # K = 27, 576, 2304
    @pytest.mark.parametrize("qmax", [127, 32767])  # int8 / int16 widths
    def test_kernels_match_int64_oracle(self, cin, qmax):
        """Both int flavours equal the int64 reference fold byte for
        byte, up to paper depth, at every density."""
        k = cin * 9
        qmax = min(qmax, INT_ACCUMULATION_LIMIT // k)
        layer = lowered_layer(cin, 4, 4, 16, qmax, seed=cin)
        assert layer.geometry.k == k
        assert layer.int_overflow_ok
        for density in (0.02, 0.3, 1.0):
            x = binary_batch((cin, 4, 4), density, seed=cin, batch=2)
            want = int64_oracle(layer, x).tobytes()
            assert dense_conv_int(layer, x).tobytes() == want
            event, _ = event_conv_int(layer, x)
            assert event.tobytes() == want

    def test_pow2_layer_matches_float_bit_exactly(self):
        layer = make_int_layer(8, 6, 6, 12, seed=4, pow2=True)
        x = binary_batch((8, 6, 6), 0.1, seed=6)
        want = dense_conv(layer, x)
        assert np.array_equal(dense_conv_int(layer, x), want)
        got, _ = event_conv_int(layer, x)
        assert np.array_equal(got, want)

    def test_pow2_layer_probes_exact(self):
        layer = make_int_layer(8, 6, 6, 12, seed=7, pow2=True)
        assert calibrate_int_exact(layer) is True

    def test_arbitrary_scales_fail_the_probe(self):
        """max|w|/qmax scales produce inexact dequantized weights; the
        probe must catch the drift so 'auto' never serves different
        numbers than float."""
        layer = make_int_layer(8, 6, 6, 12, seed=8, pow2=False)
        assert calibrate_int_exact(layer) is False

    def test_no_lowering_means_no_verdict(self):
        layer = make_conv_layer_plan(8, 6, 6, 12, seed=9)
        assert not layer.has_int_lowering
        assert calibrate_int_exact(layer) is False

    def test_deep_shape_probes_exact_at_k2304(self):
        """The deepest VGG9 geometry (K = 256*3*3 = 2304): worst-case
        |acc| = 127 * 2304 < 2^24, so the pow2 integer path stays exact
        at full paper depth."""
        layer = make_int_layer(256, 4, 4, 16, seed=10, pow2=True)
        assert layer.int_bound <= 127 * 2304
        assert layer.int_overflow_ok
        assert calibrate_int_exact(layer) is True


class TestOverflowGate:
    def _overflowing_layer(self):
        """An int16 lowering whose worst-case accumulator exceeds 2^24
        (576 taps * 32767 > 2^24): the bound check must refuse it."""
        layer = make_conv_layer_plan(64, 4, 4, 8, seed=11)
        q = np.full((8, layer.geometry.k), 32767, dtype=np.int32)
        attach_int_lowering(layer, q, np.float32(2.0**-20))
        return layer

    def _limit_layer(self, excess):
        """Two opposite channels whose L1 norm is exactly
        ``INT_ACCUMULATION_LIMIT + excess``."""
        layer = make_conv_layer_plan(64, 4, 4, 2, seed=21)
        layer.bias = np.zeros(2, dtype=np.float32)
        k = layer.geometry.k
        q = np.full((2, k), INT_ACCUMULATION_LIMIT // k, dtype=np.int64)
        q[0, : INT_ACCUMULATION_LIMIT - int(q[0].sum()) + excess] += 1
        q[1] = -q[0]
        attach_int_lowering(layer, q, np.float32(1.0))
        assert layer.int_bound == INT_ACCUMULATION_LIMIT + excess
        return layer

    def test_channel_l1_at_limit_is_exact(self):
        """All inputs active: the centre outputs accumulate the whole
        channel, reaching exactly 2^24, and every fold stays exact."""
        layer = self._limit_layer(0)
        assert layer.int_overflow_ok
        x = np.ones((1, 64, 4, 4), dtype=np.float32)
        want = int64_oracle(layer, x)
        assert want[0, 0, 1, 1] == INT_ACCUMULATION_LIMIT
        assert want[0, 1, 1, 1] == -INT_ACCUMULATION_LIMIT
        assert dense_conv_int(layer, x).tobytes() == want.tobytes()
        event, _ = event_conv_int(layer, x)
        assert event.tobytes() == want.tobytes()

    def test_channel_l1_past_limit_is_refused(self):
        layer = self._limit_layer(1)
        assert not layer.int_overflow_ok
        assert calibrate_int_exact(layer) is False

    def test_bound_exceeds_limit(self):
        layer = self._overflowing_layer()
        # Stored as integer-valued float32, the kernels' operand dtype.
        assert layer.wq.dtype == np.float32
        assert np.array_equal(layer.wq, np.full_like(layer.wq, 32767))
        assert layer.int_bound > INT_ACCUMULATION_LIMIT
        assert not layer.int_overflow_ok

    def test_probe_refuses_overflowing_layer(self):
        assert calibrate_int_exact(self._overflowing_layer()) is False

    def test_engine_attributes_overflow_fallback(self):
        """Even under forced integer mode the engine must keep an
        overflow-risky layer on float -- and say so in the counters."""
        plan = make_conv_network_plan(64, 4, 4, 8, seed=11)
        conv = plan.layers[0]
        q = np.full((8, conv.geometry.k), 32767, dtype=np.int32)
        attach_int_lowering(conv, q, np.float32(2.0**-20))
        spikes = binary_batch((64, 4, 4), 0.02, seed=12, batch=2)
        with runtime_overrides(int_kernels="on", dispatch_policy="density"):
            out = InferenceEngine(plan).run(spikes)
        counters = out.counters[conv.name]
        assert counters.int_dense_steps == 0
        assert counters.int_event_steps == 0
        assert counters.float_overflow_steps > 0


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def int_model(self):
        net = build_network(
            "8C3-MP2-16C3-MP2-40",
            input_shape=(3, 8, 8),
            num_classes=10,
            seed=77,
        )
        net.eval()
        return convert(net, INT8_P2)

    @pytest.fixture(scope="class")
    def arb_model(self):
        net = build_network(
            "8C3-MP2-16C3-MP2-40",
            input_shape=(3, 8, 8),
            num_classes=10,
            seed=77,
        )
        net.eval()
        return convert(net, scheme_by_name("int8"))

    @pytest.fixture(scope="class")
    def images(self):
        rng = np.random.default_rng(13)
        # Faint images -> sparse rate-coded trains -> event-eligible
        # steps under the density policy.
        return (rng.random((4, 3, 8, 8)) * 0.1).astype(np.float32)

    def test_auto_int_path_is_bit_exact_and_attributed(
        self, int_model, images
    ):
        """The headline fix: an int8(p2) deployable actually executes
        integer event steps, and its logits still match the float path
        bit for bit."""
        encoder = RateEncoder(seed=0)
        with runtime_overrides(int_kernels="off"):
            want = int_model.forward(images, 6, encoder)
        with runtime_overrides(
            int_kernels="auto",
            dispatch_policy="density",
            dispatch_threshold=0.25,
        ):
            got = int_model.forward(images, 6, encoder)
        assert np.array_equal(got.logits, want.logits)
        int_events = sum(
            c.int_event_steps for c in got.runtime_counters.values()
        )
        int_updates = sum(
            c.int_event_updates for c in got.runtime_counters.values()
        )
        assert int_events > 0
        assert int_updates > 0

    def test_arbitrary_scales_fall_back_to_float_with_attribution(
        self, arb_model, images
    ):
        """Auto mode on non-pow2 int8: the probe fails, every step runs
        float, and the counters attribute the reason."""
        encoder = RateEncoder(seed=0)
        with runtime_overrides(int_kernels="off"):
            want = arb_model.forward(images, 4, encoder)
        with runtime_overrides(
            int_kernels="auto",
            dispatch_policy="density",
            dispatch_threshold=0.25,
        ):
            got = arb_model.forward(images, 4, encoder)
        assert np.array_equal(got.logits, want.logits)
        counters = got.runtime_counters
        assert sum(c.int_event_steps for c in counters.values()) == 0
        assert sum(c.int_dense_steps for c in counters.values()) == 0
        assert sum(c.float_exactness_steps for c in counters.values()) > 0

    @pytest.mark.parametrize("policy", ["cost", "density"])
    def test_auto_runs_both_flavours_without_cost_arbitration(
        self, int_model, policy
    ):
        """Under 'auto' a layer whose bound and probe pass runs int for
        dense and event steps alike, whatever the dispatch policy."""
        images = np.random.default_rng(14).random((4, 3, 8, 8))
        images = images.astype(np.float32)
        encoder = RateEncoder(seed=0)
        with runtime_overrides(int_kernels="off"):
            want = int_model.forward(images, 4, encoder)
        with runtime_overrides(
            int_kernels="auto",
            dispatch_policy=policy,
            dispatch_threshold=0.25,
        ):
            got = int_model.forward(images, 4, encoder)
        assert np.array_equal(got.logits, want.logits)
        counters = got.runtime_counters.values()
        assert sum(c.int_dense_steps for c in counters) > 0
        assert all(
            c.float_exactness_steps == c.float_overflow_steps == 0
            for c in counters
        )

    def test_off_mode_never_runs_int(self, int_model, images):
        with runtime_overrides(int_kernels="off", dispatch_policy="density"):
            out = int_model.forward(images, 4, RateEncoder(seed=0))
        counters = out.runtime_counters
        assert sum(c.int_event_steps for c in counters.values()) == 0
        assert sum(c.int_dense_steps for c in counters.values()) == 0

    def test_forced_int_is_deterministic_across_paths(
        self, arb_model, images
    ):
        """int_kernels='on' forces the integer path even where it
        differs from float -- but integer associativity makes the result
        identical at every dispatch split (dense vs event vs routed)."""
        encoder = RateEncoder(seed=0)
        outs = []
        for overrides in (
            dict(int_kernels="on", force_path="dense"),
            dict(int_kernels="on", force_path="event"),
            dict(int_kernels="on", dispatch_policy="density"),
        ):
            with runtime_overrides(**overrides):
                outs.append(arb_model.forward(images, 4, encoder))
        for other in outs[1:]:
            assert np.array_equal(outs[0].logits, other.logits)
        forced = outs[1].runtime_counters
        assert sum(c.int_event_steps for c in forced.values()) > 0

    def test_forced_int_batch_split_invariance(self, arb_model, images):
        """Shard-merge determinism survives on the integer path: half
        batches concatenate to the full-batch logits exactly."""
        encoder = RateEncoder(seed=0)
        with runtime_overrides(int_kernels="on", dispatch_policy="density"):
            whole = arb_model.forward(images, 4, encoder).logits
            lo = arb_model.forward(images[:2], 4, encoder).logits
            hi = arb_model.forward(
                images[2:], 4, encoder.for_samples(2)
            ).logits
        assert np.array_equal(whole, np.concatenate([lo, hi]))


class TestCounters:
    def test_fallback_reasons_map_to_fields(self):
        c = LayerCounters()
        c.count_float_fallback("exactness", 2)
        c.count_float_fallback("overflow")
        assert c.float_exactness_steps == 2
        assert c.float_overflow_steps == 1

    def test_unknown_reason_rejected(self):
        # 'cost' included: no cost arbitration of the int path remains.
        for reason in ("vibes", "cost"):
            with pytest.raises(ValueError):
                LayerCounters().count_float_fallback(reason)

    def test_as_dict_and_merge_carry_int_fields(self):
        a = LayerCounters()
        a.int_dense_steps = 1
        a.int_event_steps = 2
        a.int_event_updates = 30
        a.float_overflow_steps = 1
        b = LayerCounters()
        b.int_event_steps = 3
        b.float_exactness_steps = 4
        a.merge(b)
        d = a.as_dict()
        assert d["int_dense_steps"] == 1
        assert d["int_event_steps"] == 5
        assert d["int_event_updates"] == 30
        assert d["float_overflow_steps"] == 1
        assert d["float_exactness_steps"] == 4
        # Every dataclass field, not just the int ones, is carried.
        names = [f.name for f in dataclasses.fields(LayerCounters)]
        a = LayerCounters(**{n: i + 1 for i, n in enumerate(names)})
        a.merge(LayerCounters(**{n: 10 * (i + 1) for i, n in enumerate(names)}))
        assert a.as_dict() == {n: 11 * (i + 1) for i, n in enumerate(names)}
