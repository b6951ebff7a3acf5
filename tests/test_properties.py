"""System-level property-based tests (hypothesis).

These encode invariants that must hold for any input, not just the
examples the unit tests pick: LIF conservation laws, OR-pool semantics,
conv/event-driven duality, compression accounting.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.compression import compress_exact
from repro.hw.event_sim import EventDrivenLayerSim, reference_conv
from repro.snn.neuron import LIFConfig, LIFNeuron
from repro.tensor import Tensor
from reference_forward import or_pool


@st.composite
def spike_maps(draw, max_channels=3, max_size=6):
    channels = draw(st.integers(1, max_channels))
    size = draw(st.integers(3, max_size))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return (rng.random((channels, size, size)) < density).astype(np.float32)


class TestLIFInvariants:
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.1, 2.0),
        st.lists(st.floats(-2.0, 2.0, width=32), min_size=1, max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_reset_by_subtraction_invariants(self, beta, theta, currents):
        """Eq. 1/2 step invariants: a silent step leaves the membrane at
        or below threshold; a spiking step leaves it non-negative minus
        epsilon (integrated > theta, reset subtracts exactly theta)."""
        neuron = LIFNeuron(LIFConfig(beta=beta, threshold=theta))
        membrane = None
        for current in currents:
            tensor = Tensor(np.array([current], dtype=np.float32))
            spike, membrane = neuron.step(tensor, membrane)
            assert spike.data[0] in (0.0, 1.0)
            if spike.data[0] == 0.0:
                assert membrane.data[0] <= theta + 1e-5
            else:
                assert membrane.data[0] >= -1e-5

    @given(st.floats(0.0, 0.99), st.floats(0.1, 2.0), st.integers(1, 30))
    @settings(max_examples=50, deadline=None)
    def test_zero_input_never_spikes(self, beta, theta, steps):
        neuron = LIFNeuron(LIFConfig(beta=beta, threshold=theta))
        membrane = None
        zero = Tensor(np.zeros(1, dtype=np.float32))
        for _ in range(steps):
            spike, membrane = neuron.step(zero, membrane)
            assert spike.data[0] == 0.0

    @given(st.floats(0.1, 2.0), st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_spike_count_conservation(self, theta, steps):
        """Total charge in = charge spiked out + residual membrane, for
        beta=1 (no leak): sum(I) == spikes*theta + u_final."""
        neuron = LIFNeuron(LIFConfig(beta=1.0, threshold=theta))
        rng = np.random.default_rng(0)
        currents = rng.uniform(0, 1, size=steps).astype(np.float32)
        membrane = None
        total_spikes = 0.0
        for current in currents:
            spike, membrane = neuron.step(
                Tensor(np.array([current], dtype=np.float32)), membrane
            )
            total_spikes += float(spike.data[0])
        lhs = float(currents.sum())
        rhs = total_spikes * theta + float(membrane.data[0])
        assert abs(lhs - rhs) < 1e-3


class TestPoolingInvariants:
    @given(spike_maps(max_channels=4, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_or_pool_equals_any(self, maps):
        c, h, w = maps.shape
        if h % 2 or w % 2:
            maps = maps[:, : h - h % 2, : w - w % 2]
            if maps.shape[1] < 2 or maps.shape[2] < 2:
                return
        pooled = or_pool(maps[None], 2)[0]
        c, h, w = maps.shape
        tiles = maps.reshape(c, h // 2, 2, w // 2, 2)
        expected = (tiles.sum(axis=(2, 4)) > 0).astype(np.float32)
        np.testing.assert_array_equal(pooled, expected)

    @given(spike_maps(max_channels=2, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_pool_never_creates_spikes(self, maps):
        h, w = maps.shape[1:]
        maps = maps[:, : h - h % 2, : w - w % 2]
        if maps.shape[1] < 2 or maps.shape[2] < 2:
            return
        pooled = or_pool(maps[None], 2)[0]
        assert pooled.sum() <= maps.sum()
        if maps.sum() == 0:
            assert pooled.sum() == 0


class TestEventDrivenDuality:
    @given(spike_maps(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scatter_equals_gather(self, maps, weight_seed):
        rng = np.random.default_rng(weight_seed)
        cout = int(rng.integers(1, 4))
        weight = rng.normal(size=(cout, maps.shape[0], 3, 3)).astype(np.float32)
        result = EventDrivenLayerSim().run_conv(maps, weight)
        np.testing.assert_allclose(
            result.membrane, reference_conv(maps, weight), atol=1e-4
        )

    @given(spike_maps())
    @settings(max_examples=40, deadline=None)
    def test_updates_proportional_to_events(self, maps):
        weight = np.ones((2, maps.shape[0], 3, 3), dtype=np.float32)
        result = EventDrivenLayerSim(nc_count=1).run_conv(maps, weight)
        events = int(maps.sum())
        assert result.scheduled_updates == events * 9 * 2


class TestCompressionAccounting:
    @given(spike_maps(max_channels=1, max_size=8), st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_events_conserved(self, maps, chunk):
        flat = maps.reshape(-1)
        result = compress_exact(flat, chunk)
        assert result.spike_count == int(flat.sum())

    @given(spike_maps(max_channels=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_wider_encoder_never_slower(self, maps):
        """A wider priority-encoder chunk can only reduce scan cycles."""
        flat = maps.reshape(-1)
        narrow = compress_exact(flat, 4).cycles
        wide = compress_exact(flat, 32).cycles
        assert wide <= narrow
