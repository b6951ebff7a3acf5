"""Event-count conservation at the kernel level.

Every event kernel reports ``updates``: the scatter contributions it
accumulated. That count must equal the number of (event, in-bounds tap)
pairs of the input -- independently of the fold (unblocked, any k-block)
and of the numeric datapath (float or integer weights). The oracle is
computed without the runtime's inverse tap tables: the sum of the
reference ``im2col`` unfold of the binary input over all axes.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.runtime import attach_int_lowering, conv_geometry
from repro.runtime.kernels import (
    KBLOCK_CANDIDATES,
    event_conv,
    event_conv_blocked,
    event_conv_int,
)
from repro.runtime.plan import LayerPlan
from repro.tensor.ops import im2col

COUT = 4


def int_lowered_layer(cin, height, width, kernel, padding, rng):
    geometry = conv_geometry(cin, height, width, kernel, padding)
    q = rng.integers(-7, 8, size=(COUT, geometry.k))
    scale = np.float32(0.125)
    wmat = (q * scale).astype(np.float32)
    layer = LayerPlan(
        name="conserve",
        kind="conv",
        wmat=wmat,
        wT=np.ascontiguousarray(wmat.T),
        bias=np.zeros(COUT, dtype=np.float32),
        input_shape=(cin, height, width),
        output_shape=(COUT, geometry.oh, geometry.ow),
        geometry=geometry,
    )
    attach_int_lowering(layer, q, scale)
    return layer


@given(
    cin=st.integers(1, 64),
    height=st.integers(1, 9),
    width=st.integers(1, 9),
    kernel=st.sampled_from([1, 3]),
    padding=st.integers(0, 1),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_updates_equal_events_times_in_bounds_taps(
    cin, height, width, kernel, padding, density, seed
):
    assume(min(height, width) + 2 * padding >= kernel)
    rng = np.random.default_rng(seed)
    layer = int_lowered_layer(cin, height, width, kernel, padding, rng)
    x = (rng.random((2, cin, height, width)) < density).astype(np.float32)
    want = int(im2col(x, (kernel, kernel), 1, padding).sum())

    assert event_conv(layer, x)[1] == want
    assert event_conv_int(layer, x)[1] == want
    for block in KBLOCK_CANDIDATES:
        if block < layer.geometry.k:
            assert event_conv_blocked(layer, x, block)[1] == want
