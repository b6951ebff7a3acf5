"""NetworkPlan persistence: save/load round trip next to the ``.npz``."""

import os

import numpy as np
import pytest
import scipy

from repro.quant import FP32, INT4, convert
from repro.runtime import (
    InferenceEngine,
    load_plan,
    plan_deployable,
    plan_sidecar_path,
    save_plan,
    stack_encoder_frames,
)
from repro.runtime import kernels
from repro.runtime.kernels import calibration_key
from repro.runtime.plan_io import environment_fingerprint
from repro.snn import build_network
from repro.snn.encoding import DirectEncoder
from repro.utils.serialization import load_npz, save_npz


@pytest.fixture(scope="module")
def network():
    net = build_network(
        "8C3-MP2-16C3-MP2-40", input_shape=(3, 8, 8), num_classes=10, seed=55
    )
    net.eval()
    return net


@pytest.fixture(scope="module")
def deployable(network):
    return convert(network, FP32)


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(3)
    return rng.random((6, 3, 8, 8)).astype(np.float32)


def engine_outputs(plan, images, timesteps=2):
    stacked, invariant = stack_encoder_frames(
        DirectEncoder(), images, timesteps
    )
    return InferenceEngine(plan).run(
        stacked, analog_first=True, time_invariant=invariant
    )


class TestSidecarPath:
    def test_npz_extension_replaced(self):
        assert plan_sidecar_path("/a/b/model.npz") == "/a/b/model.plan.npz"

    def test_other_paths_suffixed(self):
        assert plan_sidecar_path("/a/b/model") == "/a/b/model.plan.npz"


class TestRoundTrip:
    def test_loaded_plan_matches_live_lowered_outputs(
        self, deployable, images, tmp_path
    ):
        live = plan_deployable(deployable)
        path = str(tmp_path / "model.plan.npz")
        save_plan(live, path)
        loaded = load_plan(path)
        want = engine_outputs(live, images)
        got = engine_outputs(loaded, images)
        assert np.array_equal(got.accumulated, want.accumulated)
        assert got.stats.per_layer == want.stats.per_layer
        assert got.input_totals == want.input_totals

    def test_quantized_plan_round_trips(self, network, images, tmp_path):
        deployable = convert(network, INT4)
        live = plan_deployable(deployable)
        path = str(tmp_path / "model-int4.plan.npz")
        save_plan(live, path)
        loaded = load_plan(path)
        want = engine_outputs(live, images)
        got = engine_outputs(loaded, images)
        assert np.array_equal(got.accumulated, want.accumulated)

    def test_layer_metadata_preserved(self, deployable, tmp_path):
        live = plan_deployable(deployable)
        path = str(tmp_path / "meta.plan.npz")
        save_plan(live, path)
        loaded = load_plan(path)
        assert loaded.spike_rule == live.spike_rule
        assert loaded.num_classes == live.num_classes
        assert loaded.population_group == live.population_group
        for got, want in zip(loaded.layers, live.layers):
            assert got.name == want.name
            assert got.kind == want.kind
            assert got.pool_after == want.pool_after
            assert got.is_input_layer == want.is_input_layer
            assert got.input_shape == want.input_shape
            assert got.output_shape == want.output_shape
            assert np.array_equal(got.wmat, want.wmat)
            assert np.array_equal(got.bias, want.bias)

    def test_non_plan_artifact_rejected(self, tmp_path):
        from repro.errors import RuntimeUnsupportedError

        path = str(tmp_path / "other.npz")
        save_npz(path, {"x": np.zeros(3)}, {"format": "something-else"})
        with pytest.raises(RuntimeUnsupportedError):
            load_plan(path)


class TestAtomicSidecarWrites:
    """A crash mid-write must never leave a sidecar a loader would trust."""

    def test_crash_mid_write_preserves_previous_sidecar(
        self, deployable, tmp_path, monkeypatch
    ):
        """Dying inside the ``.plan.npz`` serialization leaves the old
        sidecar byte-identical and no temp-file litter -- the atomic
        temp + ``os.replace`` protocol at work."""
        live = plan_deployable(deployable)
        path = str(tmp_path / "model.plan.npz")
        save_plan(live, path)
        with open(path, "rb") as handle:
            before = handle.read()

        def torn_write(handle, **payload):
            handle.write(b"partial bytes then the process dies")
            raise KeyboardInterrupt("simulated crash mid-write")

        monkeypatch.setattr(np, "savez", torn_write)
        with pytest.raises(KeyboardInterrupt):
            save_plan(live, path)
        with open(path, "rb") as handle:
            assert handle.read() == before
        leftovers = [
            name for name in os.listdir(tmp_path) if name.endswith(".tmp")
        ]
        assert leftovers == []
        monkeypatch.undo()
        from repro.runtime import try_load_plan

        assert try_load_plan(path) is not None

    def test_crash_on_first_write_leaves_nothing(
        self, deployable, tmp_path, monkeypatch
    ):
        live = plan_deployable(deployable)
        path = str(tmp_path / "fresh.plan.npz")

        def torn_write(handle, **payload):
            raise KeyboardInterrupt("simulated crash mid-write")

        monkeypatch.setattr(np, "savez", torn_write)
        with pytest.raises(KeyboardInterrupt):
            save_plan(live, path)
        assert not os.path.exists(path)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("keep_bytes", [0, 10, 0.5])
    def test_torn_sidecar_loads_as_none(
        self, deployable, tmp_path, keep_bytes
    ):
        """A truncated sidecar (as an unclean shutdown of a non-atomic
        writer would produce) is rejected by ``try_load_plan`` -- the
        caller falls back to live lowering instead of trusting it."""
        from repro.runtime import try_load_plan

        live = plan_deployable(deployable)
        path = str(tmp_path / "torn.plan.npz")
        save_plan(live, path)
        assert try_load_plan(path) is not None
        with open(path, "rb") as handle:
            payload = handle.read()
        cut = (
            int(len(payload) * keep_bytes)
            if isinstance(keep_bytes, float)
            else keep_bytes
        )
        with open(path, "wb") as handle:
            handle.write(payload[:cut])
        assert try_load_plan(path) is None

    def test_garbage_sidecar_loads_as_none(self, tmp_path):
        from repro.runtime import try_load_plan

        path = str(tmp_path / "garbage.plan.npz")
        with open(path, "wb") as handle:
            handle.write(b"\x00\x01not-a-zip-archive\xff" * 64)
        assert try_load_plan(path) is None


class TestCalibrationSeeding:
    def test_load_seeds_cache_and_skips_probes(
        self, deployable, tmp_path, monkeypatch
    ):
        live = plan_deployable(deployable)
        path = str(tmp_path / "cal.plan.npz")
        save_plan(live, path)
        saved_verdicts = {
            calibration_key(layer): kernels.calibrate_fold_exact(layer, 0)
            for layer in live.layers
            if layer.kind == "conv"
        }
        monkeypatch.setattr(kernels, "_FOLD_EXACT_CACHE", {})

        loaded = load_plan(path)
        for layer in loaded.layers:
            if layer.kind != "conv":
                continue
            key = calibration_key(layer)
            assert kernels._FOLD_EXACT_CACHE[(key, 0)] == saved_verdicts[key]
        # A seeded cache means the fold probe never runs: break the
        # probe kernels and confirm the verdict still returns.
        monkeypatch.setattr(
            kernels,
            "dense_conv",
            lambda *a, **k: pytest.fail("probe ran despite seeded cache"),
        )
        for layer in loaded.layers:
            if layer.kind == "conv":
                assert kernels.calibrate_fold_exact(layer, 0) == (
                    saved_verdicts[calibration_key(layer)]
                )

    def test_live_probe_wins_over_seeded_verdict(self, deployable, tmp_path):
        from repro.runtime.kernels import seed_block_resolution

        live = plan_deployable(deployable)
        conv = next(l for l in live.layers if l.kind == "conv")
        key = calibration_key(conv)
        probed = kernels.calibrate_fold_exact(conv, 0)
        seed_block_resolution(key, None if probed else 0)  # lying sidecar
        assert kernels._FOLD_EXACT_CACHE[(key, 0)] == probed  # kept

    def test_load_seeds_block_resolution(
        self, deployable, tmp_path, monkeypatch
    ):
        live = plan_deployable(deployable)
        path = str(tmp_path / "blocks.plan.npz")
        save_plan(live, path)
        expected = {
            calibration_key(layer): kernels.resolve_event_block(layer)
            for layer in live.layers
            if layer.kind == "conv"
        }
        monkeypatch.setattr(kernels, "_FOLD_EXACT_CACHE", {})
        monkeypatch.setattr(kernels, "_BLOCK_CHOICE_CACHE", {})
        load_plan(path)
        assert kernels._BLOCK_CHOICE_CACHE == expected
        # The unblocked verdict is the block choice's ``0`` case; a
        # positive choice also seeds its own block verdict.
        assert kernels._FOLD_EXACT_CACHE == {
            **{(key, 0): block == 0 for key, block in expected.items()},
            **{(key, block): True for key, block in expected.items() if block},
        }

    @pytest.mark.parametrize("package", ["numpy", "scipy"])
    def test_fingerprint_mismatch_ignores_verdicts(
        self, deployable, tmp_path, monkeypatch, package
    ):
        live = plan_deployable(deployable)
        path = str(tmp_path / "foreign.plan.npz")
        save_plan(live, path)
        arrays, meta = load_npz(path)
        meta["fingerprint"][package] = "0.0.0-foreign"
        save_npz(path, arrays, meta)
        monkeypatch.setattr(kernels, "_FOLD_EXACT_CACHE", {})
        monkeypatch.setattr(kernels, "_BLOCK_CHOICE_CACHE", {})

        load_plan(path)
        assert kernels._FOLD_EXACT_CACHE == {}
        assert kernels._BLOCK_CHOICE_CACHE == {}

    def test_current_fingerprint_matches_itself(self):
        assert environment_fingerprint() == environment_fingerprint()

    def test_fingerprint_includes_scipy_version(self):
        """The event side of every fold verdict is scipy's CSR product."""
        assert environment_fingerprint()["scipy"] == scipy.__version__

    def test_fingerprint_includes_blas_identity(self):
        fingerprint = environment_fingerprint()
        assert fingerprint["blas"]  # non-empty digest of the linked BLAS


class TestStaleSidecarGuard:
    def test_digest_mismatch_rejected(self, deployable, network, tmp_path):
        from repro.errors import RuntimeUnsupportedError

        path = str(tmp_path / "stale.plan.npz")
        save_plan(
            plan_deployable(deployable),
            path,
            model_digest=deployable.weights_digest(),
        )
        other = convert(network, INT4)  # 'retrained' model, same shapes
        assert other.weights_digest() != deployable.weights_digest()
        with pytest.raises(RuntimeUnsupportedError):
            load_plan(path, model_digest=other.weights_digest())
        # Without a digest to check against, the plan still loads.
        assert load_plan(path) is not None

    def test_retrained_model_ignores_stale_sidecar(
        self, deployable, network, tmp_path
    ):
        """load_deployable_with_plan falls back to live lowering when the
        sidecar belongs to an older train of the same architecture."""
        from repro.parallel import load_deployable_with_plan

        model_path = str(tmp_path / "model.npz")
        stale = convert(network, INT4)
        stale_plan = plan_deployable(stale)
        deployable.save(model_path)  # the 'retrained' artifact on disk
        save_plan(
            stale_plan,
            plan_sidecar_path(model_path),
            model_digest=stale.weights_digest(),
        )
        loaded = load_deployable_with_plan(model_path)
        assert loaded._runtime_plan is None  # stale sidecar not attached
        rng = np.random.default_rng(2)
        probe = rng.random((2, 3, 8, 8)).astype(np.float32)
        assert np.array_equal(
            loaded.forward(probe, 2).logits,
            deployable.forward(probe, 2).logits,
        )

    def test_corrupt_sidecar_falls_back_to_live_lowering(
        self, deployable, tmp_path
    ):
        from repro.parallel import load_deployable_with_plan
        from repro.runtime import try_load_plan

        model_path = str(tmp_path / "model.npz")
        deployable.save(model_path)
        sidecar = plan_sidecar_path(model_path)
        with open(sidecar, "wb") as handle:
            handle.write(b"not a zip archive at all")
        assert try_load_plan(sidecar) is None
        loaded = load_deployable_with_plan(model_path)  # must not raise
        assert loaded._runtime_plan is None

    def test_context_survives_corrupt_sidecar(self, tmp_path):
        from repro.experiments.context import ExperimentContext

        workspace = str(tmp_path / "ws")
        ctx = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        model = ctx.trained("svhn", "fp32")
        path = ctx.model_path(ctx.model_key("svhn", "fp32", "direct"))
        sidecar = plan_sidecar_path(path)
        with open(sidecar, "wb") as handle:
            handle.write(b"\x00truncated")
        fresh = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        reloaded = fresh.trained("svhn", "fp32")  # must rebuild, not raise
        rng = np.random.default_rng(6)
        probe = rng.random((2, 3, 8, 8)).astype(np.float32)
        assert np.array_equal(
            reloaded.forward(probe, 2).logits, model.forward(probe, 2).logits
        )

    def test_context_rebuilds_stale_sidecar(self, tmp_path):
        import os

        from repro.experiments.context import ExperimentContext

        workspace = str(tmp_path / "ws")
        ctx = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        model = ctx.trained("svhn", "fp32")
        path = ctx.model_path(ctx.model_key("svhn", "fp32", "direct"))
        sidecar = plan_sidecar_path(path)
        # Simulate a retrain under an old sidecar: replace the model
        # artifact, keep the sidecar.
        other = ExperimentContext(scale="tiny", workspace=workspace, seed=1)
        retrained = other.trained("cifar10", "fp32")
        retrained.save(path)
        before = os.path.getmtime(sidecar)
        fresh = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        reloaded = fresh.trained("svhn", "fp32")
        assert reloaded.weights_digest() == retrained.weights_digest()
        assert os.path.getmtime(sidecar) >= before  # sidecar rewritten
        rng = np.random.default_rng(4)
        probe = rng.random((2, 3, 8, 8)).astype(np.float32)
        assert np.array_equal(
            reloaded.forward(probe, 2).logits,
            retrained.forward(probe, 2).logits,
        )


class TestAttachPlan:
    def test_attach_mismatched_plan_rejected(self, network, deployable):
        from repro.errors import QuantizationError

        other = build_network(
            "6C3-MP2-30", input_shape=(3, 8, 8), num_classes=10, seed=9
        )
        other.eval()
        other_plan = plan_deployable(convert(other, FP32))
        with pytest.raises(QuantizationError):
            deployable.attach_plan(other_plan)

    def test_attach_spiking_origin_plan_rejected(self, network, deployable):
        """A plan lowered from the SpikingNetwork (shifted spike rule,
        un-folded BN) describes the same layer names/shapes but computes
        different numerics -- it must never attach to a deployable."""
        from repro.errors import QuantizationError
        from repro.runtime import plan_spiking

        spiking_plan = plan_spiking(network)
        with pytest.raises(QuantizationError):
            deployable.attach_plan(spiking_plan)

    def test_attached_sidecar_forward_matches(
        self, deployable, images, tmp_path
    ):
        from repro.parallel import load_deployable_with_plan

        model_path = str(tmp_path / "model.npz")
        deployable.save(model_path)
        save_plan(plan_deployable(deployable), plan_sidecar_path(model_path))
        loaded = load_deployable_with_plan(model_path)
        assert loaded._runtime_plan is not None  # sidecar attached
        want = deployable.forward(images, 2)
        got = loaded.forward(images, 2)
        assert np.array_equal(got.logits, want.logits)
        assert got.stats.per_layer == want.stats.per_layer

    def test_context_writes_and_reuses_sidecar(self, tmp_path):
        import os

        from repro.experiments.context import ExperimentContext

        workspace = str(tmp_path / "ws")
        ctx = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        model = ctx.trained("svhn", "fp32")
        path = ctx.model_path(ctx.model_key("svhn", "fp32", "direct"))
        sidecar = plan_sidecar_path(path)
        assert os.path.exists(sidecar)
        assert model._runtime_plan is not None
        # A second context must load model + plan from disk unchanged.
        again = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        reloaded = again.trained("svhn", "fp32")
        assert reloaded._runtime_plan is not None
        rng = np.random.default_rng(1)
        probe = rng.random((3, 3, 8, 8)).astype(np.float32)
        assert np.array_equal(
            reloaded.forward(probe, 2).logits, model.forward(probe, 2).logits
        )


class TestSidecarIsDerived:
    """The sidecar is a cache: its content is a pure function of the
    model and the environment, never of what the saving process ran."""

    def test_content_independent_of_process_history(
        self, network, images, tmp_path
    ):
        from repro.quant import INT8_P2
        from repro.runtime import ensure_cost_state, resolve_event_block
        from repro.runtime.config import runtime_overrides

        live = plan_deployable(convert(network, INT8_P2))
        convs = [layer for layer in live.layers if layer.kind == "conv"]
        states = [
            ensure_cost_state(layer, resolve_event_block(layer) or None)
            for layer in convs
        ]
        before = [
            (s.dense_ms_per_sample, s.event_ms_per_update) for s in states
        ]
        first = str(tmp_path / "first.plan.npz")
        save_plan(live, first)
        for path in ("event", "dense"):
            with runtime_overrides(force_path=path):
                engine_outputs(live, images)
        after = [
            (s.dense_ms_per_sample, s.event_ms_per_update) for s in states
        ]
        assert after != before  # the online EMA did move
        second = str(tmp_path / "second.plan.npz")
        save_plan(live, second)
        arrays1, meta1 = load_npz(first)
        arrays2, meta2 = load_npz(second)
        assert meta1 == meta2
        assert arrays1.keys() == arrays2.keys()
        for name in arrays1:
            assert arrays1[name].dtype == arrays2[name].dtype
            assert np.array_equal(arrays1[name], arrays2[name])

    def test_loaded_plan_carries_no_cost_rates(self, deployable, tmp_path):
        live = plan_deployable(deployable)
        path = str(tmp_path / "rates.plan.npz")
        save_plan(live, path)
        loaded = load_plan(path)
        assert all(layer.cost_state is None for layer in loaded.layers)

    def test_sidecar_persists_integer_lowering(
        self, network, tmp_path, monkeypatch
    ):
        """A quantized plan's integer weights, scales and exactness
        verdicts all come back from the sidecar -- cold loaders never
        re-run the integer probes."""
        from repro.quant import INT8_P2

        live = plan_deployable(convert(network, INT8_P2))
        path = str(tmp_path / "int.plan.npz")
        save_plan(live, path)
        loaded = load_plan(path)
        monkeypatch.setattr(
            kernels,
            "dense_conv",
            lambda *a, **k: pytest.fail("exactness probe ran"),
        )
        seen_int = False
        for got, want in zip(loaded.layers, live.layers):
            assert got.has_int_lowering == want.has_int_lowering
            if not want.has_int_lowering:
                continue
            seen_int = True
            assert got.wq.dtype == want.wq.dtype
            assert np.array_equal(got.wq, want.wq)
            assert np.array_equal(
                np.asarray(got.wq_scale), np.asarray(want.wq_scale)
            )
            assert got.int_bound == want.int_bound
            # Verdict seeded (the broken probes above would fail loudly
            # if calibrate_int_exact had to re-probe).
            for block, verdict in want._int_exact.items():
                assert kernels.calibrate_int_exact(got, block) == verdict
        assert seen_int  # the quantized plan did carry a lowering


def _relabel(format_name):
    def rewrite(arrays, meta):
        meta["format"] = format_name
        return arrays, meta

    return rewrite


def _parent_v5_layout(arrays, meta):
    """The previous writer's layout: a scatter ``backend`` field and no
    scipy version in the environment fingerprint."""
    meta["format"] = "network-plan-v5"
    meta["backend"] = "scipy"
    del meta["fingerprint"]["scipy"]
    return arrays, meta


def _parent_v4_layout(arrays, meta):
    """The layout the previous writer produced: a separate ``calibration``
    list (shape key, unblocked verdict, block, cost rates, integer
    verdict/bound/rates), ``has_bn``/``has_int`` flags and int8 ``wq``."""
    meta["format"] = "network-plan-v4"
    meta["calibration"] = []
    for index, info in enumerate(meta["layers"]):
        prefix = f"layer{index}"
        info["has_bn"] = f"{prefix}.bn_mu" in arrays
        info["has_int"] = f"{prefix}.wq" in arrays
        if info["kind"] != "conv":
            continue
        block = info.pop("block")
        cin, height, width = info["input_shape"]
        entry = {
            "key": [
                cin, height, width, info["kernel"], info["padding"],
                info["output_shape"][0], "scipy",
            ],
            "exact": block == 0,
            "block": block,
            "cost": {"dense_ms_per_sample": 1.0, "event_ms_per_update": 1e-4},
        }
        if info["has_int"]:
            entry["int"] = {
                "exact": info.pop("int_exact"),
                "bound": 1234,
                "cost": {
                    "int_dense_ms_per_sample": 1.0,
                    "int_event_ms_per_update": 1e-3,
                },
            }
            arrays[f"{prefix}.wq"] = arrays[f"{prefix}.wq"].astype(np.int8)
        meta["calibration"].append(entry)
    return arrays, meta


@pytest.fixture(scope="module")
def int8_workspace(tmp_path_factory):
    """A tiny-scale workspace holding a trained int8 model + sidecar."""
    from repro.experiments.context import ExperimentContext

    workspace = str(tmp_path_factory.mktemp("int8-ws"))
    ExperimentContext(scale="tiny", workspace=workspace, seed=0).trained(
        "svhn", "int8"
    )
    return workspace


class TestForeignFormatRebuilt:
    """Sidecars are derived caches: any format but the current one loads
    as ``None`` and its consumers rebuild and re-save it."""

    @pytest.mark.parametrize(
        "rewrite",
        [
            _relabel("network-plan-v1"),
            _relabel("network-plan-v2"),
            _relabel("network-plan-v3"),
            _relabel("network-plan-v4"),
            _parent_v4_layout,
            _parent_v5_layout,
        ],
        ids=["v1", "v2", "v3", "v4", "parent-v4-layout", "parent-v5-layout"],
    )
    def test_context_rebuilds_foreign_sidecar(
        self, int8_workspace, tmp_path, rewrite
    ):
        import shutil

        from repro.experiments.context import ExperimentContext
        from repro.quant import DeployableNetwork
        from repro.runtime import try_load_plan
        from repro.runtime.plan_io import PLAN_FORMAT

        workspace = str(tmp_path / "ws")
        shutil.copytree(int8_workspace, workspace)
        ctx = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        path = ctx.model_path(ctx.model_key("svhn", "int8", "direct"))
        sidecar = plan_sidecar_path(path)
        save_npz(sidecar, *rewrite(*load_npz(sidecar)))
        assert try_load_plan(sidecar) is None

        model = ctx.trained("svhn", "int8")  # rebuilds + re-saves
        _, meta = load_npz(sidecar)
        assert meta["format"] == PLAN_FORMAT
        reloaded = try_load_plan(sidecar, model.weights_digest())
        assert any(layer.has_int_lowering for layer in reloaded.layers)
        assert any(
            layer.has_int_lowering for layer in model._runtime_plan.layers
        )

        live = DeployableNetwork.load(path)
        live.attach_plan(plan_deployable(live))
        rng = np.random.default_rng(8)
        probe = rng.random(
            (3,) + tuple(live.layers[0].input_shape)
        ).astype(np.float32)
        want = live.forward(probe, 3)
        got = model.forward(probe, 3)
        assert got.logits.tobytes() == want.logits.tobytes()
        assert (
            got.stats.per_layer_timestep == want.stats.per_layer_timestep
        )

    def test_unknown_future_format_rejected(self, deployable, tmp_path):
        from repro.errors import RuntimeUnsupportedError

        live = plan_deployable(deployable)
        path = str(tmp_path / "future.plan.npz")
        save_plan(live, path)
        arrays, meta = load_npz(path)
        meta["format"] = "network-plan-v99"
        save_npz(path, arrays, meta)
        with pytest.raises(RuntimeUnsupportedError):
            load_plan(path)
