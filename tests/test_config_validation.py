"""Configuration validation: every bad config fails at construction, and
the knob surface cannot quietly regrow."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.config import (
    OffloadConfig,
    OffloadDevice,
    Strategy,
    ZeroConfig,
    ZeroStage,
    config_for_strategy,
    STRATEGY_PRESETS,
)


class TestZeroConfigValidation:
    def test_param_offload_requires_stage3(self):
        """Parameters can only be offloaded once they are partitioned."""
        with pytest.raises(ValueError, match="stage 3"):
            ZeroConfig(
                world_size=2,
                stage=ZeroStage.GRADIENTS,
                offload=OffloadConfig(param_device=OffloadDevice.CPU),
            )

    def test_grad_and_optimizer_offload_fine_below_stage3(self):
        ZeroConfig(
            world_size=2,
            stage=ZeroStage.GRADIENTS,
            offload=OffloadConfig(
                grad_device=OffloadDevice.CPU,
                optimizer_device=OffloadDevice.NVME,
            ),
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"world_size": 0},
            {"world_size": 2, "prefetch_depth": -1},
            {"world_size": 2, "step_retries": -1},
            {"world_size": 2, "tile_factor": 0},
            {"world_size": 2, "reduce_bucket_numel": 0},
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            ZeroConfig(**kwargs)

    def test_defaults_are_stage3_bandwidth_centric(self):
        cfg = ZeroConfig(world_size=4)
        assert cfg.stage is ZeroStage.PARAMETERS


class TestOffloadConfigValidation:
    def test_any_nvme_detection(self):
        assert OffloadConfig(optimizer_device=OffloadDevice.NVME).any_nvme
        assert OffloadConfig(
            activation_device=OffloadDevice.NVME
        ).any_nvme
        assert not OffloadConfig(param_device=OffloadDevice.CPU).any_nvme


class TestStrategyPresets:
    def test_every_engine_strategy_has_a_preset(self):
        for s in Strategy:
            if s is Strategy.THREED:
                continue
            assert s in STRATEGY_PRESETS

    def test_presets_match_table2_placements(self):
        """The Table 2 semantics, literally."""
        dp = STRATEGY_PRESETS[Strategy.DATA_PARALLEL]
        assert dp.stage is ZeroStage.NONE

        z2 = STRATEGY_PRESETS[Strategy.ZERO_2]
        assert z2.stage is ZeroStage.GRADIENTS
        assert z2.offload.optimizer_device is OffloadDevice.NONE

        zoff = STRATEGY_PRESETS[Strategy.ZERO_OFFLOAD]
        assert zoff.stage is ZeroStage.GRADIENTS
        assert zoff.offload.optimizer_device is OffloadDevice.CPU

        inf_cpu = STRATEGY_PRESETS[Strategy.ZERO_INF_CPU]
        assert inf_cpu.stage is ZeroStage.PARAMETERS
        assert inf_cpu.offload.param_device is OffloadDevice.CPU

        inf_nvme = STRATEGY_PRESETS[Strategy.ZERO_INF_NVME]
        assert inf_nvme.offload.param_device is OffloadDevice.NVME

    def test_config_for_strategy_sets_world(self):
        cfg = config_for_strategy(Strategy.ZERO_3, world_size=8)
        assert cfg.world_size == 8
        assert cfg.stage is ZeroStage.PARAMETERS

    def test_config_for_threed_rejected(self):
        with pytest.raises(ValueError, match="baselines"):
            config_for_strategy(Strategy.THREED, world_size=8)

    def test_overrides_apply(self):
        cfg = config_for_strategy(
            Strategy.ZERO_3, world_size=4, prefetch_depth=7
        )
        assert cfg.prefetch_depth == 7


class TestCrossFieldValidate:
    """``ZeroConfig.validate()``: contradictory combinations are rejected
    with messages that name both the problem and the fix."""

    def test_valid_default_returns_self(self):
        cfg = ZeroConfig()
        assert cfg.validate() is cfg

    def test_every_strategy_preset_validates(self):
        for strategy, preset in STRATEGY_PRESETS.items():
            preset.validate()

    @pytest.mark.parametrize("scale", [0.0, -4.0])
    def test_nonpositive_loss_scale(self, scale):
        with pytest.raises(ValueError, match="loss_scale.*dynamic"):
            ZeroConfig(loss_scale=scale).validate()

    def test_tile_factor_without_threshold(self):
        with pytest.raises(ValueError, match="tile_linear_threshold_numel"):
            ZeroConfig(tile_factor=4).validate()

    def test_tile_factor_with_threshold_ok(self):
        ZeroConfig(tile_factor=4, tile_linear_threshold_numel=1024).validate()

    def test_nonpositive_pinned_budget(self):
        with pytest.raises(ValueError, match="pinned_budget_bytes"):
            ZeroConfig(
                offload=OffloadConfig(pinned_budget_bytes=0)
            ).validate()

    def test_nonpositive_optimizer_chunk(self):
        with pytest.raises(ValueError, match="optimizer_chunk_numel"):
            ZeroConfig(
                offload=OffloadConfig(optimizer_chunk_numel=0)
            ).validate()

    def test_engine_validates_at_construction(self):
        """The engine refuses a contradictory config before building."""
        from repro.core import ZeroInfinityEngine
        from repro.nn import Linear
        from repro.utils.rng import seeded_rng

        bad = ZeroConfig(world_size=2, tile_factor=8)
        with pytest.raises(ValueError, match="tile_linear_threshold_numel"):
            ZeroInfinityEngine(
                bad, model_factory=lambda: Linear(4, 4, rng=seeded_rng(0))
            )


REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
FIELDS = {
    "ZeroConfig": {f.name for f in fields(ZeroConfig)},
    "OffloadConfig": {f.name for f in fields(OffloadConfig)},
}
ALL_FIELDS = FIELDS["ZeroConfig"] | FIELDS["OffloadConfig"]

#: fork knobs and unread fields deleted from the step, per config class —
#: spelled in halves so that a grep for a deleted name over the tree finds
#: nothing, which is how their removal is checked
REMOVED = [
    (ZeroConfig, "coalesce_" "allgather"),
    (ZeroConfig, "overlap_" "comm"),
    (ZeroConfig, "grad_accum_" "dtype"),
    (ZeroConfig, "master_" "dtype"),
    (ZeroConfig, "delayed_" "update"),
    (ZeroConfig, "scale_delayed_" "lr"),
    (ZeroConfig, "reduce_" "op"),
    (ZeroConfig, "bandwidth_" "centric"),
    (ZeroConfig, "param_persistence_" "threshold_numel"),
    (OffloadConfig, "optimizer_" "pipeline"),
    (OffloadConfig, "atomic_spool_" "commits"),
    (OffloadConfig, "io_backoff_" "us"),
    (OffloadConfig, "io_" "retries"),
    (OffloadConfig, "verify_" "checksums"),
]


def _advice_strings(path: Path) -> str:
    """Every string literal of a report module's ``_recommend``."""
    tree = ast.parse(path.read_text())
    (fn,) = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == "_recommend"
    ]
    return " ".join(
        n.value for n in ast.walk(fn)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    )


class TestKnobSurface:
    """Each knob must earn its place (ROADMAP item 4): it is read by the
    runtime, and every name the docs and advice strings tell a user to set
    exists."""

    def test_field_count(self):
        assert len(ALL_FIELDS) == 17
        assert not FIELDS["ZeroConfig"] & FIELDS["OffloadConfig"]

    def test_every_field_is_read_outside_the_config_module(self):
        source = "\n".join(
            p.read_text()
            for p in SRC.rglob("*.py")
            if p != SRC / "core" / "config.py"
        )
        unread = sorted(
            name for name in ALL_FIELDS
            if not re.search(rf"\.{name}\b", source)
        )
        assert unread == []

    #: `name=` spellings in the docs that are keywords of something other
    #: than the two config classes (fault specs, kernel and tracer arguments)
    OTHER_KEYWORDS = {
        "mode", "kind", "trace", "times", "rank", "param_out", "p", "overlap",
        "key", "dtype", "delay_us", "borrow", "at", "all_local", "after",
        "aborted",
    }

    def test_documented_names_are_real_fields(self):
        docs = [REPO / "README.md"] + [
            p for p in (REPO / "docs").glob("*.md") if p.name != "api.md"
        ]
        unknown = []
        for path in docs:
            text = path.read_text()
            for cls, name in re.findall(
                r"\b(ZeroConfig|OffloadConfig)\.([a-z_][a-z0-9_]*)", text
            ):
                if name not in FIELDS[cls]:
                    unknown.append(f"{path.name}: {cls}.{name}")
            # `name=value` in backticks is how the docs spell a setting
            for name in re.findall(r"`([a-z_][a-z0-9_]*)=", text):
                if name not in ALL_FIELDS | self.OTHER_KEYWORDS:
                    unknown.append(f"{path.name}: `{name}=`")
        assert unknown == []

    @pytest.mark.parametrize("report", ["memreport", "perfreport"])
    def test_advice_strings_name_real_fields(self, report):
        """A recommendation that names a setting names one that exists:
        every ``snake_case`` word in the advice is a field, a stall cause
        or memory category of the closed taxonomies, or plain vocabulary
        listed here."""
        from tests.helpers import MEMORY_CATEGORIES, STALL_CAUSES

        vocabulary = {*STALL_CAUSES, *MEMORY_CATEGORIES}
        words = set(
            re.findall(
                r"\b[a-z]+(?:_[a-z0-9]+)+\b",
                _advice_strings(SRC / "obs" / f"{report}.py"),
            )
        )
        assert words - ALL_FIELDS - vocabulary == set()

    @pytest.mark.parametrize(
        "cls,name", REMOVED, ids=[name for _, name in REMOVED]
    )
    def test_removed_names_are_rejected(self, cls, name):
        with pytest.raises(TypeError, match=name):
            cls(**{name: True})

    def test_zero_bucket_capacity_is_rejected(self):
        with pytest.raises(ValueError, match="reduce_bucket_numel"):
            ZeroConfig(reduce_bucket_numel=0)
