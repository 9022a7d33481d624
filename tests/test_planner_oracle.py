"""Differential oracles for the planner's fast paths.

``ModelProfile.recompute_flops_for`` answers Eq. 7 with one binary search
over per-profile running sums, and ``IterationTimeModel`` folds the
``A_G2M``-independent terms of Eqs. 4-5 once per instance.  The slow
references below are the straightforward forms: re-sort every segment,
walk them one by one, and build each stage's component dict per call.
The fast paths must agree with them bit for bit, not approximately.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    HardwareProfile,
    IterationTimeModel,
    RatelPolicy,
    plan_activation_swapping,
)
from repro.core.iteration_model import StageTime
from repro.hardware import (
    GB,
    RTX_3090,
    RTX_4080,
    RTX_4090,
    TFLOPS,
    GiB,
    evaluation_server,
)
from repro.models import DIT_PRESETS, LLM_PRESETS, llm, profile_model
from repro.models.config import DiTConfig, TransformerConfig
from repro.models.layers import ActivationSegment
from repro.models.profile import ModelProfile

#: A fresh, uncached profile (the memoized one may already carry caches).
fresh_profile = profile_model.__wrapped__

VARIANTS = ("optimized", "naive", "zero", "cpuact")
BATCHES = (1, 4, 8, 16, 32)
#: The what-if service's servers: three GPUs x two main-memory sizes.
WHATIF_SERVERS = tuple(
    evaluation_server(gpu=gpu, main_memory_bytes=memory_gb * GiB)
    for gpu in (RTX_4090, RTX_3090, RTX_4080)
    for memory_gb in (128, 256)
)


# -- slow references ------------------------------------------------------------


def reference_benefit_order(profile: ModelProfile) -> list[ActivationSegment]:
    embed = ActivationSegment("embed_out", profile.embedding_activation_bytes, 0.0)
    flat = [seg for _idx, seg in profile.segments()]
    flat.sort(key=lambda seg: seg.offloading_benefit, reverse=True)
    return [embed] + flat


def reference_recompute_flops(
    profile: ModelProfile, swapped_bytes: float, order: list[ActivationSegment]
) -> float:
    remaining = swapped_bytes
    saved = 0.0
    for segment in order:
        if remaining <= 0:
            break
        covered = min(segment.nbytes, remaining)
        saved += segment.recompute_flops * (covered / segment.nbytes)
        remaining -= covered
    recomputable = profile.n_blocks * profile.block.forward_flops
    return max(0.0, recomputable - saved)


#: Per-profile (benefit order, {swapped bytes: FLOP_r}) for the reference
#: model; the walk is deterministic, so sharing it across variants and
#: servers changes no answer.
_REFERENCE_MEMO: dict[ModelProfile, tuple[list[ActivationSegment], dict]] = {}


class ReferenceIterationTimeModel(IterationTimeModel):
    """Eqs. 4-5 and 7 written out per call, with a component dict per stage."""

    def __init__(self, model: ModelProfile, hardware: HardwareProfile) -> None:
        super().__init__(model, hardware)
        if model not in _REFERENCE_MEMO:
            _REFERENCE_MEMO[model] = (reference_benefit_order(model), {})
        self._order, self._flops = _REFERENCE_MEMO[model]

    def recompute_flops(self, a_g2m: float) -> float:
        if a_g2m < 0:
            raise ValueError("swapped bytes cannot be negative")
        if a_g2m not in self._flops:
            self._flops[a_g2m] = reference_recompute_flops(self.model, a_g2m, self._order)
        return self._flops[a_g2m]

    def forward_time(self, a_g2m: float) -> StageTime:
        hw = self.hardware
        p16 = self.model.states.p16
        spill = self.a_to_ssd(a_g2m)
        components = {
            "gpu": self.model.forward_flops / self.effective_thp,
            "pcie_g2m": a_g2m / hw.bw_gpu,
            "pcie_m2g": p16 / hw.bw_gpu,
            "ssd": self._ssd(read=p16, write=spill),
        }
        return StageTime(max(components.values()), components)

    def backward_time(self, a_g2m: float) -> StageTime:
        hw = self.hardware
        states = self.model.states
        flop_r = self.recompute_flops(a_g2m)
        spill = self.a_to_ssd(a_g2m)
        components = {
            "gpu": (self.model.backward_flops + flop_r) / self.effective_thp,
            "pcie_g2m": states.g16 / hw.bw_gpu,
            "pcie_m2g": (states.p16 + a_g2m) / hw.bw_gpu,
            "ssd": self._ssd(
                read=states.optimizer_read + states.p16 + spill,
                write=states.optimizer_write,
            ),
            "cpu_adam": self.model.n_params / hw.cpu_adam_params_per_s,
        }
        return StageTime(max(components.values()), components)

    def iteration_time(self, a_g2m: float) -> float:
        return self.forward_time(a_g2m).total + self.backward_time(a_g2m).total

    def _ssd(self, *, read: float, write: float) -> float:
        hw = self.hardware
        if hw.bw_s2m <= 0 or hw.bw_m2s <= 0:
            raise ValueError("model requires SSD traffic but the server has no SSDs")
        return read / hw.bw_s2m + write / hw.bw_m2s


# -- Eq. 7 ----------------------------------------------------------------------


@st.composite
def model_configs(draw):
    n_heads = draw(st.integers(1, 8))
    hidden = n_heads * draw(st.integers(1, 96))
    n_layers = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return TransformerConfig(
            "llm",
            n_layers,
            n_heads,
            hidden,
            seq_len=draw(st.integers(1, 2048)),
            vocab_size=draw(st.integers(1, 60_000)),
        )
    patch = draw(st.sampled_from((1, 2, 4)))
    side = draw(st.integers(1, 32))
    return DiTConfig(
        "dit", n_layers, n_heads, hidden, image_size=side * patch * 8, patch_size=patch
    )


def probe_amounts(profile: ModelProfile) -> list[float]:
    """0, both Algorithm-1 bounds, and every segment boundary and its neighbours."""
    probes = [0.0, float(profile.inter_block_bytes), float(profile.activation_bytes_total)]
    boundary = 0.0
    for segment in reference_benefit_order(profile):
        boundary += segment.nbytes
        probes += [
            boundary,
            math.nextafter(boundary, 0.0),
            math.nextafter(boundary, math.inf),
            boundary * (1 - 1e-12),
            boundary * (1 + 1e-12),
            boundary - segment.nbytes / 3,
        ]
    return probes


class TestRecomputeFlopsOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        config=model_configs(),
        batch=st.integers(1, 64),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=20),
    )
    def test_matches_segment_walk_bit_for_bit(self, config, batch, fractions):
        profile = fresh_profile(config, batch)
        order = reference_benefit_order(profile)
        assert profile.segments_by_benefit() == tuple(order)
        total = profile.activation_bytes_total
        for a in probe_amounts(profile) + [f * total for f in fractions]:
            fast = profile.recompute_flops_for(a)
            slow = reference_recompute_flops(profile, a, order)
            assert fast == slow and math.copysign(1, fast) == math.copysign(1, slow), a

    def test_negative_amount_rejected(self, profile_13b_bs32):
        with pytest.raises(ValueError):
            profile_13b_bs32.recompute_flops_for(-1.0)


# -- Eqs. 1, 4, 5 ----------------------------------------------------------------


@st.composite
def hardware_profiles(draw):
    return HardwareProfile(
        thp_gpu=draw(st.floats(10, 400)) * TFLOPS,
        bw_gpu=draw(st.floats(4, 64)) * GB,
        bw_s2m=draw(st.floats(1, 64)) * GB,
        bw_m2s=draw(st.floats(1, 64)) * GB,
        mem_avail_main=draw(st.one_of(st.just(math.inf), st.floats(0, 1024))) * GB,
        cpu_adam_params_per_s=draw(st.floats(1e8, 1e10)),
    )


class TestIterationModelOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(LLM_PRESETS)),
        batch=st.sampled_from(BATCHES),
        hw=hardware_profiles(),
        fraction=st.floats(0.0, 1.0),
    )
    def test_stages_match_reference(self, name, batch, hw, fraction):
        profile = profile_model(llm(name), batch)
        fast = IterationTimeModel(profile, hw)
        slow = ReferenceIterationTimeModel(profile, hw)
        for a in (fraction * profile.activation_bytes_total, profile.inter_block_bytes):
            forward, backward = fast.forward_time(a), fast.backward_time(a)
            assert forward == slow.forward_time(a)
            assert backward == slow.backward_time(a)
            assert list(forward.components) == list(slow.forward_time(a).components)
            assert list(backward.components) == list(slow.backward_time(a).components)
            assert fast.iteration_time(a) == forward.total + backward.total
            assert fast.iteration_time(a) == slow.iteration_time(a)
            assert fast.estimate(a) == slow.estimate(a)

    def test_no_ssd_array_is_rejected_on_every_call(self, profile_13b_bs32):
        hw = HardwareProfile(165 * TFLOPS, 21 * GB, 0.0, 0.0, 100 * GB, 1.3e9)
        model = IterationTimeModel(profile_13b_bs32, hw)
        for _ in range(2):
            for stage in (model.iteration_time, model.forward_time, model.backward_time):
                with pytest.raises(ValueError, match="no SSDs"):
                    stage(profile_13b_bs32.inter_block_bytes)


# -- Algorithm 1 -------------------------------------------------------------------


class TestPlanOracle:
    @pytest.mark.parametrize("config", [*LLM_PRESETS.values(), *DIT_PRESETS.values()])
    def test_plans_identical_to_reference(self, config):
        """Every variant x batch x what-if server plans exactly as the reference."""
        for batch in BATCHES:
            profile = profile_model(config, batch)
            for variant in VARIANTS:
                policy = RatelPolicy(variant)
                for server in WHATIF_SERVERS:
                    fast = policy.plan(profile, server)
                    slow = plan_activation_swapping(
                        ReferenceIterationTimeModel(
                            profile, policy.hardware_profile(profile, server)
                        )
                    )
                    assert fast.a_g2m == slow.a_g2m
                    assert fast.case is slow.case
                    assert fast.swapped == slow.swapped
                    assert fast.estimate == slow.estimate


class TestComplexityGuard:
    def test_planning_twice_builds_the_benefit_order_once(self, monkeypatch):
        builds = []
        segments = ModelProfile.segments

        def counted(self):
            builds.append(self)
            return segments(self)

        monkeypatch.setattr(ModelProfile, "segments", counted)
        profile = fresh_profile(llm("175B"), 16)
        server = WHATIF_SERVERS[1]
        first = RatelPolicy().plan(profile, server)
        second = RatelPolicy().plan(profile, server)
        assert first == second
        assert len(builds) == 1

    def test_benefit_order_is_one_shared_immutable_tuple(self):
        profile = fresh_profile(llm("13B"), 8)
        order = profile.segments_by_benefit()
        assert isinstance(order, tuple)
        assert profile.segments_by_benefit() is order
        with pytest.raises(TypeError):
            order[0] = order[1]  # type: ignore[index]
