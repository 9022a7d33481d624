"""Ratel's analytic iteration-time model (paper Eqs. 1-8).

Given the amount of activations swapped out of the GPU, ``A_G2M``, the
model predicts the forward and backward stage times as the maximum over
the four contended resources — GPU compute, GPU->host PCIe, host->GPU
PCIe, and the (simplex) SSD array — assuming compute and transfers are
fully overlapped, which is what Ratel's pipelined engine achieves.

With active gradient offloading (§IV-C), the optimizer runs inside the
backward stage, so ``T_iter = T_f + T_b`` (Eq. 1) and the backward SSD
term carries the optimizer's model-state traffic (Eq. 5).

The module also proves the paper's convexity claim numerically:
:func:`is_convex_on_grid` validates Theorems 1-4 on any model/hardware
combination (exercised by the property-based tests).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.hardware.spec import gpu_occupancy
from repro.models.profile import ModelProfile

from .hwprofile import HardwareProfile


@dataclass(frozen=True)
class StageTime:
    """One pipelined stage: total time plus the per-resource components."""

    total: float
    components: dict[str, float]

    @property
    def bottleneck(self) -> str:
        """Name of the resource whose component equals the stage time."""
        return max(self.components, key=self.components.__getitem__)

    def utilization(self, component: str) -> float:
        """Fraction of the stage this resource is busy (component / total)."""
        if self.total <= 0:
            return 0.0
        return self.components[component] / self.total


@dataclass(frozen=True)
class IterationEstimate:
    """Titer for one choice of ``A_G2M`` with full breakdowns."""

    a_g2m: float
    a_to_ssd: float
    recompute_flops: float
    forward: StageTime
    backward: StageTime

    @property
    def total(self) -> float:
        """T_iter = T_f + T_b (Eq. 1)."""
        return self.forward.total + self.backward.total


#: Per-resource component names of each stage, in evaluation order.
_FORWARD_COMPONENTS = ("gpu", "pcie_g2m", "pcie_m2g", "ssd")
_BACKWARD_COMPONENTS = ("gpu", "pcie_g2m", "pcie_m2g", "ssd", "cpu_adam")


class IterationTimeModel:
    """Evaluate Eqs. 2-5 for a model on profiled hardware.

    The model is exact under the full-overlap assumption; Ratel's
    discrete-event engine realises the same schedule, so the two agree to
    within pipeline fill/drain effects (verified in the integration
    tests).

    Algorithm 1 calls :meth:`iteration_time` hundreds of times per plan,
    so every term of Eqs. 4-5 that does not depend on ``A_G2M`` is folded
    once per instance, on first use; a call then costs a few divisions
    plus one O(log S) Eq.-7 lookup.  ``model`` and ``hardware`` are fixed
    for the instance's lifetime.  Each stage's formulas live in one
    private method shared by :meth:`forward_time`/:meth:`backward_time`
    (which also name the components) and :meth:`iteration_time`.
    """

    def __init__(self, model: ModelProfile, hardware: HardwareProfile) -> None:
        self.model = model
        self.hardware = hardware

    @property
    def effective_thp(self) -> float:
        """Peak GPU FLOPS discounted by kernel occupancy at this batch."""
        occupancy = gpu_occupancy(
            self.model.tokens_per_iteration, self.hardware.gpu_saturation_tokens
        )
        return self.hardware.thp_gpu * occupancy

    # -- traffic helpers ---------------------------------------------------

    def a_to_ssd(self, a_g2m: float) -> float:
        """alpha * A_G2M (Eq. 3): activation bytes overflowing to SSDs.

        Main memory absorbs swapped activations first; only the excess
        over ``MEM^avail_M`` continues to the SSD array.
        """
        self._check_a_g2m(a_g2m)
        return max(0.0, a_g2m - self.hardware.mem_avail_main)

    def recompute_flops(self, a_g2m: float) -> float:
        """FLOP_r for the benefit-ordered swap covering ``a_g2m`` bytes (Eq. 7)."""
        return self.model.recompute_flops_for(a_g2m)

    # -- stage times ---------------------------------------------------------

    def forward_time(self, a_g2m: float) -> StageTime:
        """T_f (Eq. 4).

        Components: GPU forward compute; swapped activations leaving the
        GPU; the fp16 parameters entering the GPU; and the SSD array
        reading P16 plus absorbing the activation overflow.
        """
        components = self._forward(a_g2m, self.a_to_ssd(a_g2m))
        return StageTime(max(components), dict(zip(_FORWARD_COMPONENTS, components)))

    def backward_time(self, a_g2m: float) -> StageTime:
        """T_b (Eq. 5), optimizer traffic included via active offloading.

        Components: GPU backward + recompute; gradients leaving the GPU;
        parameters and swapped activations re-entering; and the SSD array
        carrying the optimizer's model states (12P read + 14P written,
        i.e. P32+OS32 both ways plus the fresh P16) plus P16 prefetch for
        the next iteration and the activation overflow read back.
        """
        flop_r = self.recompute_flops(a_g2m)
        components = self._backward(a_g2m, self.a_to_ssd(a_g2m), flop_r)
        return StageTime(max(components), dict(zip(_BACKWARD_COMPONENTS, components)))

    def estimate(self, a_g2m: float) -> IterationEstimate:
        """Full :class:`IterationEstimate` for one swap amount."""
        return IterationEstimate(
            a_g2m=a_g2m,
            a_to_ssd=self.a_to_ssd(a_g2m),
            recompute_flops=self.recompute_flops(a_g2m),
            forward=self.forward_time(a_g2m),
            backward=self.backward_time(a_g2m),
        )

    def iteration_time(self, a_g2m: float) -> float:
        """T_iter = T_f + T_b (Eq. 1).

        Equal, bit for bit, to ``forward_time(a).total +
        backward_time(a).total`` without building either :class:`StageTime`.
        """
        spill = self.a_to_ssd(a_g2m)
        t_f = max(self._forward(a_g2m, spill))
        return t_f + max(self._backward(a_g2m, spill, self.recompute_flops(a_g2m)))

    # -- internals -----------------------------------------------------------

    def _forward(self, a_g2m: float, spill: float) -> tuple[float, ...]:
        """Eq. 4's components, in ``_FORWARD_COMPONENTS`` order."""
        gpu, pcie_m2g, ssd_read_s, bw_gpu, bw_m2s = self._forward_terms
        return gpu, a_g2m / bw_gpu, pcie_m2g, ssd_read_s + spill / bw_m2s

    def _backward(self, a_g2m: float, spill: float, flop_r: float) -> tuple[float, ...]:
        """Eq. 5's components, in ``_BACKWARD_COMPONENTS`` order."""
        (flops, thp, pcie_g2m, p16, bw_gpu, ssd_read, bw_s2m, ssd_write_s, cpu_adam) = (
            self._backward_terms
        )
        return (
            (flops + flop_r) / thp,
            pcie_g2m,
            (p16 + a_g2m) / bw_gpu,
            (ssd_read + spill) / bw_s2m + ssd_write_s,
            cpu_adam,
        )

    @functools.cached_property
    def _forward_terms(self) -> tuple[float, ...]:
        """Eq. 4's ``A_G2M``-independent parts.

        SSD time is simplex (Eq. 2's note): reads and writes share the
        lane budget, each direction at its own rate, so the stage's SSD
        term is ``read / bw_s2m + write / bw_m2s``; here the read is P16
        and the write the activation overflow.
        """
        hw = self._ssd_hardware()
        p16 = self.model.states.p16
        return (
            self.model.forward_flops / self.effective_thp,
            p16 / hw.bw_gpu,
            p16 / hw.bw_s2m,
            hw.bw_gpu,
            hw.bw_m2s,
        )

    @functools.cached_property
    def _backward_terms(self) -> tuple[float, ...]:
        """Eq. 5's ``A_G2M``-independent parts.

        The SSD array reads 12P of optimizer states plus 2P of P16 (the
        overflow read back is added per call) and writes 14P.
        """
        hw = self._ssd_hardware()
        states = self.model.states
        return (
            self.model.backward_flops,
            self.effective_thp,
            states.g16 / hw.bw_gpu,
            states.p16,
            hw.bw_gpu,
            states.optimizer_read + states.p16,
            hw.bw_s2m,
            states.optimizer_write / hw.bw_m2s,
            self.model.n_params / hw.cpu_adam_params_per_s,
        )

    def _ssd_hardware(self) -> HardwareProfile:
        """The hardware, which both stages need to have an SSD array."""
        hw = self.hardware
        if hw.bw_s2m <= 0 or hw.bw_m2s <= 0:
            raise ValueError("model requires SSD traffic but the server has no SSDs")
        return hw

    def _check_a_g2m(self, a_g2m: float) -> None:
        if a_g2m < 0:
            raise ValueError(f"A_G2M cannot be negative, got {a_g2m}")
        limit = self.model.activation_bytes_total
        if a_g2m > limit * (1 + 1e-9):
            raise ValueError(
                f"A_G2M {a_g2m:.3e} exceeds total activations {limit:.3e}"
            )


def is_convex_on_grid(model: IterationTimeModel, n_points: int = 64) -> bool:
    """Check T_iter's convexity in A_G2M on an even grid (paper §IV-D proof).

    Convexity is what lets Algorithm 1 stop at the first inflection; this
    numeric check backs the paper's analytic proof on arbitrary inputs.
    The grid covers the algorithm's valid domain
    ``[A_interBlock, A_all]`` — below the floor the embedding output
    (zero recompute FLOPs, always swapped first) makes FLOP_r flat and
    the curve non-convex, which is precisely why the paper enforces
    ``A_G2M >= A_interBlock``.  A small relative tolerance absorbs
    floating-point noise.
    """
    lo = model.model.inter_block_bytes
    total = model.model.activation_bytes_total
    xs = [lo + (total - lo) * i / (n_points - 1) for i in range(n_points)]
    ys = [model.iteration_time(x) for x in xs]
    scale = max(ys) if ys else 1.0
    for i in range(1, n_points - 1):
        if ys[i] > (ys[i - 1] + ys[i + 1]) / 2 + 1e-9 * scale:
            return False
    return True
