"""Tests for the NKL kernel schedules and the Fig. 7 cycle model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dtypes import NcoreDType
from repro.nkl import (
    conv2d_schedule,
    depthwise_schedule,
    elementwise_schedule,
    lstm_schedule,
    matmul_schedule,
    pool_schedule,
)
from repro.nkl.schedule import ProgramShapeError


class TestConvSchedule:
    def test_perfect_64x64_pointwise(self):
        # W=64, K=64, the Fig. 7 running example: one pass, one cycle per
        # input channel.
        s = conv2d_schedule(
            in_channels=256, out_channels=64, h_out=1, w_out=64, filter_h=1, filter_w=1
        )
        assert s.passes == 1
        assert s.inner_cycles == 256
        assert s.macs == 64 * 64 * 256

    def test_utilization_at_most_one(self):
        # Setup, epilogue and bank-halt overheads on a 256-cycle inner loop
        # leave ~96%.
        s = conv2d_schedule(256, 64, 1, 64, 1, 1)
        assert 0.85 < s.utilization <= 1.0
        # A deeper reduction amortizes the overheads away.
        deep = conv2d_schedule(2048, 64, 1, 64, 1, 1)
        assert deep.utilization > 0.95

    def test_small_width_packs_multiple_rows(self):
        # W=14 rounds to 16; 4 output rows share one 64-lane group, so a
        # 14x14 output needs ceil(14/4)=4 spatial passes, not 14.
        s = conv2d_schedule(256, 64, 14, 14, 1, 1)
        assert s.passes == 4

    def test_rotation_reach_widens_the_slot(self):
        # A 7-wide output of a 3x3 filter reads 9 input columns: 16-lane
        # slots, 4 rows per group, 2 passes.  A 1x1 filter (no reach) or
        # stride 2 (reach 1: 8 columns) keeps 8-lane slots and 1 pass.
        assert conv2d_schedule(512, 64, 7, 7, 3, 3).passes == 2
        assert conv2d_schedule(512, 64, 7, 7, 1, 1).passes == 1
        assert conv2d_schedule(512, 64, 7, 7, 3, 3, stride=2).passes == 1

    def test_filter_reach_past_a_group_is_rejected(self):
        # A 65-wide filter at stride 1 rotates 64 lanes: no slot holds it.
        with pytest.raises(ProgramShapeError, match="65-wide filter"):
            conv2d_schedule(1, 8, 1, 1, 1, 65)
        assert conv2d_schedule(1, 8, 1, 1, 1, 65, stride=2).passes == 1

    def test_wide_output_tiles_by_64(self):
        s = conv2d_schedule(64, 64, 1, 224, 1, 1)
        assert s.passes == -(-224 // 64)

    def test_channel_passes(self):
        narrow = conv2d_schedule(64, 64, 8, 8, 3, 3)
        wide = conv2d_schedule(64, 256, 8, 8, 3, 3)
        assert wide.passes == 4 * narrow.passes

    def test_kxk_scales_inner_loop(self):
        one = conv2d_schedule(64, 64, 8, 8, 1, 1)
        nine = conv2d_schedule(64, 64, 8, 8, 3, 3)
        assert nine.inner_cycles == 9 * one.inner_cycles

    def test_bf16_three_cycles_per_issue(self):
        int8 = conv2d_schedule(64, 64, 8, 8, 3, 3, NcoreDType.INT8)
        bf16 = conv2d_schedule(64, 64, 8, 8, 3, 3, NcoreDType.BF16)
        # bf16 inner issues cost 3 clocks (Table II ratio ~3x at high util).
        assert bf16.cycles > 2.5 * int8.inner_cycles * int8.passes

    def test_batch_scales_passes(self):
        b1 = conv2d_schedule(64, 64, 8, 8, 3, 3, batch=1)
        b4 = conv2d_schedule(64, 64, 8, 8, 3, 3, batch=4)
        assert b4.passes == 4 * b1.passes
        assert b4.macs == 4 * b1.macs

    @given(
        st.integers(1, 512),
        st.integers(1, 512),
        st.integers(1, 112),
        st.integers(1, 112),
        st.sampled_from([1, 3, 5, 7]),
    )
    def test_cycles_bounded_below_by_ideal(self, cin, cout, h, w, k):
        s = conv2d_schedule(cin, cout, h, w, k, k)
        ideal = s.macs / 4096
        assert s.cycles >= ideal
        assert 0.0 <= s.utilization <= 1.0


class TestDepthwiseSchedule:
    def test_inner_loop_is_filter_taps_only(self):
        s = depthwise_schedule(channels=64, h_out=8, w_out=8, filter_h=3, filter_w=3)
        assert s.inner_cycles == 9

    def test_low_arithmetic_intensity_vs_conv(self):
        # Depthwise moves far fewer MACs per pass; MobileNet's depthwise
        # layers are what pull whole-network utilization down.
        dw = depthwise_schedule(512, 14, 14, 3, 3)
        conv = conv2d_schedule(512, 512, 14, 14, 1, 1)
        assert dw.macs / dw.cycles < conv.macs / conv.cycles


class TestMatmulSchedule:
    def test_single_tile(self):
        s = matmul_schedule(rows=64, inner=1024, cols=64)
        assert s.passes == 1
        assert s.inner_cycles == 1024

    def test_tiles_rows_and_cols(self):
        s = matmul_schedule(rows=128, inner=100, cols=128)
        assert s.passes == 4

    def test_gnmt_style_bf16(self):
        s = matmul_schedule(1, 2048, 4096, NcoreDType.BF16)
        assert s.macs == 2048 * 4096
        assert s.weight_bytes == 2048 * 4096 * 2  # bf16 weights


class TestOtherSchedules:
    def test_pool_has_no_macs(self):
        s = pool_schedule(64, 8, 8, 3, 3)
        assert s.macs == 0
        assert s.inner_cycles == 9

    def test_elementwise_rows(self):
        s = elementwise_schedule(4096 * 10)
        assert s.passes == 10

    def test_elementwise_int16_doubles_rows(self):
        s8 = elementwise_schedule(4096 * 10, NcoreDType.INT8)
        s16 = elementwise_schedule(4096 * 10, NcoreDType.INT16)
        assert s16.passes == 2 * s8.passes

    def test_lstm_includes_gate_math(self):
        s = lstm_schedule(batch=1, input_size=1024, hidden=1024, dtype=NcoreDType.BF16)
        m = matmul_schedule(1, 2048, 4096, NcoreDType.BF16)
        assert s.macs == m.macs
        assert s.cycles > m.cycles  # the elementwise gates add cycles


class TestWholeNetworkShape:
    """The cycle model must land network totals in the right regime."""

    def test_resnet_conv_body_sub_millisecond(self):
        # The paper measured 0.71 ms for ResNet-50's Ncore portion; the
        # loop-nest model must land in the same regime (0.3..0.9 ms).
        layers = [
            (3, 64, 112, 112, 7),
            *[(64, 64, 56, 56, 1)] * 3,
            *[(64, 64, 56, 56, 3)] * 3,
            *[(64, 256, 56, 56, 1)] * 4,
            *[(256, 128, 28, 28, 1)] * 4,
            *[(128, 128, 28, 28, 3)] * 4,
            *[(128, 512, 28, 28, 1)] * 4,
            *[(256, 256, 14, 14, 3)] * 6,
            *[(512, 256, 14, 14, 1)] * 6,
            *[(256, 1024, 14, 14, 1)] * 6,
            *[(512, 512, 7, 7, 3)] * 3,
            *[(1024, 512, 7, 7, 1)] * 3,
            *[(512, 2048, 7, 7, 1)] * 3,
        ]
        cycles = sum(conv2d_schedule(ci, co, h, w, k, k).cycles for ci, co, h, w, k in layers)
        seconds = cycles / 2.5e9
        assert 0.3e-3 < seconds < 0.9e-3
