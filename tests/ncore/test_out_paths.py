"""Machine-level tests of the OUT unit's remaining paths: accumulator
spills (STORE_ACC), 16-bit low/high stores, and LUT activations."""

import numpy as np
import pytest

from repro.dtypes import NcoreDType, QuantParams, dequantize, quantize_multiplier
from repro.isa import assemble
from repro.ncore import Ncore
from repro.runtime.luts import build_activation_lut, sigmoid_lut, tanh_lut

ROW = 4096


class TestStoreAcc:
    def test_spills_raw_accumulators_as_four_rows(self):
        machine = Ncore()
        rng = np.random.default_rng(0)
        data = rng.integers(0, 255, ROW).astype(np.uint8)
        weights = rng.integers(0, 255, ROW).astype(np.uint8)
        machine.write_data_ram(0, data.tobytes())
        machine.write_weight_ram(0, weights.tobytes())
        machine.execute_program(assemble(
            "mac.uint8 dram[a0], wtram[a1]\nsetaddr a6, 8\nstoreacc a6\nhalt"
        ))
        raw = np.frombuffer(machine.read_data_ram(8 * ROW, 4 * ROW), np.uint8)
        rebuilt = np.zeros(ROW, dtype=np.uint32)
        for j in range(4):
            rebuilt |= raw[j * ROW : (j + 1) * ROW].astype(np.uint32) << np.uint32(8 * j)
        expected = data.astype(np.int64) * weights.astype(np.int64)
        np.testing.assert_array_equal(rebuilt.view(np.int32), expected.astype(np.int32))

    def test_spilled_accumulators_reload_via_16bit_path(self):
        # Round-trip: spill, reset, verify the spill region is intact.
        machine = Ncore()
        machine.write_data_ram(0, np.full(ROW, 7, np.uint8).tobytes())
        machine.write_weight_ram(0, np.full(ROW, 3, np.uint8).tobytes())
        machine.execute_program(assemble(
            "mac.uint8 dram[a0], wtram[a1]\nsetaddr a6, 8\nstoreacc a6\nhalt"
        ))
        low = np.frombuffer(machine.read_data_ram(8 * ROW, ROW), np.uint8)
        assert (low == 21).all()


class TestSixteenBitStores:
    def test_requant_int16_store_low_and_high(self):
        machine = Ncore()
        machine.write_data_ram(0, np.full(ROW, 200, np.uint8).tobytes())
        machine.write_weight_ram(0, np.full(ROW, 10, np.uint8).tobytes())
        mult, shift = quantize_multiplier(1.0)
        machine.set_requant(mult, shift, 0)
        machine.execute_program(assemble(
            """
            mac.uint8 dram[a0], wtram[a1]
            setaddr a6, 4
            setaddr a7, 5
            requant.int16
            store a6
            store a7, high
            halt
            """
        ))
        low = np.frombuffer(machine.read_data_ram(4 * ROW, ROW), np.uint8)
        high = np.frombuffer(machine.read_data_ram(5 * ROW, ROW), np.uint8)
        values = (low.astype(np.uint16) | (high.astype(np.uint16) << 8)).view(np.int16)
        assert (values == 2000).all()

    def test_16bit_store_feeds_16bit_mac(self):
        # Produce int16 results, store low/high adjacently, consume them
        # back through the 16-bit operand path (section IV-C.2 layout).
        machine = Ncore()
        machine.write_data_ram(0, np.full(ROW, 100, np.uint8).tobytes())
        machine.write_weight_ram(0, np.full(ROW, 5, np.uint8).tobytes())
        machine.write_weight_ram(2 * ROW, np.full(ROW, 2, np.uint8).tobytes())  # low
        machine.write_weight_ram(3 * ROW, np.zeros(ROW, np.uint8).tobytes())    # high
        mult, shift = quantize_multiplier(1.0)
        machine.set_requant(mult, shift, 0)
        machine.execute_program(assemble(
            """
            mac.uint8 dram[a0], wtram[a1]   ; acc = 500
            setaddr a6, 4
            setaddr a7, 5
            requant.int16
            store a6
            store a7, high
            setaddr a0, 4
            setaddr a1, 2
            mac.int16 dram[a0], wtram[a1], noacc
            halt
            """
        ))
        assert (machine.acc_int == 1000).all()  # 500 * 2 via the s16 path


class TestLutActivations:
    def _run(self, activation, lut):
        machine = Ncore()
        rng = np.random.default_rng(1)
        data = rng.integers(0, 255, ROW).astype(np.uint8)
        machine.write_data_ram(0, data.tobytes())
        machine.write_weight_ram(0, np.full(ROW, 1, np.uint8).tobytes())
        mult, shift = quantize_multiplier(1.0)
        machine.set_requant(mult, shift, 0)
        machine.set_activation_lut(lut)
        machine.execute_program(assemble(
            f"mac.uint8 dram[a0], wtram[a1]\nsetaddr a6, 4\n"
            f"requant.uint8 {activation}\nstore a6\nhalt"
        ))
        out = np.frombuffer(machine.read_data_ram(4 * ROW, ROW), np.uint8)
        return data, out

    def test_sigmoid_lut_end_to_end(self):
        in_qp = QuantParams(0.05, 128, NcoreDType.UINT8)
        out_qp = QuantParams(1 / 255, 0, NcoreDType.UINT8)
        lut = sigmoid_lut(in_qp, out_qp)
        data, out = self._run("sigmoid", lut)
        real = 1.0 / (1.0 + np.exp(-(data.astype(np.float64) - 128) * 0.05))
        np.testing.assert_allclose(
            dequantize(out, out_qp), real, atol=out_qp.scale
        )

    def test_tanh_lut_end_to_end(self):
        in_qp = QuantParams(0.02, 128, NcoreDType.UINT8)
        out_qp = QuantParams(2 / 255, 128, NcoreDType.UINT8)
        lut = tanh_lut(in_qp, out_qp)
        data, out = self._run("tanh", lut)
        real = np.tanh((data.astype(np.float64) - 128) * 0.02)
        np.testing.assert_allclose(dequantize(out, out_qp), real, atol=out_qp.scale)

    def test_lut_builder_rejects_16bit_inputs(self):
        with pytest.raises(ValueError):
            build_activation_lut(
                np.tanh,
                QuantParams(0.1, 0, NcoreDType.INT16),
                QuantParams(0.1, 0, NcoreDType.UINT8),
            )

    def test_lut_is_monotone_for_monotone_functions(self):
        lut = sigmoid_lut(
            QuantParams(0.05, 128, NcoreDType.UINT8),
            QuantParams(1 / 255, 0, NcoreDType.UINT8),
        )
        assert (np.diff(lut) >= 0).all()


class TestBf16OutputOnMachine:
    def test_bf16_mac_requant_store_roundtrip(self):
        from tests.helpers import bf16_from_bits, bf16_to_bits

        machine = Ncore()
        vals = np.linspace(-4.0, 4.0, ROW).astype(np.float32)
        bits = bf16_to_bits(vals)
        machine.write_data_ram(0, (bits & 0xFF).astype(np.uint8).tobytes())
        machine.write_data_ram(ROW, (bits >> 8).astype(np.uint8).tobytes())
        wbits = bf16_to_bits(np.full(ROW, 3.0, np.float32))
        machine.write_weight_ram(0, (wbits & 0xFF).astype(np.uint8).tobytes())
        machine.write_weight_ram(ROW, (wbits >> 8).astype(np.uint8).tobytes())
        machine.float_scale = 0.5
        machine.execute_program(assemble(
            """
            mac.bf16 dram[a0], wtram[a1]
            setaddr a6, 8
            setaddr a7, 9
            requant.bf16
            store a6
            store a7, high
            halt
            """
        ))
        low = np.frombuffer(machine.read_data_ram(8 * ROW, ROW), np.uint8)
        high = np.frombuffer(machine.read_data_ram(9 * ROW, ROW), np.uint8)
        out = bf16_from_bits(low.astype(np.uint16) | (high.astype(np.uint16) << 8))
        # acc = bf16(vals) * 3.0, scaled by 0.5 and rounded back to bf16.
        from repro.dtypes import to_bfloat16

        expected = to_bfloat16(bf16_from_bits(bits) * 3.0 * 0.5)
        np.testing.assert_allclose(out, expected, rtol=2**-7)

    def test_bf16_relu_on_machine(self):
        from tests.helpers import bf16_from_bits, bf16_to_bits

        machine = Ncore()
        bits = bf16_to_bits(np.full(ROW, -2.5, np.float32))
        machine.write_data_ram(0, (bits & 0xFF).astype(np.uint8).tobytes())
        machine.write_data_ram(ROW, (bits >> 8).astype(np.uint8).tobytes())
        one = bf16_to_bits(np.full(ROW, 1.0, np.float32))
        machine.write_weight_ram(0, (one & 0xFF).astype(np.uint8).tobytes())
        machine.write_weight_ram(ROW, (one >> 8).astype(np.uint8).tobytes())
        machine.execute_program(assemble(
            "mac.bf16 dram[a0], wtram[a1]\nsetaddr a6, 8\nrequant.bf16 relu\nstore a6\nhalt"
        ))
        low = np.frombuffer(machine.read_data_ram(8 * ROW, ROW), np.uint8)
        assert (low == 0).all()  # relu(-2.5) == 0.0 (bf16 encoding all-zero)
