"""Writing a custom kernel in Ncore's internal code representation.

Shows the NKL author's workflow (section V-B): lay out data for the W x K
mapping, emit the Fig. 6-style fused inner loop, execute it on the
instruction-level simulator, and check it bit-exactly against the numpy
quantized reference — with the disassembly and cycle accounting printed.

Run:  python examples/custom_kernel.py
"""

import numpy as np

from repro.dtypes import NcoreDType, QuantParams
from repro.isa import disassemble, encode
from repro.ncore import Ncore
from repro.nkl.programs import emit_tiled_matmul_program
from repro.runtime.qkernels import qfully_connected


def main() -> None:
    rng = np.random.default_rng(5)
    m, c, n = 16, 48, 8  # 16 tokens x 48 features -> 8 outputs
    data = rng.integers(0, 255, size=(m, c)).astype(np.uint8)
    weights = rng.integers(0, 255, size=(c, n)).astype(np.uint8)
    in_qp = QuantParams(0.02, 128, NcoreDType.UINT8)
    w_qp = QuantParams(0.01, 120, NcoreDType.UINT8)
    out_qp = QuantParams(0.08, 10, NcoreDType.UINT8)

    machine = Ncore()
    program, result = emit_tiled_matmul_program(
        machine, data, weights, in_qp, w_qp, out_qp, activation="relu"
    )

    print("== generated kernel (internal code representation) ==")
    print(disassemble(program))
    words = [encode(inst) for inst in program]
    print(f"   {len(program)} instructions, {16 * len(words)} bytes of IRAM "
          f"(128-bit words)")

    print("== executing on the instruction-level simulator ==")
    run = machine.execute_program(program)
    print(f"   {run.cycles} cycles for a {m}x{c} @ {c}x{n} quantized matmul")
    print(f"   one clock per reduction step: inner loop = {c} cycles")
    print(f"   MAC ops: {machine.total_macs:,} "
          f"(lanes busy {machine.total_macs / (run.cycles * 4096):.0%} of cycles)")

    print("\n== golden-model check (numpy quantized reference) ==")
    out = result.read(machine)
    expected = qfully_connected(data, weights, None, in_qp, w_qp, out_qp, "relu")
    match = np.array_equal(out, expected)
    print(f"   bit-exact match: {match}")
    assert match
    print(f"   sample row: machine {out[0][:8].tolist()}")
    print(f"               numpy   {expected[0][:8].tolist()}")


if __name__ == "__main__":
    main()
