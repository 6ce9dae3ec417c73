"""The interpreter's int32 NPU issue against the saturating int64 spec.

``Ncore(fastpath=False)`` runs an unpredicated 8-bit MAC / ADD / SUB /
MIN / MAX issue without ``data_shift`` or neighbour forwarding in int32
whenever the NPU's saturation proof clears it (``npu.execute_int8``), and
by the int64 saturating fold otherwise.  Every case here is checked
against a pure-int64 issue loop written out below — the accumulator
bytes, the MAC total, the performance counters and the RAM read counts —
with the accumulator preloaded one below, at and one above the proof's
peak on both signs, so the fallback runs and saturates.
"""

import numpy as np
import pytest

from repro.dtypes import ACC_MAX, ACC_MIN
from repro.isa import assemble
from repro.ncore import Ncore
from repro.ncore import npu as npu_unit

LANES = 4096
OPS = ("mac", "add", "sub", "min", "max")


def _bound(op: str, dtype: str, zero: tuple[int, int]) -> int:
    """The proof's per-issue bound, restated: lane magnitude plus offset."""
    lane = 128 if dtype == "int8" else 255
    d, w = lane + zero[0], lane + zero[1]
    return {"mac": d * w, "add": d + w, "sub": d + w}.get(op, max(d, w))


def _combine(op: str, d: np.ndarray, w: np.ndarray) -> np.ndarray:
    return {
        "mac": d * w, "add": d + w, "sub": d - w,
        "min": np.minimum(d, w), "max": np.maximum(d, w),
    }[op]


def _reference(case: dict, rows: tuple[np.ndarray, np.ndarray], acc: np.ndarray,
               mask: np.ndarray | None) -> np.ndarray:
    """The issue loop in int64: widen, offset, shift, slide, combine, then
    fold and saturate to the 32-bit accumulator."""
    acc = acc.astype(np.int64)
    for t in range(case["issues"]):
        d, w = (r[t].view(np.int8) if case["dtype"] == "int8" else r[t] for r in rows)
        d, w = d.astype(np.int64), w.astype(np.int64)
        if case["zoff"]:
            d, w = d - case["zero"][0], w - case["zero"][1]
        d = (d >> case["shift"]) if case["shift"] else d
        if case["neighbor"]:
            d = np.roll(d, 256)
        combined = _combine(case["op"], d, w)
        if not case["acc"]:
            new = combined
        elif case["op"] in ("min", "max"):
            new = _combine(case["op"], acc, combined)
        else:
            new = acc + combined
        new = np.clip(new, ACC_MIN, ACC_MAX)
        acc = new if mask is None else np.where(mask, new, acc)
    return acc.astype(np.int32)


def _case(op="mac", dtype="uint8", zero=(0, 0), zoff=False, acc=True, issues=1,
          shift=0, neighbor=False, pred=False) -> dict:
    return dict(op=op, dtype=dtype, zero=zero, zoff=zoff, acc=acc, issues=issues,
                shift=shift, neighbor=neighbor, pred=pred)


def _extremes(case: dict) -> tuple[int, int, int, int]:
    """Raw bytes driving the combined value to its largest and to its
    smallest: (dmax, wmax, dmin, wmin)."""
    signed = case["dtype"] == "int8"
    zd, zw = case["zero"] if case["zoff"] else (0, 0)

    def combined(pair: tuple[int, int]) -> int:
        d, w = (c - 256 if signed and c > 127 else c for c in pair)
        return int(_combine(case["op"], np.int64(d - zd), np.int64(w - zw)))

    pairs = sorted(((a, b) for a in (0, 127, 128, 255) for b in (0, 127, 128, 255)),
                   key=combined)
    return (*pairs[-1], *pairs[0])


def _run(case: dict, delta: int, seed: int):
    """Run ``case`` with lanes 0 / 1 preloaded ``delta`` past the proof's
    peak (positive / negative) and driven by their extreme operands;
    returns the machine and the expected accumulator."""
    rng = np.random.default_rng(seed)
    machine = Ncore(fastpath=False)
    zero = case["zero"]
    machine.set_zero_offsets(*zero)
    issues = case["issues"]
    rows = tuple(rng.integers(0, 256, (issues, LANES), dtype=np.uint8) for _ in range(2))
    dmax, wmax, dmin, wmin = _extremes(case)
    rows[0][:, 0], rows[1][:, 0], rows[0][:, 1], rows[1][:, 1] = dmax, wmax, dmin, wmin
    machine.write_data_ram(0, rows[0].tobytes())
    machine.write_weight_ram(0, rows[1].tobytes())
    headroom = ACC_MAX - issues * _bound(case["op"], case["dtype"], zero if case["zoff"] else (0, 0))
    acc = rng.integers(-(1 << 20), 1 << 20, LANES).astype(np.int32)
    acc[0], acc[1] = headroom + delta, -(headroom + delta)
    machine.acc_int = acc.copy()
    mask = None
    if case["pred"]:
        mask = rng.random(LANES) < 0.5
        machine.pred_regs[2] = mask
    flags = [name for name, on in (("zoff", case["zoff"]), ("noacc", not case["acc"]),
                                   ("neighbor", case["neighbor"]), ("pred2", case["pred"])) if on]
    shift = f">>{case['shift']}" if case["shift"] else ""
    issue = f"{case['op']}.{case['dtype']} dram[a0++]{shift}, wtram[a1++]"
    body = ", ".join([issue, *flags])
    source = f"setaddr a0, 0\nsetaddr a1, 0\nloop {issues} {{\n  {body}\n}}\nhalt"
    machine.execute_program(assemble(source))
    return machine, _reference(case, rows, acc, mask)


def _assert_matches(machine: Ncore, want: np.ndarray, case: dict) -> None:
    assert machine.acc_int.dtype == np.int32
    assert machine.acc_int.tobytes() == want.tobytes()
    issues = case["issues"]
    macs = issues * LANES if case["op"] == "mac" else 0
    assert machine.total_macs == macs
    assert machine.total_issues == issues + 3  # two setaddr and the halt
    assert machine.data_ram.reads == machine.weight_ram.reads == issues
    perf = {name: counter.value for name, counter in machine.perf_counters.items()}
    assert perf == {
        "cycles": machine.total_cycles, "instructions": machine.total_instructions,
        "macs": macs, "dma_stall": 0,
    }
    assert machine.total_cycles == issues + 3


NARROW_CASES = [
    _case(op, dtype, zero, zoff=zero != (0, 0), acc=acc)
    for op in OPS
    for dtype in ("uint8", "int8")
    for zero in ((0, 0), (128, 128), (255, 0))
    for acc in (True, False)
]


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize(
    "case", NARROW_CASES,
    ids=lambda c: f"{c['op']}.{c['dtype']}-z{c['zero'][0]}_{c['zero'][1]}"
                  + ("" if c["acc"] else "-noacc"),
)
def test_single_issue_equals_the_spec_around_the_peak(case, delta):
    machine, want = _run(case, delta, seed=7 + delta)
    _assert_matches(machine, want, case)


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("dtype", ["uint8", "int8"])
def test_multi_issue_runs_into_saturation(op, dtype):
    # Eight issues from one below the eight-issue peak stay in int32; from
    # three above it the last issue falls to the spec, which saturates the
    # extreme lanes wherever the bound is reached.
    for zero in ((0, 0), (128, 255)):
        case = _case(op, dtype, zero, zoff=zero != (0, 0), issues=8)
        for delta, seed in ((-1, 11), (3, 12)):
            machine, want = _run(case, delta, seed)
            _assert_matches(machine, want, case)


@pytest.mark.parametrize("form", [
    dict(pred=True), dict(shift=2), dict(neighbor=True),
    dict(pred=True, shift=1, neighbor=True, acc=False),
])
@pytest.mark.parametrize("op", OPS)
def test_the_spec_forms_are_unchanged(form, op):
    # Predicated, pre-shifted and neighbour-forwarded issues keep the
    # int64 path; they must still agree with the loop, at the peak too.
    for dtype in ("uint8", "int8"):
        for delta in (0, 1):
            case = _case(op, dtype, (128, 128), zoff=True, issues=3, **form)
            machine, want = _run(case, delta, seed=5)
            _assert_matches(machine, want, case)


@pytest.mark.parametrize("op", OPS)
def test_the_proof_is_tight(op, monkeypatch):
    # At the peak the int32 form runs; one past it the spec does (min and
    # max never leave the range).  Fails when the bound or the peak
    # comparison is off by one either way.
    calls = []
    spec = npu_unit.execute_int
    monkeypatch.setattr(npu_unit, "execute_int", lambda *args: calls.append(1) or spec(*args))
    for dtype in ("uint8", "int8"):
        case = _case(op, dtype)
        for delta, spec_runs in ((0, 0), (1, 0 if op in ("min", "max") else 1)):
            calls.clear()
            machine, want = _run(case, delta, seed=3)
            assert len(calls) == spec_runs
            _assert_matches(machine, want, case)


def test_one_past_the_peak_saturates():
    # The extreme lane of a uint8 MAC from one past the peak: 255 * 255
    # lands one above ACC_MAX, so only the saturating fold gets ACC_MAX.
    case = _case("mac", "uint8")
    machine, want = _run(case, 1, seed=2)
    assert want[0] == ACC_MAX
    assert machine.acc_int[0] == ACC_MAX
    _assert_matches(machine, want, case)
