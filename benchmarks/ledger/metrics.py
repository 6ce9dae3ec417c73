"""Every name the ledger declares: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` is generated from these tables (``run.py declare``) and
``test_ledger.py`` checks the two agree.  A per-layer metric lists the
workloads that *measure* it; on any other workload it reads 0, meaning
"this workload made no call into that layer".  ``exact`` marks simulated
values and counts that must be identical between the untraced and the
traced pass of one seed.
"""

from __future__ import annotations

from dataclasses import dataclass

CNN_STEADY, GNMT_STEADY, COLD_START, MACHINE_NKL = (
    "cnn_steady", "gnmt_steady", "cold_start", "machine_nkl",
)

WORKLOADS = {
    CNN_STEADY: (
        "int8 steady state, distinct feeds so replay always misses: codegen "
        "macro-kernels + requantize do the work; compiler, cache and machine none"
    ),
    GNMT_STEADY: (
        "bf16 float-region steady state: same runtime/dispatcher path as "
        "cnn_steady but BLAS + to_bfloat16 kernels, so an int8 kernel change "
        "must read no change here"
    ),
    COLD_START: (
        "time to first result, compile cache written (fresh) then read back "
        "(restored): models, quantize, compiler stages, load-time verify and "
        "first-dispatch benchmark + oracle dominate"
    ),
    MACHINE_NKL: (
        "instruction-level machine on ten real NKL programs in its default "
        "(trace-fusing) mode; bypasses compiler, codegen and runtime entirely"
    ),
}

ZOO_STEADY = (CNN_STEADY, GNMT_STEADY)
ZOO_ALL = (CNN_STEADY, GNMT_STEADY, COLD_START)

CNN_MODELS = ("mobilenet_v1", "ssd_mobilenet_v1", "resnet50_v15")
#: Models whose queries the zoo workloads time (ResNet-50 is compiled and
#: opened by cnn_steady for the simulated metrics but never queried).
QUERIED_MODELS = ("mobilenet_v1", "ssd_mobilenet_v1", "gnmt")
COLD_MODELS = ("mobilenet_v1", "gnmt")
STAGES = ("optimize", "partition", "verify", "plan", "lower", "codegen", "finalize")
STAGE_MODELS = ("gnmt", "resnet50_v15")
STRATEGIES = ("nest", "rowsweep", "seqfuse", "cellfuse")
NKL_KINDS = (
    "conv3x3_s1", "conv3x3_s2", "conv1x1", "depthwise3x3", "matmul_fc",
    "maxpool_rows", "avgpool", "eltwise_add", "conv1d_rotate", "fig6_loop",
)

#: Which workloads run each zoo model.
MODEL_WORKLOADS = {
    "mobilenet_v1": (CNN_STEADY, COLD_START),
    "ssd_mobilenet_v1": (CNN_STEADY,),
    "resnet50_v15": (CNN_STEADY,),
    "gnmt": (GNMT_STEADY, COLD_START),
}

END_TO_END = (
    # name, unit, better, bound
    # Bounds: README, "Host noise and the A/A table".
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    workloads: tuple[str, ...]
    exact: bool = False


def _per_layer() -> list[Layer]:
    out: list[Layer] = []

    def add(name, unit, better, workloads, exact=False):
        out.append(Layer(name, unit, better, tuple(workloads), exact))

    for model, where in MODEL_WORKLOADS.items():
        add(f"models.build_s.{model}", "s", "lower", where)
    for model in CNN_MODELS:
        add(f"quantize.calibrate_s.{model}", "s", "lower", MODEL_WORKLOADS[model])
    for model, where in MODEL_WORKLOADS.items():
        add(f"quantize.convert_s.{model}", "s", "lower", where)
    for model, where in MODEL_WORKLOADS.items():
        add(f"compiler.fresh_s.{model}", "s", "lower", where)
    for model in COLD_MODELS:
        add(f"compiler.restored_s.{model}", "s", "lower", (COLD_START,))
    for stage in STAGES:
        for model in STAGE_MODELS:
            add(f"compiler.stage_s.{stage}.{model}", "s", "lower", MODEL_WORKLOADS[model])
    for counter in ("disk_hits", "misses", "stores"):
        add(f"compiler.cache.{counter}", "count", "lower", (COLD_START,), exact=True)
    for model in COLD_MODELS:
        add(f"compiler.cache.disk_bytes.{model}", "bytes", "lower", (COLD_START,))
    for model, where in MODEL_WORKLOADS.items():
        add(f"runtime.open_s.{model}", "s", "lower", where)
    for model in QUERIED_MODELS:
        add(f"runtime.first_query_s.{model}", "s", "lower", MODEL_WORKLOADS[model])
    for model in COLD_MODELS:
        add(f"runtime.restored_first_query_s.{model}", "s", "lower", (COLD_START,))
    for model in QUERIED_MODELS:
        steady = [w for w in MODEL_WORKLOADS[model] if w in ZOO_STEADY]
        add(f"runtime.query_p50_ms.{model}", "ms", "lower", steady)
    add("runtime.interp_query_ms.mobilenet_v1", "ms", "lower", (CNN_STEADY,))
    add("runtime.interp_query_ms.gnmt", "ms", "lower", (GNMT_STEADY,))
    add("runtime.replay_hit_ms", "ms", "lower", ZOO_STEADY)
    add("runtime.replay.hits", "count", "lower", ZOO_STEADY, exact=True)
    add("runtime.replay.misses", "count", "lower", ZOO_STEADY, exact=True)
    for model, where in MODEL_WORKLOADS.items():
        add(f"codegen.coverage.{model}", "ratio", "higher", where, exact=True)
    add("codegen.benchmarks", "count", "lower", ZOO_ALL, exact=True)
    add("codegen.oracle_checks", "count", "higher", ZOO_ALL, exact=True)
    for strategy in STRATEGIES:
        add(f"codegen.wins.{strategy}", "count", "higher", ZOO_ALL)
    add("codegen.requant_apply_ns_per_elem", "ns", "lower", (CNN_STEADY,))
    add("dtypes.requantize_ns_per_elem", "ns", "lower", (CNN_STEADY,))
    add("dtypes.to_bfloat16_ns_per_elem", "ns", "lower", (GNMT_STEADY,))
    for model, where in MODEL_WORKLOADS.items():
        steady = [w for w in where if w in ZOO_STEADY]
        add(f"soc.timing_model_ms.{model}", "ms", "lower", steady)
    for model in CNN_MODELS:
        add(f"soc.ncore_ms.{model}", "ms", "lower", (CNN_STEADY,), exact=True)
        add(f"soc.x86_ms.{model}", "ms", "lower", (CNN_STEADY,), exact=True)
    add("paper_ncore_err_pct", "%", "lower", (CNN_STEADY,), exact=True)
    for kind in NKL_KINDS:
        add(f"ncore.machine.run_ms.{kind}", "ms", "lower", (MACHINE_NKL,))
    add("ncore.machine.sim_cycles_per_host_s", "1/s", "higher", (MACHINE_NKL,))
    add("ncore.machine.sim_instr_per_host_s", "1/s", "higher", (MACHINE_NKL,))
    add("ncore.machine.cycles_total", "cycles", "lower", (MACHINE_NKL,), exact=True)
    for kind in NKL_KINDS:
        add(f"ncore.fastpath.speedup_vs_interp.{kind}", "x", "higher", (MACHINE_NKL,))
    add("ncore.fastpath.hit_ratio", "ratio", "higher", (MACHINE_NKL,), exact=True)
    add("ncore.fastpath.fused_trip_share", "ratio", "higher", (MACHINE_NKL,), exact=True)
    for kind in NKL_KINDS:
        add(f"nkl.emit_ms.{kind}", "ms", "lower", (MACHINE_NKL,))
    add("isa.assemble_instr_per_s", "1/s", "higher", (MACHINE_NKL,))
    return out


PER_LAYER = _per_layer()

#: The contract's run length; every workload measures for this long.
RUN_SECONDS = 18


def benchmark_json() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": layer.name, "unit": layer.unit, "better": layer.better}
            for layer in PER_LAYER
        ],
    }


def fill_per_layer(workload: str, measured: dict[str, float]) -> dict[str, float]:
    """Every declared per-layer metric for one workload's traced run.

    Raises if the workload failed to measure a metric it owns, or measured
    one it does not own; metrics other workloads own read 0.
    """
    owned = {layer.name for layer in PER_LAYER if workload in layer.workloads}
    if set(measured) - owned:
        raise KeyError(
            f"{workload}: per-layer metrics not owned by it {sorted(set(measured) - owned)}"
        )
    if owned - set(measured):
        raise KeyError(
            f"{workload}: declared per-layer metrics missing {sorted(owned - set(measured))}"
        )
    return {
        layer.name: float(measured[layer.name]) if workload in layer.workloads else 0.0
        for layer in PER_LAYER
    }
