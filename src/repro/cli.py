"""Command-line interface: ``python -m repro <command>``.

One command per job:

- ``info``                  -- the CHA/Ncore configuration and peak numbers
- ``selftest``              -- run the power-on self-test on a fresh SoC model
- ``models``                -- the model zoo with Table V characteristics
- ``reproduce``             -- regenerate every paper table/figure in one run
- ``serve <model>``         -- MLPerf Server scenario on the event engine
  (``--slo-ms`` sets the latency target the SLO figures read;
  ``--trace``/``--telemetry``/``--prometheus``/``--harvest``/
  ``--flamegraph`` write the telemetry surfaces)
- ``top <frames.jsonl>``    -- ``top``-style dashboard over the frames
  ``serve --telemetry`` wrote
- ``compile <model|path>``  -- compile through the staged driver; ``--dump-ir``
  prints per-stage IR, ``-O{0,1,2}`` picks the pipeline preset
- ``run <model|path>``      -- execute one query; ``--sanitize`` verifies it,
  ``--trace FILE`` writes its Perfetto trace and prints the Fig. 10 text
- ``lint <model|path>``     -- run the static analyzers; non-zero exit on errors
- ``explore``               -- design-space sweep with an energy/area Pareto
  frontier (``--grid``/``--models``/``--json``/``--csv``)
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

# Mirrors ``repro.runtime.TIER_CHOICES``; kept as a literal so building the
# argument parser (``repro --help``) never imports the runtime stack.  A
# test asserts the two stay in sync.
_TIER_CHOICES = ("auto", "interpreter", "replay", "codegen")


def _cmd_info(args) -> int:
    from repro.ncore import NcoreConfig
    from repro.soc import ChaSoc

    cfg = NcoreConfig()
    soc = ChaSoc()
    print("CHA SoC model")
    print(f"  x86 cores:        {len(soc.cores)} (CNS, {cfg.clock_hz / 1e9:.1f} GHz)")
    print(f"  ring bandwidth:   {soc.ring.bandwidth_per_direction / 1e9:.0f} GB/s per direction")
    print(f"  DRAM bandwidth:   {soc.dram.peak_bandwidth / 1e9:.1f} GB/s (4x DDR4-3200)")
    print(f"  shared L3:        {soc.l3.size_bytes // (1 << 20)} MB")
    print("Ncore")
    print(f"  slices:           {cfg.slices} x 256 B = {cfg.row_bytes} lanes")
    print(f"  SRAM:             {cfg.total_ram_bytes // (1 << 20)} MB "
          f"(data {cfg.data_ram_bytes // (1 << 20)} + weight {cfg.weight_ram_bytes // (1 << 20)})")
    print(f"  peak int8:        {cfg.peak_ops_per_second(1) / 1e12:.2f} TOPS")
    print(f"  peak bf16:        {cfg.peak_ops_per_second(3) / 1e12:.2f} TOPS")
    print(f"  SRAM throughput:  {cfg.sram_bandwidth_bytes_per_second() / 1e12:.1f} TB/s")
    return 0


def _cmd_selftest(args) -> int:
    from repro.runtime import NcoreKernelDriver
    from repro.soc import ChaSoc

    driver = NcoreKernelDriver(ChaSoc())
    driver.probe()
    report = driver.self_test()
    for name in ("ram_march_ok", "mac_datapath_ok", "dma_loopback_ok", "debug_fabric_ok"):
        status = "PASS" if getattr(report, name) else "FAIL"
        print(f"  {name:<18} {status}")
    if report.failures:
        for failure in report.failures:
            print(f"  failure: {failure}")
        return 1
    print("POST passed")
    return 0


def _cmd_models(args) -> int:
    from repro.models import PAPER_CHARACTERISTICS

    print(f"{'key':<18} {'model':<18} {'MACs':>8} {'weights':>9} {'MACs/wt':>8}")
    for key, info in PAPER_CHARACTERISTICS.items():
        graph = info.build()
        macs, weights = graph.count_macs(), graph.count_weights()
        print(f"{key:<18} {info.display:<18} {macs / 1e9:7.2f}B {weights / 1e6:8.1f}M "
              f"{macs / weights:8.0f}")
    return 0


def _cmd_serve(args) -> int:
    from repro.models import PAPER_CHARACTERISTICS
    from repro.obs import NULL_METRICS, NULL_TRACER, MetricsRegistry, Observation, Tracer
    from repro.perf.serving import run_server
    from repro.perf.system import get_system

    key = _resolve_model_key(args.model)
    if key is None:
        print(f"unknown model {args.model!r}; try one of "
              f"{sorted(PAPER_CHARACTERISTICS)}", file=sys.stderr)
        return 2
    if args.queries < 1:
        print("--queries must be at least 1", file=sys.stderr)
        return 2
    if args.qps is not None and args.qps <= 0:
        print("--qps must be positive", file=sys.stderr)
        return 2
    if args.slo_ms is not None and args.slo_ms <= 0:
        print("--slo-ms must be positive", file=sys.stderr)
        return 2
    slo_seconds = args.slo_ms * 1e-3 if args.slo_ms is not None else None
    telemetry_interval = args.interval if args.telemetry else None
    tracer = Tracer() if args.trace else NULL_TRACER
    registry = MetricsRegistry() if args.telemetry or args.prometheus else NULL_METRICS
    # The (cached) system build is setup: only the run is observed.
    system = get_system(key)
    result = run_server(
        system,
        qps=args.qps,
        queries=args.queries,
        seed=args.seed,
        max_batch=args.max_batch,
        max_wait=args.max_wait_us * 1e-6,
        cores=args.cores,
        sockets=args.sockets,
        slo_latency_seconds=slo_seconds,
        telemetry_interval=telemetry_interval,
        obs=Observation(tracer, registry),
    )
    print(f"{PAPER_CHARACTERISTICS[key].display} Server scenario "
          f"({result.queries} queries, seed {result.seed}, "
          f"{result.sockets} socket{'s' if result.sockets > 1 else ''})")
    print(f"  offered load:    {result.offered_qps:10,.1f} QPS")
    print(f"  sustained:       {result.sustained_qps:10,.1f} QPS")
    print(f"  latency p50:     {result.p50_latency_ms:10.3f} ms")
    print(f"  latency p90:     {result.p90_latency_seconds * 1e3:10.3f} ms")
    print(f"  latency p99:     {result.p99_latency_ms:10.3f} ms")
    print(f"  mean batch size: {result.mean_batch_size:10.2f} "
          f"(max {result.max_batch}, wait {result.max_wait_seconds * 1e6:.0f} us)")
    if result.slo is not None:
        status = "OK" if result.slo["budget_remaining"] >= 0 else "VIOLATED"
        print(f"  SLO {args.slo_ms:.1f} ms:    "
              f"attainment {result.slo['attainment'] * 100:6.2f}%  "
              f"burn {result.slo['burn_rate']:.2f}x  [{status}]")
    if args.trace:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(args.trace, tracer, registry)
        print(f"  wrote {args.trace} ({len(tracer.spans)} spans, "
              f"{len(tracer.trace_ids())} query trace trees; "
              "open at https://ui.perfetto.dev)")
    if args.telemetry:
        from repro.obs.top import write_frames

        count = write_frames(args.telemetry, result.frames)
        print(f"  wrote {args.telemetry} ({count} telemetry frames; "
              f"view with: repro top {args.telemetry})")
    if args.prometheus:
        from repro.obs.prometheus import write_prometheus

        write_prometheus(args.prometheus, registry)
        print(f"  wrote {args.prometheus} ({len(registry.names())} metrics, "
              "OpenMetrics text)")
    if args.harvest or args.flamegraph:
        from repro.obs.attrib import collapsed_stacks, model_run_records, write_harvest
        from repro.runtime.executor import TIER_TIMING_MODEL

        # The analytic serving path never runs kernels, but its cycle
        # budget still decomposes over the compiled artifact: one record
        # per segment, labelled with the timing-model tier.
        records = model_run_records(
            system.compiled, TIER_TIMING_MODEL, system.dma_bytes_per_cycle,
            batch=max(1, round(result.mean_batch_size)), count=result.queries,
        )
    if args.harvest:
        count = write_harvest(args.harvest, records)
        print(f"  wrote {args.harvest} ({count} segment-feature records)")
    if args.flamegraph:
        with open(args.flamegraph, "w", encoding="utf-8") as handle:
            handle.write(collapsed_stacks(records) + "\n")
        print(f"  wrote {args.flamegraph} (collapsed stacks for flamegraph.pl)")
    return 0


def _cmd_top(args) -> int:
    from repro.obs.top import read_frames, render_frames

    try:
        frames = read_frames(args.frames)
    except FileNotFoundError:
        print(f"no such frame file: {args.frames}", file=sys.stderr)
        return 2
    if not frames:
        print(f"no frames in {args.frames}", file=sys.stderr)
        return 1
    count = render_frames(frames, sys.stdout, ansi=not args.no_ansi)
    print(f"({count} frames from {args.frames})")
    return 0


def _cmd_reproduce(args) -> int:
    from repro.perf.report import generate_report

    print(generate_report())
    return 0


def _zoo_pipeline(info, opt_level: str, seed: int):
    """Compose the zoo compile pipeline: optimize -> quantize -> backend.

    Zoo models follow the benchmark path — GCL optimization on the float
    graph, then PTQ conversion (uint8; bf16 for GNMT), then the backend
    stages.  Built as a custom :class:`~repro.compiler.Pipeline` so the
    quantize step shows up in ``--dump-ir`` and stage stats like any
    other stage.  The calibration seed is part of the pipeline id (and
    therefore the cache key): different calibration data is a different
    artifact.
    """
    from repro.compiler import Pipeline, Stage, get_pipeline

    def quantize(ctx):
        nodes_before = len(ctx.graph.nodes)
        ctx.graph = info.convert(ctx.graph, seed=seed)
        return {"mode": info.precision, "nodes_before": nodes_before,
                "nodes_after": len(ctx.graph.nodes)}

    preset = get_pipeline(opt_level)
    stages = [s for s in preset.stages if s.name == "optimize"]
    stages.append(Stage("quantize", quantize, "PTQ conversion (Table V path)"))
    stages.extend(s for s in preset.stages if s.name != "optimize")
    return Pipeline(f"zoo-{opt_level}-s{seed}", stages)


def _resolve_target(target: str, pipeline_id: str, seed: int):
    """Resolve a ``compile`` / ``run`` target into (name, graph, pipeline).

    A zoo model key (or unique prefix) builds the float graph and compiles
    through :func:`_zoo_pipeline`, so ``O0`` (``--no-optimize``) skips
    optimization in both commands; anything else is loaded as a serialized
    GIR and compiled with the ``pipeline_id`` preset.  Raises
    ``FileNotFoundError`` when the target is neither.
    """
    from repro.models import PAPER_CHARACTERISTICS

    key = _resolve_model_key(target)
    if key is not None:
        info = PAPER_CHARACTERISTICS[key]
        return key, info.build(), _zoo_pipeline(info, pipeline_id, seed)
    from repro.graph.frontends import load_graph

    return target, load_graph(target), pipeline_id


def _unknown_target(target: str) -> int:
    from repro.models import PAPER_CHARACTERISTICS

    print(f"unknown model or graph path {target!r}; zoo keys: "
          f"{sorted(PAPER_CHARACTERISTICS)}", file=sys.stderr)
    return 2


def _print_ir_dump(result, dump: str) -> int:
    """Print collected IR snapshots: full text for one stage, or the
    input IR plus per-stage unified diffs for ``all``."""
    from repro.compiler import ir_diff

    snapshots = result.snapshots
    if dump != "all":
        if dump not in snapshots:
            print(f"no IR snapshot for stage {dump!r}; have "
                  f"{', '.join(snapshots)}", file=sys.stderr)
            return 2
        print(f"=== IR after {dump} ===")
        print(snapshots[dump])
        return 0
    names = list(snapshots)
    print(f"=== IR: {names[0]} ===")
    print(snapshots[names[0]])
    for previous, current in zip(names, names[1:], strict=False):
        print(f"=== IR after {current} ===")
        diff = ir_diff(snapshots[previous], snapshots[current],
                       before_name=previous, after_name=current)
        print(diff if diff else "(unchanged)")
    return 0


def _cmd_compile(args) -> int:
    from repro import obs
    from repro.compiler import USE_DEFAULT_CACHE, CompileCache, compile_graph
    from repro.ncore.config import CHA_NCORE
    from repro.soc import CHA_SOC

    pipeline_id = "O0" if args.no_optimize else args.opt_level
    try:
        name, graph, pipeline = _resolve_target(args.target, pipeline_id, args.seed)
    except FileNotFoundError:
        return _unknown_target(args.target)
    if args.cache_dir:
        cache = CompileCache(directory=args.cache_dir)
    elif args.no_cache:
        cache = None
    else:
        cache = USE_DEFAULT_CACHE
    observation = obs.observe() if args.dump_ir is not None else obs.NULL_OBSERVATION
    result = compile_graph(
        graph, pipeline=pipeline, name=name, cache=cache,
        collect_ir=args.dump_ir is not None, obs=observation,
    )
    compiled = result.model
    print(compiled.summary())
    clock_hz = CHA_NCORE.clock_hz
    cycles = compiled.ncore_cycles(CHA_SOC.ncore_dma_bandwidth / clock_hz)
    print(f"Ncore portion: {cycles:,} cycles "
          f"({cycles / clock_hz * 1e6:.1f} us at {clock_hz / 1e9:g} GHz)")
    if result.cache_hit:
        print(f"  cache hit ({result.key[:16]}...)")
    for stats in result.stats:
        print(f"  {stats.summary()}")
    if args.dump_ir is not None:
        spans = observation.tracer.spans_on("compiler")
        print(f"  {len(spans)} compiler spans recorded")
        return _print_ir_dump(result, args.dump_ir)
    return 0


#: The DMA + MAC-loop microkernel, as named regions: stage one weight row
#: through DMA (via the coherent L3 path), run a short MAC loop, write the
#: requantized row back.  ``repro run --trace`` profiles the regions;
#: ``repro run --sanitize`` verifies the joined program.
_MICROKERNEL = (
    ("stage_weights", "dmastart 0\ndmawait 1"),
    ("compute",
     "setaddr a0, 0\nsetaddr a3, 0\nsetaddr a5, 0\n"
     "loop 16 {\n"
     "  bypass n0, dram[a0]\n"
     "  broadcast64 n1, wtram[a3], a5, inc\n"
     "  mac.uint8 n0, n1\n"
     "}"),
    ("writeback", "setaddr a6, 64\nrequant.uint8 relu\nstore a6"),
)


def _microkernel_dma() -> dict:
    """The microkernel's DMA descriptor table."""
    from repro.ncore import DmaDescriptor

    return {0: DmaDescriptor(False, True, ram_row=0, rows=1, dram_addr=0, through_l3=True)}


def _stage_microkernel(machine, dram_address: int) -> None:
    """Stage the microkernel's operands on ``machine``: one payload row in
    system memory at ``dram_address`` (the DMA source, window offset 0) and
    in data RAM row 0, plus the descriptor table."""
    payload = np.tile(np.arange(64, dtype=np.uint8), 64).tobytes()
    machine.memory.write(dram_address, payload)
    for index, descriptor in _microkernel_dma().items():
        machine.set_dma_descriptor(index, descriptor)
    machine.write_data_ram(0, payload)


def _sanitize_run(executor, compiled, result, feeds) -> int:
    """The ``repro run --sanitize`` verification pass; returns an exit code.

    Composes one shared-model report: the static hazard rules over the
    compiled loadables, a two-run output determinism check, and the
    microkernel on the executor's machine — first the program verifier and
    hazard pass over the joined program, then (when those are clean) a
    two-machine determinism check, a shadow-SRAM-sanitized run and the
    fastpath-vs-interpreter equivalence oracle.
    """
    from repro.analyze import (
        AnalysisReport,
        analyze_model,
        analyze_program,
        analyze_program_hazards,
        render_text,
    )
    from repro.analyze.diagnostics import diag
    from repro.isa import assemble
    from repro.sanitize import check_determinism, oracle_compare
    from repro.sanitize.sanitizer import DIVERGENCE

    report = AnalysisReport()
    # 1. Static layer: the happens-before hazard rules over the schedule.
    static = analyze_model(compiled)
    report.extend(
        d for d in static.diagnostics if d.rule.startswith("hazard.")
    )
    # 2. Determinism: the same feeds must produce byte-identical outputs.
    rerun = executor.execute(feeds)
    for name, value in result.outputs.items():
        if np.asarray(value).tobytes() != np.asarray(rerun.outputs[name]).tobytes():
            report.extend([diag(
                DIVERGENCE,
                f"two runs with identical feeds disagree on output {name!r}",
                artifact=compiled.name, element=name,
            )])
    # 3. The microkernel on the executor's machine: verified statically
    # before anything executes it.
    machine = executor.mapping.machine()
    source = "\n".join(region for _, region in _MICROKERNEL) + "\nhalt"
    program = assemble(source)
    kernel = analyze_program(program, machine.config, name="microkernel")
    kernel.merge(analyze_program_hazards(
        program, _microkernel_dma(), machine.config, name="microkernel",
    ))
    report.merge(kernel)
    if kernel.ok:
        def setup(fresh) -> None:
            fresh.dma_read.configure_window(0)
            _stage_microkernel(fresh, 0)

        report.merge(check_determinism(
            source, config=machine.config, setup=setup, name=compiled.name,
        ))
        # Shadow-SRAM sanitizer: every access of the run checked, the
        # host's staging writes included.
        sanitizer = machine.arm_sanitizer(True)
        try:
            _stage_microkernel(machine, executor.driver.dma_address_for(0))
            machine.execute_program(program)
            report.merge(sanitizer.report)
            checked = (sanitizer.stats["reads_checked"]
                       + sanitizer.stats["writes_checked"])
            print(f"  sanitizer: {checked} accesses and "
                  f"{sanitizer.stats['dma_transfers']} transfer(s) checked")
        finally:
            machine.arm_sanitizer(False)
        # Equivalence oracle: fastpath and interpreter must agree bit-for-bit.
        report.merge(oracle_compare(
            source, config=machine.config, setup=setup, name=compiled.name,
        ))
    print(f"  sanitize {compiled.name}: ", end="")
    print(render_text(report))
    return 0 if report.ok else 1


def _cmd_run(args) -> int:
    from repro import obs
    from repro.compiler import compile_graph
    from repro.models import PAPER_CHARACTERISTICS
    from repro.runtime import NcoreExecutor
    from repro.soc import CHA_SOC, ChaSoc

    try:
        name, graph, pipeline = _resolve_target(
            args.path, "O0" if args.no_optimize else "O2", args.seed
        )
    except FileNotFoundError:
        return _unknown_target(args.path)
    observation = (
        obs.observe(clock_hz=CHA_SOC.clock_hz) if args.trace else obs.NULL_OBSERVATION
    )
    tracer, metrics = observation
    # A run compiles once: the in-memory cache could only leak what an
    # earlier call in the same process compiled (and its spans) into this one.
    compiled = compile_graph(
        graph, pipeline=pipeline, name=name, cache=None, obs=observation
    ).model
    executor = NcoreExecutor(
        compiled, soc=ChaSoc(obs=observation), verify=False, policy=args.tier
    )
    info = PAPER_CHARACTERISTICS.get(name)
    if info is not None:
        feeds = info.sample_input(compiled.graph, seed=args.seed)
    else:
        rng = np.random.default_rng(args.seed)
        feeds = {}
        for input_name in compiled.graph.inputs:
            tensor = compiled.graph.tensor(input_name)
            feeds[input_name] = (
                rng.integers(0, 100, size=tensor.shape).astype(np.int32)
                if tensor.type.dtype == "int32"
                else rng.uniform(-1, 1, size=tensor.shape).astype(np.float32)
            )
    result = executor.execute(feeds)
    for output_name, value in result.outputs.items():
        value = np.asarray(value)
        print(f"  output {output_name}: shape {value.shape}, "
              f"range [{value.min():.4g}, {value.max():.4g}]")
    timing = result.timing
    print(f"  latency: {timing.total_seconds * 1e6:.1f} us "
          f"(Ncore {timing.ncore_fraction:.0%}, "
          f"tier {executor.last_tier})")
    exit_code = 0
    if args.sanitize:
        exit_code = _sanitize_run(executor, compiled, result, feeds)
    if args.trace:
        # The simulator's own event streams (event log, DMA, L3).
        _trace_microkernel(executor)
    executor.close()
    if args.trace:
        obs.write_chrome_trace(args.trace, tracer, metrics)
        tracks = tracer.tracks()
        print(f"  trace: {len(tracer.spans)} spans on {len(tracks)} tracks "
              f"({', '.join(tracks)})")
        print(f"  wrote {args.trace} (open at https://ui.perfetto.dev)")
        print(obs.render_tracer(tracer, tracks=["ncore", "delegate.schedule"]))
        counters = obs.render_counters(metrics)
        if counters:
            print(counters)
    return exit_code


def _lint_target_graph(target: str, seed: int):
    """Resolve a lint target into (display name, converted graph).

    Zoo model keys follow the benchmark path (GCL pipeline + int8
    quantization, bf16 for GNMT); anything else is treated as a serialized
    GIR path and linted as-is.
    """
    from repro.compiler import optimize_graph
    from repro.models import PAPER_CHARACTERISTICS

    key = _resolve_model_key(target)
    if key is not None:
        info = PAPER_CHARACTERISTICS[key]
        graph = info.build()
        optimize_graph(graph, in_place=True)
        return key, info.convert(graph, seed=seed)
    from repro.graph.frontends import load_graph

    return target, load_graph(target)


def _cmd_lint(args) -> int:
    from repro.analyze import (
        AnalysisReport,
        analyze_graph,
        analyze_model,
        build_loadable_hazard_graph,
        render_dot,
        render_json,
        render_text,
    )
    from repro.compiler import compile_graph

    try:
        name, graph = _lint_target_graph(args.target, args.seed)
    except FileNotFoundError:
        return _unknown_target(args.target)
    if args.graph_only and (args.hazards or args.dot):
        print("--hazards/--dot need the lowered loadables; "
              "drop --graph-only", file=sys.stderr)
        return 2
    suppress = tuple(args.suppress or ())
    if args.graph_only:
        report = analyze_graph(graph, suppress=suppress)
    else:
        # Lint the full artifact stack: compile without the strict gate so
        # every finding is reported here instead of raised mid-lowering.
        compiled = compile_graph(graph, pipeline="O0", name=name, verify=False).model
        report = analyze_model(compiled, suppress=suppress)
        if args.dot:
            graphs = [
                build_loadable_hazard_graph(compiled.graph, loadable)
                for _, loadable in sorted(compiled.loadables.items())
            ]
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(render_dot(graphs, name=name) + "\n")
            print(f"  wrote {args.dot} ({len(graphs)} happens-before graphs)")
    if args.hazards:
        report = AnalysisReport(
            [d for d in report.diagnostics if d.rule.startswith("hazard.")]
        )
    if args.json:
        print(render_json(report))
    else:
        label = "lint --hazards" if args.hazards else "lint"
        print(f"{label} {name}: ", end="")
        print(render_text(report, verbose=args.verbose))
    return 0 if report.ok else 1


def _resolve_model_key(name: str) -> str | None:
    """Match a zoo key exactly, by prefix, or by substring (must be unique)."""
    from repro.models import PAPER_CHARACTERISTICS

    if name in PAPER_CHARACTERISTICS:
        return name
    matches = [k for k in PAPER_CHARACTERISTICS if k.startswith(name)]
    if not matches:
        matches = [k for k in PAPER_CHARACTERISTICS if name in k]
    return matches[0] if len(matches) == 1 else None


def _trace_microkernel(executor) -> None:
    """Run the instrumented microkernel on the executor's Ncore machine, so
    the trace carries genuine simulator event streams (event log, DMA
    engine, cache) and not just the NKL cycle schedule."""
    from repro.isa import assemble
    from repro.runtime.profiler import Profiler

    machine = executor.mapping.machine()
    _stage_microkernel(machine, executor.driver.dma_address_for(0))
    profiler = Profiler(machine)
    program = profiler.instrument(
        [(name, assemble(region)) for name, region in _MICROKERNEL]
    )
    profiler.run(program)


def _cmd_explore(args) -> int:
    from repro.explore import DEFAULT_GRID, enumerate_grid, parse_grid, run_sweep

    try:
        axes = parse_grid(args.grid) if args.grid else DEFAULT_GRID
        points = enumerate_grid(axes)
    except ValueError as error:
        print(f"bad --grid: {error}", file=sys.stderr)
        return 2
    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    try:
        result = run_sweep(
            points,
            models=models,
            seed=args.seed,
            execute_queries=args.execute,
        )
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(result.to_json() + "\n")
        print(f"wrote {args.json}")
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(result.to_csv())
        print(f"wrote {args.csv}")
    print(result.render(top=args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Ncore/CHA reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="show the modelled hardware configuration")
    sub.add_parser("selftest", help="run the power-on self-test")
    sub.add_parser("models", help="list the model zoo (Table V)")
    sub.add_parser("reproduce", help="regenerate every paper table/figure")
    serve = sub.add_parser(
        "serve", help="run the MLPerf Server scenario on the event engine"
    )
    serve.add_argument("model", help="zoo model key or unique prefix, e.g. resnet")
    serve.add_argument("--qps", type=float, default=None,
                       help="offered Poisson load (default: 70%% of Offline capacity)")
    serve.add_argument("--queries", type=int, default=512)
    serve.add_argument("--max-batch", type=int, default=8,
                       help="dynamic batching: seal at this many queries")
    serve.add_argument("--max-wait-us", type=float, default=200.0,
                       help="dynamic batching: seal after this many microseconds")
    serve.add_argument("--cores", type=int, default=8, help="x86 cores per socket")
    serve.add_argument("--sockets", type=int, default=1)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--slo-ms", type=float, default=None,
                       help="latency target for the SLO attainment / burn "
                            "rate (MLPerf Server shape: 1%% error budget)")
    serve.add_argument("--interval", type=float, default=0.05, metavar="SECONDS",
                       help="telemetry frame sampling interval in simulated "
                            "seconds (with --telemetry; default 0.05)")
    serve.add_argument("--trace", metavar="FILE",
                       help="write a Perfetto trace with one causally linked "
                            "span tree per query")
    serve.add_argument("--telemetry", metavar="FILE",
                       help="write JSONL telemetry frames (view with repro top)")
    serve.add_argument("--prometheus", metavar="FILE",
                       help="write the metrics registry as OpenMetrics text")
    serve.add_argument("--harvest", metavar="FILE",
                       help="write the JSONL segment-feature harvest "
                            "(cycle-attribution records)")
    serve.add_argument("--flamegraph", metavar="FILE",
                       help="write collapsed stacks (flamegraph.pl input)")
    top = sub.add_parser(
        "top", help="top-style dashboard over serve --telemetry frames"
    )
    top.add_argument("frames", help="JSONL frame file written by serve --telemetry")
    top.add_argument("--no-ansi", action="store_true",
                     help="append frames instead of redrawing in place")
    lint = sub.add_parser(
        "lint", help="run the static analyzers over a model or GIR file"
    )
    lint.add_argument(
        "target", help="zoo model key (or unique prefix) or serialized GIR path"
    )
    lint.add_argument("--json", action="store_true",
                      help="emit the report as JSON instead of text")
    lint.add_argument("--graph-only", action="store_true",
                      help="lint only the GIR, skip lowering the Ncore segments")
    lint.add_argument("--suppress", action="append", metavar="RULE",
                      help="drop findings of this rule id (repeatable)")
    lint.add_argument("--verbose", action="store_true",
                      help="include info-severity notes in the text output")
    lint.add_argument("--hazards", action="store_true",
                      help="report only the happens-before hazard rules "
                           "(hazard.*)")
    lint.add_argument("--dot", metavar="FILE",
                      help="write the per-loadable happens-before graphs as "
                           "Graphviz dot")
    lint.add_argument("--seed", type=int, default=0,
                      help="calibration seed for the quantized zoo path")
    compile_cmd = sub.add_parser(
        "compile", help="compile a zoo model or serialized GIR through the staged driver"
    )
    compile_cmd.add_argument(
        "target",
        help="zoo model key (or unique prefix) or path prefix of the .json/.npz pair",
    )
    compile_cmd.add_argument(
        "-O", "--opt-level", choices=["O0", "O1", "O2"], default="O2",
        help="pipeline preset (default O2: full GCL pipeline to fixed point)",
    )
    compile_cmd.add_argument("--no-optimize", action="store_true",
                             help="alias for -O O0")
    compile_cmd.add_argument(
        "--dump-ir", nargs="?", const="all", default=None, metavar="STAGE",
        help="print per-stage IR (diffs between stages; name a stage for its "
             "full snapshot)",
    )
    compile_cmd.add_argument("--no-cache", action="store_true",
                             help="bypass the compile cache")
    compile_cmd.add_argument("--cache-dir", metavar="DIR",
                             help="use (and persist) an on-disk compile cache")
    compile_cmd.add_argument("--seed", type=int, default=0,
                             help="calibration seed for the quantized zoo path")
    explore = sub.add_parser(
        "explore",
        help="sweep design points; report the energy/area Pareto frontier",
    )
    explore.add_argument(
        "--grid", metavar="SPEC",
        help="axes to sweep, e.g. 'slices=8,16,32 clock_ghz=2.0,2.5' "
             "(default: the stock 324-point grid)",
    )
    explore.add_argument(
        "--models", default="mobilenet_v1",
        help="comma-separated zoo models to score (default: mobilenet_v1)",
    )
    explore.add_argument("--json", metavar="PATH",
                         help="write the full result set as JSON")
    explore.add_argument("--csv", metavar="PATH",
                         help="write the per-point table as CSV")
    explore.add_argument("--seed", type=int, default=0,
                         help="seed for the execution bit-equality check")
    explore.add_argument(
        "--execute", type=int, default=0, metavar="N",
        help="run N queries at the best point through the cycle-level "
             "runtime and assert bit-equality with the reference executor",
    )
    explore.add_argument("--top", type=int, default=20,
                         help="show only the best N feasible points (0 = all)")
    run_cmd = sub.add_parser("run", help="run a zoo model or serialized GIR")
    run_cmd.add_argument(
        "path",
        help="zoo model key (or unique prefix) or path prefix of the "
             ".json/.npz pair",
    )
    run_cmd.add_argument("--no-optimize", action="store_true",
                         help="compile at O0 (as compile --no-optimize)")
    run_cmd.add_argument(
        "--tier", choices=_TIER_CHOICES, default="auto",
        help="graph mode: auto (replay + Tier-3 codegen when compiled at O2), "
             "interpreter (per-node walk), replay, or codegen",
    )
    run_cmd.add_argument("--seed", type=int, default=0)
    run_cmd.add_argument(
        "--sanitize", action="store_true",
        help="verify the run: static hazard rules, output determinism, a "
             "shadow-SRAM-sanitized microkernel and the fastpath oracle",
    )
    run_cmd.add_argument(
        "--trace", metavar="FILE",
        help="write a Perfetto trace of the run (compile, driver, delegate "
             "schedule, a profiled DMA + MAC microkernel) and print its "
             "Fig. 10-style text",
    )
    return parser


_COMMANDS = {
    "info": _cmd_info,
    "selftest": _cmd_selftest,
    "models": _cmd_models,
    "reproduce": _cmd_reproduce,
    "serve": _cmd_serve,
    "top": _cmd_top,
    "compile": _cmd_compile,
    "run": _cmd_run,
    "lint": _cmd_lint,
    "explore": _cmd_explore,
}


def main(argv: list[str] | None = None) -> int:
    from repro.graph.gir import GraphError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except GraphError as error:  # a malformed GIR file: a usage error
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
