"""Ncore's debug features: event logging, perf counters, n-step stepping.

Reproduces the section IV-F / Fig. 10 workflow: a convolution kernel is
instrumented with event markers, run under the debug runtime, and the
resulting trace is printed — then the same kernel is single-stepped with
the n-step breakpoint and watched with a wraparound perf counter.
Finally the same run is captured through `repro.obs` and exported as a
Perfetto-openable Chrome trace (see docs/observability.md).

Run:  python examples/debug_tracing.py
"""

import numpy as np

from repro import obs
from repro.isa import assemble
from repro.ncore import Ncore, NcoreConfig

KERNEL = """
; pointwise conv pass with event markers (cf. Fig. 10's runtime trace)
event 1                      ; marker: weights ready
setaddr a0, 0
setaddr a3, 0
setaddr a5, 0
event 2                      ; marker: compute start
loop 16 {
  bypass n0, dram[a0++]
  broadcast64 n1, wtram[a3], a5, inc
  mac.uint8 n0, n1
}
event 3                      ; marker: compute done
setaddr a6, 100
requant.uint8 relu
store a6
event 4                      ; marker: results stored
halt
"""

EVENT_NAMES = {1: "weights_ready", 2: "compute_start", 3: "compute_done", 4: "stored"}


def stage_inputs(machine: Ncore) -> None:
    rng = np.random.default_rng(3)
    for c in range(16):
        row = np.tile(rng.integers(0, 8, 64).astype(np.uint8), 64)
        machine.write_data_ram(c * 4096, row.tobytes())
    machine.write_weight_ram(0, rng.integers(0, 8, 4096).astype(np.uint8).tobytes())


def main() -> None:
    program = assemble(KERNEL)

    print("== event logging (no performance penalty) ==")
    machine = Ncore()
    stage_inputs(machine)
    result = machine.execute_program(program)
    print(f"   ran {result.instructions} instructions in {result.cycles} cycles")
    for event in machine.event_log.drain():
        name = EVENT_NAMES.get(event.tag, f"tag{event.tag}")
        print(f"   cycle {event.cycle:4d}  pc {event.pc:2d}  {name}")

    print("\n== performance counters ==")
    print(f"   macs counter:         {machine.perf_counters['macs'].value:,}")
    print(f"   instructions counter: {machine.perf_counters['instructions'].value}")
    print(f"   total MAC ops:        {machine.total_macs:,} "
          f"({machine.total_macs // result.cycles:,}/cycle avg)")

    print("\n== wraparound breakpoint ==")
    machine = Ncore()
    stage_inputs(machine)
    # Arm the MAC counter to wrap (and break) after 8 fused iterations.
    machine.perf_counters["macs"].configure(
        offset=(1 << 48) - 8 * 4096, break_on_wrap=True
    )
    machine.load_program(program)
    result = machine.run()
    print(f"   stopped: {result.stop_reason!r} after {result.cycles} cycles "
          f"(mid-loop, as configured)")

    print("\n== n-step breakpointing ==")
    machine.perf_counters["macs"].configure(0, break_on_wrap=False)
    machine.n_step = 4
    steps = 0
    while not machine.halted and steps < 50:
        result = machine.run()
        steps += 1
        if result.stop_reason == "n_step":
            print(f"   step-stop at cycle {machine.total_cycles:4d}  "
                  f"pc={machine.pc}  acc[0]={machine.acc_int[0]}")
    print(f"   resumed to halt after {steps} stops")

    print("\n== full-stack tracing (repro.obs) ==")
    # The same workflow through the observability subsystem: build the
    # machine with a live observation (tracer + metrics registry, hardware
    # counters bound), run under the profiler (its spans land on the
    # machine's tracer), export Perfetto JSON and a Fig. 10 view.
    from repro.runtime.profiler import Profiler

    config = NcoreConfig()
    tracer, metrics = observation = obs.observe(clock_hz=config.clock_hz)
    machine = Ncore(config, obs=observation)
    stage_inputs(machine)
    profiler = Profiler(machine)
    program = profiler.instrument(
        [
            ("compute", assemble(
                "setaddr a0, 0\nsetaddr a3, 0\nsetaddr a5, 0\n"
                "loop 16 {\n"
                "  bypass n0, dram[a0++]\n"
                "  broadcast64 n1, wtram[a3], a5, inc\n"
                "  mac.uint8 n0, n1\n"
                "}"
            )),
            ("writeback", assemble("setaddr a6, 100\nrequant.uint8 relu\nstore a6")),
        ]
    )
    profiler.run(program)
    obs.write_chrome_trace("debug_tracing.trace.json", tracer, metrics)
    print(obs.render_tracer(tracer, tracks=["ncore"]))
    print(f"   macs (hw counter view): {metrics.get('ncore.hw.macs').value:,}")
    print("   wrote debug_tracing.trace.json (open at https://ui.perfetto.dev)")


if __name__ == "__main__":
    main()
