"""Ncore's debug features: event logging, perf counters, n-step stepping.

Reproduces the section IV-F / Fig. 10 workflow: the DMA + MAC-loop
microkernel that ``repro run --trace`` profiles (``repro.nkl.catalog``) is
instrumented with event markers, run under the debug runtime, and the
resulting trace is printed — then the same kernel is single-stepped with
the n-step breakpoint and watched with a wraparound perf counter.
Finally the same run is captured through `repro.obs` and exported as a
Perfetto-openable Chrome trace (see docs/observability.md).

Run:  python examples/debug_tracing.py
"""

from repro import obs
from repro.isa import assemble
from repro.ncore import Ncore, NcoreConfig
from repro.nkl import catalog
from repro.runtime.profiler import Profiler

#: The region names of the microkernel ``repro run --trace`` profiles; the
#: profiler tags each region's opening edge 0, 1, 2, ... in order.
EVENT_NAMES = [name for name, _ in catalog.MICROKERNEL] + ["end"]


def staged_machine(observation=obs.NULL_OBSERVATION) -> Ncore:
    """A machine with the microkernel's operands and DMA table staged."""
    machine = Ncore(obs=observation)
    machine.dma_read.configure_window(0)
    catalog.stage_microkernel(machine, 0)
    return machine


def instrumented(machine: Ncore) -> tuple[Profiler, list]:
    """The microkernel, each region bracketed by event markers."""
    profiler = Profiler(machine)
    regions = [(name, assemble(region)) for name, region in catalog.MICROKERNEL]
    return profiler, profiler.instrument(regions)


def main() -> None:
    print("== event logging (no performance penalty) ==")
    machine = staged_machine()
    _, program = instrumented(machine)
    result = machine.execute_program(program)
    print(f"   ran {result.instructions} instructions in {result.cycles} cycles")
    for event in machine.event_log.drain():
        print(f"   cycle {event.cycle:4d}  pc {event.pc:2d}  {EVENT_NAMES[event.tag]}")

    print("\n== performance counters ==")
    print(f"   macs counter:         {machine.perf_counters['macs'].value:,}")
    print(f"   instructions counter: {machine.perf_counters['instructions'].value}")
    print(f"   total MAC ops:        {machine.total_macs:,} "
          f"({machine.total_macs // result.cycles:,}/cycle avg)")

    print("\n== wraparound breakpoint ==")
    machine = staged_machine()
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
    tracer, metrics = observation = obs.observe(clock_hz=NcoreConfig().clock_hz)
    machine = staged_machine(observation)
    profiler, program = instrumented(machine)
    profiler.run(program)
    obs.write_chrome_trace("debug_tracing.trace.json", tracer, metrics)
    print(obs.render_tracer(tracer, tracks=["ncore"]))
    print(f"   macs (hw counter view): {metrics.get('ncore.hw.macs').value:,}")
    print("   wrote debug_tracing.trace.json (open at https://ui.perfetto.dev)")


if __name__ == "__main__":
    main()
