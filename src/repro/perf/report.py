"""One-shot reproduction report: every paper table and figure in one run.

``python -m repro reproduce`` (or :func:`generate_report`) builds all four
benchmark systems and renders the paper's evaluation with the published
numbers alongside the simulated ones.  It is the only generator of those
numbers: EXPERIMENTS.md embeds its sections verbatim, and
``tests/test_cli.py`` fails when one of them drifts.
"""

from __future__ import annotations

from repro.models import PAPER_CHARACTERISTICS
from repro.ncore import NcoreConfig
from repro.perf.published import (
    MODELS,
    PAPER_SATURATION_CORES,
    PAPER_WORKLOAD_SPLIT_MS,
    PUBLISHED_LATENCY_MS,
    PUBLISHED_THROUGHPUT_IPS,
    ncore_per_ice_speedup,
    ncore_vnni_core_equivalence,
    per_core_resnet_ips,
    per_ice_resnet_ips,
)
from repro.perf.scaling import cores_to_saturate, expected_throughput, observed_throughput
from repro.perf.system import get_system
from repro.soc import CNS, HASWELL, SKYLAKE_SERVER
from repro.soc.multisocket import MultiSocketSystem
from repro.soc.x86 import X86Core

CNNS = MODELS[:3]
CORES = range(1, 9)


def render_table(title: str, header: list[str], rows: list[list]) -> str:
    """One fixed-width report section (``repro explore`` reuses it)."""
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(header))
    ]
    bar = "-" * (sum(widths) + 2 * (len(widths) - 1))
    def line(cells):
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths, strict=False))
    return "\n".join(["", title, bar, line(header), bar, *(line(r) for r in rows), bar])


def _fmt(value, digits=2):
    return "-" if value is None else f"{value:,.{digits}f}"


def figure_series(system, fn) -> list[int]:
    """One simulated Fig. 13 / 14 row at 1..8 x86 cores: the batched Ncore
    time against the x86 portion with its non-batchable share."""
    portion = system.x86_portion()
    nonbatchable = portion.total_seconds * (1 - portion.batchable_fraction)
    t_nc = system.ncore_seconds_batched(64)
    return [round(fn(t_nc, portion.total_seconds, n, nonbatchable)) for n in CORES]


def saturation_cores(series: list[int]) -> int:
    """The first core count at which a Fig. 13 series reaches its maximum."""
    return series.index(max(series)) + 1


def generate_report() -> str:
    """Build everything and render the full reproduction report."""
    sections: list[str] = ["Ncore / CHA reproduction report", "=" * 31]

    # Table II.
    cfg, core = NcoreConfig(), X86Core()
    from repro.dtypes import NcoreDType

    sections.append(render_table(
        "Table II: peak throughput (GOPS)",
        ["Processor", "8b", "bf16", "FP32"],
        [
            ["1x CNS x86", round(core.peak_ops(NcoreDType.INT8) / 1e9),
             round(core.peak_ops(NcoreDType.BF16) / 1e9), round(core.peak_ops(None) / 1e9)],
            ["Ncore", round(cfg.peak_ops_per_second(1) / 1e9),
             round(cfg.peak_ops_per_second(3) / 1e9), "N/A"],
        ],
    ))

    # Table III.
    specs = (CNS, HASWELL, SKYLAKE_SERVER)
    sections.append(render_table(
        "Table III: CNS vs Haswell vs Skylake Server microarchitecture",
        ["", *(spec.name for spec in specs)],
        [[label, *(fmt.format(**vars(spec)) for spec in specs)] for label, fmt in (
            ("L1I cache", "{l1i_kb}KB, {l1i_ways}-way"),
            ("L1D cache", "{l1d_kb}KB, {l1d_ways}-way"),
            ("L2 cache", "{l2_kb}KB, {l2_ways}-way"),
            ("L3 cache/core", "{l3_per_core_mb}MB shared"),
            ("LD buffer size", "{load_buffer}"),
            ("ST buffer size", "{store_buffer}"),
            ("ROB size", "{rob_size}"),
            ("Scheduler size", "{scheduler_size}"),
        )],
    ))

    # Table V.
    rows = []
    for key in MODELS:
        info = PAPER_CHARACTERISTICS[key]
        graph = info.build()
        macs, weights = graph.count_macs(), graph.count_weights()
        rows.append([
            info.display, f"{macs / 1e9:.2f}B", f"{info.paper_macs / 1e9:.2f}B",
            f"{weights / 1e6:.1f}M", f"{info.paper_weights / 1e6:.1f}M",
        ])
    sections.append(render_table(
        "Table V: benchmark characteristics (measured vs paper)",
        ["Model", "MACs", "paper", "Weights", "paper"],
        rows,
    ))

    # Tables VII + VIII.
    systems = {key: get_system(key) for key in MODELS}
    latency_ms = {k: systems[k].single_stream_latency_seconds() * 1e3 for k in MODELS}
    offline_ips = {k: systems[k].offline_throughput_ips() for k in MODELS}
    sections.append(render_table(
        "Table VII: SingleStream latency (ms)",
        ["System", "MobileNet", "ResNet-50", "SSD-MobileNet"],
        [["Ncore (simulated)"] + [f"{latency_ms[k]:.2f}" for k in CNNS]]
        + [[vendor] + [_fmt(row[k]) for k in CNNS] for vendor, row in PUBLISHED_LATENCY_MS.items()],
    ))
    sections.append(render_table(
        "Table VIII: Offline throughput (IPS)",
        ["System", "MobileNet", "ResNet-50", "SSD-MobileNet", "GNMT"],
        [["Ncore (simulated)"] + [f"{offline_ips[k]:,.1f}" for k in MODELS]]
        + [[vendor] + [_fmt(row[k]) for k in MODELS]
           for vendor, row in PUBLISHED_THROUGHPUT_IPS.items()],
    ))

    # Section VI-B: ResNet-50 per NNP-I ICE and per VNNI Xeon core, then
    # GNMT, whose per-offload TensorFlow overhead mature software removes.
    paper_ips = PUBLISHED_THROUGHPUT_IPS["Centaur Ncore"]
    resnet_ips = offline_ips["resnet50_v15"]
    sections.append(render_table(
        "Section VI-B: normalized ResNet-50 Offline comparisons",
        ["Metric", "paper", "simulated"],
        [
            ["Ncore ResNet-50 IPS", f"{paper_ips['resnet50_v15']:.0f}", f"{resnet_ips:.0f}"],
            ["vs one 4096-B NNP-I ICE", f"{ncore_per_ice_speedup():.2f}x",
             f"{resnet_ips / per_ice_resnet_ips():.2f}x"],
            ["VNNI Xeon core equivalence", f"{ncore_vnni_core_equivalence():.1f}",
             f"{resnet_ips / per_core_resnet_ips():.1f}"],
        ],
    ))
    sections.append(render_table(
        "Section VI-B: GNMT (bf16, batch 64, 2.3 GHz)",
        ["Quantity", "paper", "simulated"],
        [
            ["Offline throughput (IPS)", _fmt(paper_ips["gnmt"]), f"{offline_ips['gnmt']:.2f}"],
            ["SingleStream latency (ms)", "not submitted", f"{latency_ms['gnmt']:.1f}"],
            ["Offline, mature software (IPS)", '"increase significantly"',
             f"{systems['gnmt'].offline_throughput_ips(mature_software=True):.1f}"],
        ],
    ))

    # Server scenario (engine-simulated; post-dates the paper's v0.5
    # submission, which covered SingleStream/Offline only).
    from repro.perf.serving import run_server

    rows = []
    for key in MODELS:
        for sockets in (1, 2):
            result = run_server(systems[key], queries=512, seed=0, sockets=sockets)
            rows.append([
                PAPER_CHARACTERISTICS[key].display if sockets == 1 else "",
                sockets,
                f"{result.offered_qps:,.1f}",
                f"{result.sustained_qps:,.1f}",
                f"{result.p50_latency_ms:.2f}",
                f"{result.p99_latency_ms:.2f}",
                f"{result.mean_batch_size:.2f}",
            ])
    sections.append(render_table(
        "MLPerf Server scenario (engine-simulated, Poisson arrivals, seed 0)",
        ["Model", "Sockets", "Offered QPS", "Sustained", "p50 ms", "p99 ms", "Batch"],
        rows,
    ))

    # Scale-out (section I: "further scale out performance via multiple sockets").
    rows = []
    for sockets in (1, 2, 4):
        multi = MultiSocketSystem(sockets=sockets)
        latency = multi.single_stream_latency_seconds(latency_ms["resnet50_v15"] / 1e3)
        rows.append([
            sockets, multi.total_x86_cores(), f"{multi.offline_throughput_ips(resnet_ips):,.0f}",
            f"{latency * 1e3:.2f}", f"{multi.scaling_factor() / sockets:.1%}",
        ])
    sections.append(render_table(
        "Scale-out: ResNet-50 across CHA sockets",
        ["Sockets", "x86 cores", "Offline IPS", "SingleStream ms", "Efficiency"],
        rows,
    ))

    # Table IX.
    splits = {key: systems[key].workload_split() for key in CNNS}
    rows = []
    for key in CNNS:
        split, paper = splits[key], PAPER_WORKLOAD_SPLIT_MS[key]
        rows.append([
            PAPER_CHARACTERISTICS[key].display,
            f"{split['ncore'] * 1e3:.2f} ({split['ncore'] / split['total']:.0%})",
            f"{paper['ncore']:.2f} ({paper['ncore'] / paper['total']:.0%})",
            f"{split['x86'] * 1e3:.2f}",
            f"{paper['x86']:.2f}",
        ])
    sections.append(render_table(
        "Table IX: Ncore/x86 split, ms (measured vs paper)",
        ["Model", "Ncore", "paper", "x86", "paper"],
        rows,
    ))

    # Figs 13/14 on the simulated portions, then on the paper's Table IX
    # portions (which the paper reads with the whole x86 share batchable).
    names = {key: PAPER_CHARACTERISTICS[key].display for key in CNNS}
    paper_portions = {
        k: (PAPER_WORKLOAD_SPLIT_MS[k]["ncore"] * 1e-3, PAPER_WORKLOAD_SPLIT_MS[k]["x86"] * 1e-3)
        for k in CNNS
    }
    header = ["Model"] + [str(n) for n in CORES]

    def figure(title, fn, series):
        sections.append(render_table(
            f"{title} vs x86 cores", header, [[names[k]] + series[k] for k in CNNS],
        ))
        sections.append(render_table(
            f"{title} at the paper's Table IX portions", header,
            [[names[k]] + [round(fn(*paper_portions[k], n)) for n in CORES] for k in CNNS],
        ))

    expected = {key: figure_series(systems[key], expected_throughput) for key in CNNS}
    figure("Fig. 13: expected max IPS", expected_throughput, expected)
    sections.append(render_table(
        "Fig. 13 saturation: x86 cores to reach the Ncore bound",
        ["Model", "paper (Fig. 13)", "paper Table IX", "simulated"],
        [[names[k], PAPER_SATURATION_CORES[k], cores_to_saturate(*paper_portions[k]),
          saturation_cores(expected[k])] for k in CNNS],
    ))
    figure("Fig. 14: observed IPS", observed_throughput,
           {key: figure_series(systems[key], observed_throughput) for key in CNNS})

    # Signed error of every simulated number the paper also measured.
    errors = {
        "Table VII latency": {
            k: (latency_ms[k], PUBLISHED_LATENCY_MS["Centaur Ncore"][k]) for k in CNNS
        },
        "Table VIII throughput": {k: (offline_ips[k], paper_ips[k]) for k in MODELS},
        "Table IX Ncore portion": {
            k: (splits[k]["ncore"] * 1e3, PAPER_WORKLOAD_SPLIT_MS[k]["ncore"]) for k in CNNS
        },
        "Table IX x86 portion": {
            k: (splits[k]["x86"] * 1e3, PAPER_WORKLOAD_SPLIT_MS[k]["x86"]) for k in CNNS
        },
    }
    rows = []
    for label, pairs in errors.items():
        pct = {k: (ours / paper - 1) * 100 for k, (ours, paper) in pairs.items()}
        rows.append([label, *(f"{pct[k]:+.1f}" if k in pct else "-" for k in MODELS),
                     f"{sum(map(abs, pct.values())) / len(pct):.1f}"])
    sections.append(render_table(
        "Error vs paper (%): simulated / paper - 1",
        ["Quantity", "MobileNet", "ResNet-50", "SSD-MobileNet", "GNMT", "mean |err|"],
        rows,
    ))
    return "\n".join(sections)
