"""Published MLPerf Inference v0.5 closed-division results (Tables VI-IX).

These are the numbers the paper itself compares against — retrieved from
mlperf.org entries 0.5-22/23/24/28/29/32/33 — reproduced here as the fixed
comparison baselines.  The Centaur rows are the paper's *measured* results;
the benchmark harness regenerates our simulated equivalents next to them.
"""

from __future__ import annotations

MODELS = ("mobilenet_v1", "resnet50_v15", "ssd_mobilenet_v1", "gnmt")

# Table VI: types of MLPerf submitters.
SUBMITTER_TYPES = {
    "Chip vendors": ["Centaur", "Intel", "NVIDIA", "Qualcomm"],
    "Cloud services": ["Alibaba", "Google"],
    "Systems (Intel-based)": ["DellEMC", "Inspur", "Tencent"],
    "Chip startups": ["FuriosaAI", "Habana Labs", "Hailo"],
}

# Table VII: SingleStream latency in milliseconds (None = not submitted).
PUBLISHED_LATENCY_MS: dict[str, dict[str, float | None]] = {
    "Centaur Ncore": {
        "mobilenet_v1": 0.33,
        "resnet50_v15": 1.05,
        "ssd_mobilenet_v1": 1.54,
        "gnmt": None,
    },
    "NVIDIA AGX Xavier": {
        "mobilenet_v1": 0.58,
        "resnet50_v15": 2.04,
        "ssd_mobilenet_v1": 1.50,
        "gnmt": None,
    },
    "Intel i3 1005G1": {
        "mobilenet_v1": 3.55,
        "resnet50_v15": 13.58,
        "ssd_mobilenet_v1": 6.67,
        "gnmt": None,
    },
    "(2x) Intel CLX 9282": {
        "mobilenet_v1": 0.49,
        "resnet50_v15": 1.37,
        "ssd_mobilenet_v1": 1.40,
        "gnmt": None,
    },
    "(2x) Intel NNP-I 1000": {
        "mobilenet_v1": None,
        "resnet50_v15": None,
        "ssd_mobilenet_v1": None,
        "gnmt": None,
    },
    "Qualcomm SDM855 QRD": {
        "mobilenet_v1": 3.02,
        "resnet50_v15": 8.95,
        "ssd_mobilenet_v1": None,
        "gnmt": None,
    },
}

# Table VIII: Offline throughput in inputs per second.
PUBLISHED_THROUGHPUT_IPS: dict[str, dict[str, float | None]] = {
    "Centaur Ncore": {
        "mobilenet_v1": 6042.34,
        "resnet50_v15": 1218.48,
        "ssd_mobilenet_v1": 651.89,
        "gnmt": 12.28,
    },
    "NVIDIA AGX Xavier": {
        "mobilenet_v1": 6520.75,
        "resnet50_v15": 2158.93,
        "ssd_mobilenet_v1": 2485.77,
        "gnmt": None,
    },
    "Intel i3 1005G1": {
        "mobilenet_v1": 507.71,
        "resnet50_v15": 100.93,
        "ssd_mobilenet_v1": 217.93,
        "gnmt": None,
    },
    "(2x) Intel CLX 9282": {
        "mobilenet_v1": 29203.30,
        "resnet50_v15": 5965.62,
        "ssd_mobilenet_v1": 9468.00,
        "gnmt": None,
    },
    "(2x) Intel NNP-I 1000": {
        "mobilenet_v1": None,
        "resnet50_v15": 10567.20,
        "ssd_mobilenet_v1": None,
        "gnmt": None,
    },
    "Qualcomm SDM855 QRD": {
        "mobilenet_v1": None,
        "resnet50_v15": None,
        "ssd_mobilenet_v1": None,
        "gnmt": None,
    },
}

# Table IX: the paper's measured latency decomposition (milliseconds).
PAPER_WORKLOAD_SPLIT_MS = {
    "mobilenet_v1": {"total": 0.33, "ncore": 0.11, "x86": 0.22},
    "resnet50_v15": {"total": 1.05, "ncore": 0.71, "x86": 0.34},
    "ssd_mobilenet_v1": {"total": 1.54, "ncore": 0.36, "x86": 1.18},
}

# Fig. 13 as the paper reads it: x86 cores each model needs to saturate Ncore.
PAPER_SATURATION_CORES = {"mobilenet_v1": 4, "resnet50_v15": 2, "ssd_mobilenet_v1": 5}

# System facts used for the normalized comparisons in section VI-B.
CLX_9282_CORES_PER_SYSTEM = 112   # 2 sockets x 56 VNNI Xeon cores
NNP_I_ICES_PER_SYSTEM = 24        # 2 adapters x 12 inference compute engines


def per_core_resnet_ips() -> float:
    """ResNet-50 IPS per Xeon core for the CLX submission (~53.3)."""
    return (PUBLISHED_THROUGHPUT_IPS["(2x) Intel CLX 9282"]["resnet50_v15"]
            / CLX_9282_CORES_PER_SYSTEM)


def per_ice_resnet_ips() -> float:
    """ResNet-50 IPS per 4096-byte ICE for the NNP-I submission (~440)."""
    return PUBLISHED_THROUGHPUT_IPS["(2x) Intel NNP-I 1000"]["resnet50_v15"] / NNP_I_ICES_PER_SYSTEM


def ncore_vnni_core_equivalence() -> float:
    """How many VNNI Xeon cores Ncore's ResNet throughput equals (~23)."""
    return PUBLISHED_THROUGHPUT_IPS["Centaur Ncore"]["resnet50_v15"] / per_core_resnet_ips()


def ncore_per_ice_speedup() -> float:
    """Ncore vs one same-width NNP-I ICE on ResNet-50 (~2.77x)."""
    return PUBLISHED_THROUGHPUT_IPS["Centaur Ncore"]["resnet50_v15"] / per_ice_resnet_ips()
