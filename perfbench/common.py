"""Paths, host fingerprint, statistics and correctness accounting shared
by the benchmark's workloads."""

from __future__ import annotations

import json
import math
import os
import platform
import random
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
#: Scratch space (serve sockets, caches) and written traces, both
#: inside the checkout.
TMP = os.path.join(ROOT, ".perfbench_tmp")
OUT = os.path.join(ROOT, ".perfbench_out")


def child_env(hash_seed: Optional[int] = None) -> Dict[str, str]:
    """Environment for every analyzer process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def load_spec() -> Dict:
    with open(SPEC) as f:
        return json.load(f)


def host_fingerprint(seed: int) -> Dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": numpy_version, "seed": seed}


def p50(xs: Sequence[float]) -> float:
    return statistics.median(xs) if xs else 0.0


#: Calibration time of the nominal host that rates are scaled to.
CAL_NOMINAL_S = 0.2


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: float, value: int):
        self.key = key
        self.value = value
        self.next = None


def calibrate(n: int = 60_000) -> float:
    """Seconds a fixed pure-Python workload takes now: build a few MB of
    small objects, link them in a shuffled order, index them in a dict
    and chase the links.

    The host this benchmark was built on changes speed by up to a third
    over minutes, and shared caches are what it contends for, so the
    workload is heap-bound like the analyzer's.  Rates are scaled by
    the run's median calibration to a host where it takes
    :data:`CAL_NOMINAL_S`.  Only the benchmark's own code runs here, so
    no change to the analyzer can move it."""
    t0 = time.perf_counter()
    rng = random.Random(1)
    nodes = [_Node(rng.random(), i) for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        nodes[a].next = nodes[b]
    index = {(node.value % 1009, node.value): node for node in nodes}
    total = 0.0
    node = nodes[order[0]]
    while node is not None:
        total += index[(node.value % 1009, node.value)].key
        node = node.next
    return time.perf_counter() - t0


def p90(xs: Sequence[float]) -> float:
    """Nearest-rank 90th percentile: with 100 samples, ten lie above."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[max(0, math.ceil(0.9 * len(s)) - 1)]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def vm_hwm_kib(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Tally:
    """Operations attempted and failed: analyses, requests and every
    correctness check.  A failed check also records why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def log(msg: str) -> None:
    """Progress lines go to stderr; stdout carries only results."""
    print(msg, file=sys.stderr, flush=True)
