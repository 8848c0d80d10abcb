"""Direct layer probes for the traced run.

Each probe times calls into one layer's public functions on fixed-size,
seeded inputs and reports a rate, so the number means the same on every
workload. Layers the workloads reach only indirectly (specfun, import) get
their numbers here.
"""

import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import vortexbell as vb
from vortexbell import cli as vb_cli
from vortexbell.specfun import laguerre, laguerre_scaled

from workloads import child_env, run_process

clock = time.process_time
HERE = Path(__file__).resolve().parent

UNITS = {
    "specfun.laguerre_ns.p1": "ns", "specfun.laguerre_ns.p30": "ns",
    "specfun.laguerre_scaled_ns_per_point.p30": "ns",
    "wigner.array_ns_per_point.m1": "ns", "wigner.array_ns_per_point.m30": "ns",
    "wigner.array_ns_per_point.m64": "ns", "wigner.numeric_plan_build_ms": "ms",
    "wigner.numeric_ms_per_point": "ms", "quadrature.moments_cold_ms": "ms",
    "quadrature.wigner_moments_ms": "ms", "correlation.scan_ns_per_cell": "ns",
    "modes.lg_amplitude_ns_per_point": "ns", "modes.reconstruct_ms": "ms", "modes.schmidt_us": "us",
    "cli.import_s": "s", "cli.import_scipy_s": "s", "cli.compute_share": "ratio",
}


def timed(fn, repeats):
    """Median CPU time of ``repeats`` calls of fn()."""
    times = []
    for _ in range(repeats):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return statistics.median(times)


def cold_runs(env, repeats):
    """``child.py cold`` in ``repeats`` fresh interpreters: import and cold moments((40, 20)) times."""
    return [json.loads(subprocess.run([sys.executable, str(HERE / "child.py"), "cold"], env=env,
                                      capture_output=True, text=True, check=True).stdout)
            for _ in range(repeats)]


def scipy_import_share(importtime_stderr):
    """Share of ``import vortexbell`` spent importing scipy and whatever scipy imports.

    Read from a -X importtime log. The log is in post-order with two spaces
    of indent per level, so read in reverse it lists every module after the
    module that imported it.
    """
    stack, scipy_us, total_us = [], 0, None
    for line in reversed(importtime_stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, name_field = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header row
        depth = len(name_field) - len(name_field.lstrip())
        name = name_field.strip()
        if name == "vortexbell":
            total_us = int(cumulative_us)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = name == "scipy" or name.startswith("scipy.") or bool(stack and stack[-1][1])
        stack.append((depth, inside))
        if inside:
            scipy_us += int(self_us)
    return scipy_us / total_us


def run_probes(root, seed, out_dir):
    rng = np.random.default_rng(seed)
    env = child_env(root)
    m = {}

    xs = rng.uniform(0.0, 10.0, 2000).tolist()
    for p in (1, 30):
        per = timed(lambda: [laguerre(p, 0, x) for x in xs], 7) / len(xs)
        m[f"specfun.laguerre_ns.p{p}"] = per * 1e9
    u = rng.uniform(0.0, 60.0, 4096)
    m["specfun.laguerre_scaled_ns_per_point.p30"] = timed(lambda: laguerre_scaled(30, 0, u), 7) / u.size * 1e9

    cloud = tuple(rng.uniform(-3.0, 3.0, size=(4, 32768)))
    for n in (1, 30, 64):
        m[f"wigner.array_ns_per_point.m{n}"] = timed(lambda: vb.wigner_transform((n, 0), cloud), 5) / 32768 * 1e9
    m["wigner.numeric_plan_build_ms"] = timed(lambda: vb.lg_numeric_plan((1, 0)), 5) * 1e3
    plan, points = vb.lg_numeric_plan((1, 0)), rng.uniform(-1.5, 1.5, size=(16, 4))
    m["wigner.numeric_ms_per_point"] = timed(lambda: [plan(p) for p in points], 5) / 16 * 1e3

    m["quadrature.wigner_moments_ms"] = timed(lambda: vb.wigner_moments((10, 0)), 5) * 1e3
    vb.max_correlation((10, 0))
    angles = np.linspace(0.0, 2.0 * math.pi, 120, endpoint=False) + rng.uniform(0.0, 0.05)
    m["correlation.scan_ns_per_cell"] = timed(lambda: vb.correlation_scan((10, 0), angles, angles), 5) / 120**2 * 1e9

    half = rng.uniform(5.0, 6.0)
    axis = np.linspace(-half, half, 256)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    m["modes.lg_amplitude_ns_per_point"] = timed(lambda: vb.lg_amplitude((20, 10), X, Y), 5) / X.size * 1e9
    m["modes.reconstruct_ms"] = timed(lambda: vb.reconstruct_from_schmidt((20, 10), X, Y), 5) * 1e3
    m["modes.schmidt_us"] = timed(lambda: [vb.schmidt_coefficients((32, 32)) for _ in range(20)], 7) / 20 * 1e6

    cold = cold_runs(env, 3)
    m["quadrature.moments_cold_ms"] = statistics.median(c["moments_cold_ms"] for c in cold)
    m["cli.import_s"] = statistics.median(c["import_s"] for c in cold)
    importtime = subprocess.run([sys.executable, "-X", "importtime", "-c", "import vortexbell"],
                                env=env, capture_output=True, text=True, check=True)
    m["cli.import_scipy_s"] = scipy_import_share(importtime.stderr) * m["cli.import_s"]

    argv = ["bell-max", "--n", "1", "--m", "0", "--seed", str(seed), "--out", str(out_dir / "probe-bell-max.json")]
    process = run_process([sys.executable, "-m", "vortexbell", *argv], env, out_dir / "probe-bell-max.json")
    in_process = timed(lambda: vb_cli.main(argv), 3)
    m["cli.compute_share"] = in_process / process.cpu_s
    return m
