"""Regenerate perfbench/references.json: best-known Bell maxima and shortfall margins.

Each case is searched far wider than the benchmark's own jobs: restricted
cases on a 41x41 seed grid with 16 restarts, general cases with 16 restarts
under each of several PCG64 seeds (LG_SEEDS for the three general LG cases,
ELLIPTICAL_SEEDS for each elliptical t). The best value and its argmax are
stored; ``reference.load_references`` re-evaluates every entry with the
independent closed forms before the benchmark uses it.

Each case also gets a ``margin``: the largest shortfall (best-known value
minus the returned value) of the benchmark's own job, ``OptimizerConfig(seed=s)``,
over MARGIN_SEEDS seeds, times MARGIN_FACTOR and at least MARGIN_FLOOR.
Only results that report ``converged=True`` count, unless a case has none.
A benchmark job whose shortfall exceeds its margin counts as failed: it
stopped further from the maximum than this code ever did.

Run from the repository root:  python3 perfbench/make_references.py
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from vortexbell import (  # noqa: E402
    GENERAL,
    RESTRICTED,
    OptimizerConfig,
    elliptical_transform_evaluator,
    lg_transform_evaluator,
    maximize_bell,
)
from vortexbell.bell import DEFAULT_T_GRID  # noqa: E402

import reference  # noqa: E402
from workloads import LG_BELL_CASES  # noqa: E402

LG_SEEDS = 64
ELLIPTICAL_SEEDS = 16
MARGIN_SEEDS = 64
MARGIN_ENTROPY = 20261017  # SeedSequence entropy of the margin seeds
MARGIN_FACTOR = 2.0
MARGIN_FLOOR = 1e-6


def best_of(pi, kind, seeds):
    if kind == RESTRICTED:
        configs = [OptimizerConfig(grid_points=41, restarts=16)]
    else:
        configs = [OptimizerConfig(restarts=16, seed=s) for s in range(seeds)]
    best = None
    for cfg in configs:
        res = maximize_bell(pi, kind, cfg)
        if best is None or res.best_value > best.best_value:
            best = res
    return {"value": best.best_value, "argmax": list(best.argmax)}


def margin(pi, kind, value):
    seeds = np.random.SeedSequence(MARGIN_ENTROPY).generate_state(MARGIN_SEEDS)
    results = [maximize_bell(pi, kind, OptimizerConfig(seed=int(s))) for s in seeds]
    counted = [r for r in results if r.converged] or results
    return max(MARGIN_FLOOR, MARGIN_FACTOR * max(value - r.best_value for r in counted))


def main():
    cases = [(reference.lg_key(mode, kind), lg_transform_evaluator(mode), kind, LG_SEEDS)
             for mode, kind in LG_BELL_CASES]
    cases += [(reference.elliptical_key(t), elliptical_transform_evaluator((t, +1)), GENERAL,
               ELLIPTICAL_SEEDS) for t in DEFAULT_T_GRID]
    maxima = {}
    for key, pi, kind, seeds in cases:
        t0 = time.perf_counter()
        maxima[key] = best_of(pi, kind, seeds)
        maxima[key]["margin"] = margin(pi, kind, maxima[key]["value"])
        print(key, maxima[key]["value"], maxima[key]["margin"], f"{time.perf_counter() - t0:.1f}s", flush=True)
    payload = {
        "about": "best-known |B| maxima and shortfall margins; produced by perfbench/make_references.py "
                 f"with LG_SEEDS = {LG_SEEDS}, ELLIPTICAL_SEEDS = {ELLIPTICAL_SEEDS}, "
                 f"MARGIN_SEEDS = {MARGIN_SEEDS}",
        "maxima": maxima,
    }
    reference.REFERENCES_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    reference.load_references()


if __name__ == "__main__":
    main()
