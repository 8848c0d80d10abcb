"""Measure the ROADMAP item 1 baselines and print them beside the ROADMAP's numbers.

Run from the repository root:  python3 perfbench/baseline.py
Differences above 20% are flagged; BASELINE.md explains them.
"""

import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402,F401  (pins the BLAS thread counts before numpy loads)
import vortexbell as vb  # noqa: E402

from probes import cold_runs, timed  # noqa: E402
from workloads import child_env, run_process  # noqa: E402

# (quantity, ROADMAP value, unit)
ROADMAP = (
    ("import vortexbell", 680.0, "ms"),
    ("maximize_bell restricted (1,0)", 53.0, "ms"),
    ("  evaluations", 1446, "count"),
    ("maximize_bell general (1,0)", 757.0, "ms"),
    ("  evaluations", 17454, "count"),
    ("default elliptical_profile", 7.2, "s"),
    ("cold moments((40, 20))", 863.0, "ms"),
    ("numeric Wigner plan, per point", 1.56, "ms"),
    ("CLI bell-max --n 1 --m 0", 751.0, "ms"),
)


def main():
    env = child_env(ROOT)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    cold = cold_runs(env, 5)
    pi = vb.lg_transform_evaluator((1, 0))
    restricted = vb.maximize_bell(pi, vb.RESTRICTED)
    general = vb.maximize_bell(pi, vb.GENERAL)
    plan = vb.lg_numeric_plan((1, 0))
    argv = [sys.executable, "-m", "vortexbell", "bell-max", "--n", "1", "--m", "0",
            "--out", str(out_dir / "baseline-bell-max.json")]
    measured = (
        statistics.median(c["import_s"] for c in cold) * 1e3,
        timed(lambda: vb.maximize_bell(pi, vb.RESTRICTED), 7) * 1e3,
        restricted.evaluations,
        timed(lambda: vb.maximize_bell(pi, vb.GENERAL), 3) * 1e3,
        general.evaluations,
        timed(lambda: vb.elliptical_profile(), 1),
        statistics.median(c["moments_cold_ms"] for c in cold),
        timed(lambda: plan((0.3, -0.2, 0.5, 0.1)), 50) * 1e3,
        statistics.median(run_process(argv, env, out_dir / "baseline-bell-max.json").cpu_s
                          for _ in range(5)) * 1e3,
    )
    print(f"{'quantity':34} {'ROADMAP':>10} {'measured':>10}  unit   ratio")
    for (name, roadmap, unit), value in zip(ROADMAP, measured):
        ratio = value / roadmap
        flag = "  <-- differs by more than 20%" if abs(ratio - 1.0) > 0.2 else ""
        print(f"{name:34} {roadmap:>10g} {value:>10.4g}  {unit:6} {ratio:5.2f}{flag}")


if __name__ == "__main__":
    main()
