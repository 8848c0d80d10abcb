"""vortexbell benchmark: one workload, a fixed number of passes, outputs checked.

    python3 perfbench/run.py --workload {lg-bell,elliptical,grids,cli} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports vortexbell from ``src/``.
Each workload is a closed loop with one client in one process: the jobs of a
pass run one after another, and a fixed number of passes (PASSES) repeat.
Pass k gives maximize_bell (and the CLI's ``--seed``) an optimizer seed
drawn from the workload seed; pass 0 uses the workload seed itself.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` is the separate
traced run: layer probes, then untraced and traced passes in pairs, giving
the per-layer metrics and the tracing overhead; its spans are written to
``.perfbench/``. Every line but the last is for people; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# pinned before numpy is imported, for this process and every child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# CPU seconds of calibration_s() on a typical quiet spell of the 2-vCPU machine
# the benchmark was written on (Python 3.11, numpy 2.4); a scale, not a bound
CAL_REF_S = 0.0035
TAIL_BEYOND = 10
MIN_PASSES = 2
# Passes per run at --seconds 20, scaled in proportion to --seconds. At the
# seed commit a pass takes about 2.9 s (lg-bell), 6.2 s (elliptical), 0.8 s
# (grids) and 6.4 s (cli) of CPU on 2 vCPUs, so a run measures 13-26 s. The
# count is fixed rather than timed so that both sides of a comparison run
# the same jobs and the job-time order statistics rank the same samples.
PASSES = {"lg-bell": 7, "elliptical": 4, "grids": 16, "cli": 4}

clock = time.perf_counter


def cpu_clock():
    """CPU seconds of this process and its finished children.

    The benchmark's work is single-threaded and CPU-bound, so on a quiet
    machine this equals the wall time; on a shared virtual machine it leaves
    out the time the hypervisor gives the CPU to other tenants (steal).
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("lg-bell", "elliptical", "grids", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def calibration_s():
    """CPU seconds of a fixed kernel: interpreted float math, small and large numpy operations.

    It runs before every job. The median over a run measures how fast this
    process's CPU is during the run; job and pass times of the workloads that
    run in this process are divided by (median / CAL_REF_S), which removes
    most of the shared machine's drift between runs. Times measured in child
    processes (set-up, cli jobs) are not scaled: there the kernel did not
    track them. The kernel uses no vortexbell code, so a change to the
    program does not move it.
    """
    import math

    import numpy as np

    def f(a, b):
        return math.exp(-a * a) * b

    c0 = time.process_time()
    acc = 0.0
    for i in range(6000):
        acc += f(i * 1e-5, 1.0 + (i & 7))
    v = np.ones((9, 8))
    for _ in range(80):
        v = np.abs(v - v.mean(axis=0)) + 1.0
    x = np.linspace(0.0, 1.0, 40000)
    acc += float(np.sum(np.exp(-x * x)))
    return time.process_time() - c0


def pass_seed(seed, k):
    import numpy as np

    return seed if k == 0 else int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def environment(env):
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**env, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vortexbell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "git_commit": commit, "src_sha256": digest.hexdigest(),
        "threads": {var: env.get(var) for var in THREAD_VARS},
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }


# ----------------------------------------------------------------- passes

def run_pass(workload, ctx, seed, tracer=None, extra_jobs=()):
    """Run one pass; only the calls into the program are timed, checks come after."""
    from workloads import Outcome, Process

    own = workload.jobs(ctx, seed)
    jobs = own + list(extra_jobs)
    outputs, cpu, wall, raised, cal = [], [], [], [], []
    for i, job in enumerate(jobs):
        cal.append(calibration_s())
        c0, t0 = cpu_clock(), clock()
        try:
            if tracer is None:
                out = job.call(None)
            else:
                with tracer.job_span(job.name, i):
                    out = job.call(tracer)
            raised.append(None)
        except Exception:  # a failed job is counted and the loop goes on
            out = None
            raised.append(traceback.format_exc(limit=2).strip().splitlines()[-1])
        cpu.append(cpu_clock() - c0)
        wall.append(clock() - t0)
        outputs.append(out)

    outcomes = []
    for job, out, err in zip(jobs, outputs, raised):
        if err is not None:
            outcomes.append(Outcome(ok=False, note=f"raised {err}"))
            continue
        try:
            outcomes.append(job.check(out))
        except Exception:
            outcomes.append(Outcome(errors=[f"check raised {traceback.format_exc(limit=2)}"]))
    workload.pass_check(own, outputs[:len(own)], outcomes[:len(own)])
    return {"seed": seed, "cpu_s": sum(cpu), "wall_s": sum(wall), "cpu": cpu, "wall": wall, "cal": cal,
            "names": [j.name for j in jobs], "outputs": outputs, "outcomes": outcomes,
            "child_rss_kb": max((o.maxrss_kb for o in outputs if isinstance(o, Process)), default=0)}


def failed(outcome):
    return not outcome.ok or bool(outcome.errors)


def describe_pass(label, p):
    bad = [f"{name}: {o.note or ''}{'; ' if o.note and o.errors else ''}{'; '.join(o.errors)}"
           for name, o in zip(p["names"], p["outcomes"]) if failed(o)]
    print(f"{label}: optimizer seed {p['seed']}, {p['cpu_s']:.3f} s CPU, {p['wall_s']:.3f} s wall, "
          f"{len(bad)} of {len(p['cpu'])} jobs failed" + ("".join(f"\n    {b}" for b in bad)))


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND, n


# ----------------------------------------------------------------- set-up

def measure_setup(workload, seed, env):
    """Median set-up time over fresh interpreters: import plus building the workload's objects."""
    values = []
    for _ in range(SETUP_REPEATS):
        if workload == "cli":
            c0 = cpu_clock()
            subprocess.run([sys.executable, "-c", "import vortexbell"], env=env, check=True)
            values.append(cpu_clock() - c0)
        else:
            done = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)],
                                  env=env, capture_output=True, text=True, check=True)
            values.append(json.loads(done.stdout)["setup_s"])
    return statistics.median(values), values


# ----------------------------------------------------------------- modes

def end_to_end(args, workload, ctx, env, notes):
    from workloads import DEFAULT_T_GRID, Elliptical

    setup_s, setup_all = measure_setup(args.workload, args.seed, env)
    passes = []
    for k in range(max(MIN_PASSES, round(PASSES[args.workload] * args.seconds / 20))):
        passes.append(run_pass(workload, ctx, pass_seed(args.seed, k)))
        describe_pass(f"pass {k}", passes[-1])
        if k > 0:
            passes[-1]["outputs"] = None  # checked; holding every pass's arrays would inflate peak RSS
    errors = []
    if args.workload == "elliptical":
        errors = Elliptical.profile_check(args.seed, passes[0]["outputs"])
        t = DEFAULT_T_GRID[args.seed % len(DEFAULT_T_GRID)]
        print(f"elliptical_profile([{t}]) equals the job's maximize_bell value: {not errors}")
        notes["nonconverged_t_pass0"] = [name for name, o in zip(passes[0]["names"], passes[0]["outcomes"])
                                         if o.bell and not o.bell["converged"]]
        print(f"non-converged t-values at the workload seed {args.seed}: {notes['nonconverged_t_pass0']}")
    bells = [(o.bell, name, k) for k, p in enumerate(passes) for name, o in zip(p["names"], p["outcomes"])
             if o.bell]
    if bells:
        worst, name, k = max(bells, key=lambda b: b[0]["shortfall"])
        notes["shortfall_max"] = worst["shortfall"]
        print(f"bell shortfall against references.json: at most {worst['shortfall']!r} ({name}, pass {k}); "
              f"jobs beyond their margin: {sum(b['shortfall'] > b['margin'] for b, _, _ in bells)}")

    kernel = statistics.median(c for p in passes for c in p["cal"])
    speed = kernel / CAL_REF_S if workload.in_process else 1.0
    print(f"calibration: the kernel took {kernel * 1e3:.3f} ms (median of "
          f"{sum(len(p['cal']) for p in passes)}); job and pass times below are divided by {speed:.4f}")
    times = [t for p in passes for t in p["cpu"]]
    tail_value, tail_pct, beyond, n = tail(times)
    walls = [t for p in passes for t in p["wall"]]
    if args.workload == "cli":
        rss_kb = max(p["child_rss_kb"] for p in passes)
        rss_what = "largest CLI child process"
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_what = "benchmark process"
    pass_cpu = statistics.median(p["cpu_s"] for p in passes)
    job_p50 = statistics.median(statistics.median(p["cpu"]) for p in passes)
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} fresh interpreters, CPU: "
                    + ", ".join(f"{v:.3f}" for v in setup_all) + " s"),
        "pass_cpu_s": (pass_cpu / speed, "s", f"median of {len(passes)} passes; CPU {pass_cpu:.4f} s, "
                       f"wall clock {statistics.median(p['wall_s'] for p in passes):.4f} s"),
        "job_p50_ms": (job_p50 / speed * 1e3, "ms", f"median over passes of the pass's median job; "
                       f"CPU {job_p50 * 1e3:.3f} ms, wall clock "
                       f"{statistics.median(statistics.median(p['wall']) for p in passes) * 1e3:.3f} ms"),
        "job_tail_ms": (tail_value / speed * 1e3, "ms", f"p{tail_pct:.1f}, {beyond} of {n} job samples "
                        f"beyond it; CPU {tail_value * 1e3:.3f} ms, wall clock {tail(walls)[0] * 1e3:.3f} ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", rss_what),
    }
    return passes, metrics, errors


def traced(args, workload, ctx, env, notes):
    import probes
    import reference
    from spans import Tracer, leaf_overhead_s, write_spans
    from workloads import bell_probe

    out_dir = ROOT / ".perfbench"
    refs = reference.load_references()
    print("layer probes ...", flush=True)
    metrics = {k: (v, probes.UNITS[k], "probe") for k, v in probes.run_probes(ROOT, args.seed, out_dir).items()}

    pairs, tracers, errors = [], [], []
    t_start = clock()
    while not pairs or clock() - t_start < args.seconds:
        seed = pass_seed(args.seed, len(pairs))
        plain = run_pass(workload, ctx, seed, extra_jobs=[bell_probe(seed, refs)])
        tracer = Tracer()
        spans = run_pass(workload, ctx, seed, tracer=tracer, extra_jobs=[bell_probe(seed, refs)])
        describe_pass(f"pair {len(pairs)} untraced", plain)
        describe_pass(f"pair {len(pairs)} traced", spans)
        for name, a, b in zip(plain["names"], plain["outcomes"], spans["outcomes"]):
            if a.fingerprint != b.fingerprint:
                errors.append(f"traced run changed the output of {name}")
        plain["outputs"] = spans["outputs"] = None
        pairs.append((plain, spans))
        tracers.append(tracer)
    print(f"traced outputs bit-identical to untraced: {not errors}")

    # the recorder's own time per Pi call that falls in bell.maximize's self time
    recorder_s = leaf_overhead_s()
    notes["recorder_s_per_leaf"] = recorder_s
    print(f"recorder time per Pi span outside the span: {recorder_s * 1e9:.0f} ns; "
          "taken out of bell.self_s and of the traced pass time in trace.pi_bell_share")
    rows = []
    for (plain, spans), tracer in zip(pairs, tracers):
        named = tracer.by_name()
        pi_calls, pi_s, _ = named.get("wigner.pi", (0, 0.0, 0.0))
        maximize_calls, _, bell_self = named.get("bell.maximize", (0, 0.0, 0.0))
        bell_self -= pi_calls * recorder_s
        program_s = spans["wall_s"] - pi_calls * recorder_s
        bells = [o.bell for o in spans["outcomes"] if o.bell]
        rows.append({
            "wigner.pi_calls": (pi_calls, "count"),
            "wigner.pi_s": (pi_s, "s"),
            "wigner.pi_ns_per_call": (pi_s / pi_calls * 1e9, "ns"),
            "bell.maximize_calls": (maximize_calls, "count"),
            "bell.evaluations": (sum(b["evaluations"] for b in bells), "count"),
            "bell.self_s": (bell_self, "s"),
            "bell.self_us_per_eval": (bell_self / sum(b["evaluations"] for b in bells) * 1e6, "us"),
            "bell.unconverged": (sum(not b["converged"] for b in bells), "count"),
            "bell.shortfall_max": (max(b["shortfall"] for b in bells), "abs_B"),
            "trace.wall_s": (spans["wall_s"], "s"),
            "trace.pi_bell_share": ((pi_s + bell_self) / program_s, "ratio"),
        })
    for key, (_, unit) in rows[0].items():
        metrics[key] = (statistics.median(r[key][0] for r in rows), unit, f"median of {len(rows)} traced passes")
    overhead = (statistics.median(s["cpu_s"] for _, s in pairs)
                / statistics.median(p["cpu_s"] for p, _ in pairs)) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio", "traced against untraced pass CPU time")

    span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
    write_spans(span_file, tracers)
    notes["span_file"] = str(span_file.relative_to(ROOT))
    print(f"spans written to {notes['span_file']}")
    passes = [p for pair in pairs for p in pair]
    return passes, metrics, errors


def main():
    args = parse_args()
    if not (ROOT / "src" / "vortexbell" / "__init__.py").is_file():
        print(f"error: no src/vortexbell under {ROOT}; run from a vortexbell checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import vortexbell
    from workloads import WORKLOADS, child_env

    if Path(vortexbell.__file__).resolve().parent != ROOT / "src" / "vortexbell":
        print(f"error: imported vortexbell from {vortexbell.__file__}", file=sys.stderr)
        return 2
    # one CPU for this process and its children, so that the calibration
    # kernel and the jobs it scales run on the same (virtual) core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env(ROOT)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    info = environment(env)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(info))

    workload = WORKLOADS[args.workload]
    ctx = workload.build(args.seed, ROOT)
    notes = {}
    mode = traced if args.trace else end_to_end
    passes, metrics, run_errors = mode(args, workload, ctx, env, notes)

    outcomes = [o for p in passes for o in p["outcomes"]]
    attempted, n_failed = len(outcomes), sum(failed(o) for o in outcomes)
    check_errors = [e for o in outcomes for e in o.errors] + run_errors
    info["loadavg_after"] = os.getloadavg()
    print(f"failed_frac = {n_failed / attempted!r} ({n_failed} of {attempted} jobs; a job fails if it "
          "raises, exits nonzero, is not finite, reports converged=False, falls short of the best-known "
          "maximum by more than its margin or fails its check)")
    print(f"output checks: {'all passed' if not check_errors else f'{len(check_errors)} failed'}")
    for e in check_errors[:20]:
        print(f"    {e}")
    result = {}
    for name, (value, unit, how) in metrics.items():
        result[name] = {"value": value, "unit": unit}
        print(f"{name} = {value!r} {unit}  ({how})")
    print(f"load average before {info['loadavg_before']}, after {info['loadavg_after']}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": info, "notes": notes, "metrics": result, "failed_frac": n_failed / attempted,
              "check_errors": check_errors,
              "passes": [{"seed": p["seed"], "cpu_s": p["cpu_s"], "wall_s": p["wall_s"], "cal_s": p["cal"],
                          "jobs": [{"name": n, "cpu_s": c, "wall_s": w, "failed": failed(o), "note": o.note,
                                    "errors": o.errors}
                                   for n, c, w, o in zip(p["names"], p["cpu"], p["wall"], p["outcomes"])]}
                         for p in passes]}
    result_file = ROOT / ".perfbench" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")
    print(f"result written to {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": not check_errors, "attempted": attempted, "failed": n_failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
