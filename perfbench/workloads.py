"""The benchmark's four workloads: job lists, the objects they reuse, and output checks.

Every job is one call into a public vortexbell function (or, for ``cli``,
one ``python -m vortexbell`` process). ``build`` makes the reusable objects
and is what set-up time measures; ``jobs`` lists the calls of one pass;
each job's ``check`` runs outside the timed region and compares the output
with the independent closed forms in ``reference``.

A job *fails* when it raises, exits nonzero, returns a non-finite value,
reports ``converged=False``, returns a Bell maximum further below the
best-known one than its margin in ``references.json`` allows, or fails its
output check. Only a failed output check makes the run incorrect:
non-convergence, a short maximum and exit code 3 are defects of the
program, and they are counted, not hidden.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import vortexbell as vb
from vortexbell.bell import DEFAULT_T_GRID

import reference

LG_BELL_CASES = (
    ((1, 0), vb.RESTRICTED), ((2, 0), vb.RESTRICTED), ((5, 0), vb.RESTRICTED),
    ((10, 0), vb.RESTRICTED), ((30, 0), vb.RESTRICTED), ((3, 1), vb.RESTRICTED),
    ((20, 10), vb.RESTRICTED),
    ((1, 0), vb.GENERAL), ((5, 0), vb.GENERAL), ((30, 0), vb.GENERAL),
)

BELL_TOL = 1e-9


@dataclass
class Outcome:
    """What a job's check found. ``ok`` is False for a known-defect failure."""

    ok: bool = True
    errors: list = field(default_factory=list)
    fingerprint: Any = None
    bell: dict = None  # evaluations, converged, shortfall, margin for maximize_bell jobs
    note: str = ""


@dataclass
class Job:
    name: str
    call: Callable  # call(tracer_or_None) -> output; the only timed part
    check: Callable  # check(output) -> Outcome


def _finite(*values):
    return all(math.isfinite(float(v)) for v in values)


def _digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# ----------------------------------------------------------------- bell jobs

def bell_job(name, pi, kind, seed, independent_pi, ref, closed_form_10=False):
    """maximize_bell(pi, kind, OptimizerConfig(seed)) checked at its argmax.

    Traced, the evaluator is wrapped so every Pi call is a ``wigner.pi`` span
    under the ``bell.maximize`` span.
    """
    cfg = vb.OptimizerConfig(seed=seed)

    def call(tr):
        if tr is None:
            return vb.maximize_bell(pi, kind, cfg)
        with tr.span("bell.maximize"):
            return vb.maximize_bell(tr.leaf(pi, "wigner.pi"), kind, cfg)

    def check(res):
        out = Outcome(fingerprint=(res.best_value, res.argmax))
        if not _finite(res.best_value, *res.argmax):
            out.errors.append(f"non-finite result {res.best_value}")
            return out
        again = reference.bell_abs(independent_pi, res.argmax)
        if abs(again - res.best_value) > BELL_TOL:
            out.errors.append(f"|B|={res.best_value!r} re-evaluates to {again!r}")
        if closed_form_10:
            cf = abs(vb.bell_closed_form_10(*res.argmax))
            if abs(cf - res.best_value) > BELL_TOL:
                out.errors.append(f"|B|={res.best_value!r} but bell_closed_form_10 gives {cf!r}")
        shortfall = ref["value"] - res.best_value
        notes = [] if res.converged else ["converged=False"]
        if shortfall > ref["margin"]:
            notes.append(f"|B| is {shortfall:.3g} below the best known, beyond the margin {ref['margin']:.3g}")
        out.ok, out.note = not notes, "; ".join(notes)
        out.bell = {"evaluations": res.evaluations, "converged": res.converged,
                    "shortfall": shortfall, "margin": ref["margin"]}
        return out

    return Job(name, call, check)


def bell_probe(seed, refs):
    """The fixed bell job every traced run adds, so bell and scalar Pi are timed on every workload."""
    mode = (1, 0)
    return bell_job("probe:bell restricted (1,0)", vb.lg_transform_evaluator(mode),
                    vb.RESTRICTED, seed, lambda *p: reference.lg_pi(mode, *p),
                    refs[reference.lg_key(mode, vb.RESTRICTED)], closed_form_10=True)


class LgBell:
    """maximize_bell over LG modes: the paper's headline maxima.

    Seven restricted and three general searches. Each Bell evaluation splits
    about evenly between the scalar Pi evaluator (specfun + wigner) and
    scipy's Nelder-Mead (bell); high n makes the Laguerre degree matter.
    """

    name = "lg-bell"
    in_process = True

    def build(self, seed, root):
        return {"pi": {mode: vb.lg_transform_evaluator(mode) for mode, _ in LG_BELL_CASES},
                "refs": reference.load_references()}

    def jobs(self, ctx, seed):
        out = []
        for mode, kind in LG_BELL_CASES:
            out.append(bell_job(
                f"{kind} {mode}", ctx["pi"][mode], kind, seed,
                lambda *p, mode=mode: reference.lg_pi(mode, *p),
                ctx["refs"][reference.lg_key(mode, kind)],
                closed_form_10=(mode == (1, 0) and kind == vb.RESTRICTED)))
        return out

    def pass_check(self, jobs, outputs, outcomes):
        pass


class Elliptical:
    """The squeezed elliptical beam, general settings, at every t of DEFAULT_T_GRID.

    Pi is one Gaussian, so scipy's optimizer does nearly all the work and
    specfun is never called: the control for Laguerre and Pi changes. Each
    job is exactly what ``elliptical_profile([t], kind=GENERAL)`` runs, made
    through maximize_bell so that the argmax can be checked.
    """

    name = "elliptical"
    in_process = True

    def build(self, seed, root):
        return {"pi": {t: vb.elliptical_transform_evaluator((t, +1)) for t in DEFAULT_T_GRID},
                "refs": reference.load_references()}

    def jobs(self, ctx, seed):
        return [bell_job(f"t={t:.1f}", ctx["pi"][t], vb.GENERAL, seed,
                         lambda *p, t=t: reference.elliptical_pi(t, *p),
                         ctx["refs"][reference.elliptical_key(t)])
                for t in DEFAULT_T_GRID]

    def pass_check(self, jobs, outputs, outcomes):
        """The maxima must not decrease as t grows."""
        prev = -math.inf
        for job, res, outcome in zip(jobs, outputs, outcomes):
            if res is None:
                continue
            if res.best_value < prev:
                outcome.errors.append(f"maximum {res.best_value!r} is below the previous t's {prev!r}")
            prev = max(prev, res.best_value)

    @staticmethod
    def profile_check(seed, outputs):
        """elliptical_profile([t]) must return what the job's maximize_bell call returned."""
        k = seed % len(DEFAULT_T_GRID)
        t = DEFAULT_T_GRID[k]
        if outputs[k] is None:
            return []
        profile = vb.elliptical_profile([t], kind=vb.GENERAL, config=vb.OptimizerConfig(seed=seed))
        if profile.rows[0][1] != outputs[k].best_value:
            return [f"elliptical_profile([{t}]) gives {profile.rows[0][1]!r}, "
                    f"maximize_bell gave {outputs[k].best_value!r}"]
        return []


# ----------------------------------------------------------------- grids

GRID_CLOUD_POINTS = 21**4
GRID_MODES = ((1, 0), (30, 0), (64, 0))
MOMENT_MODES = ((5, 5), (10, 0))
AMPLITUDE_MODE = (20, 10)
SCAN_MODE = (10, 0)


class Grids:
    """Batched array evaluation that never touches bell.

    The wigner layer is used with arrays here, one scalar point per call in
    lg-bell; merging the two paths must show its cost or gain on both. Also
    the control for optimizer changes.
    """

    name = "grids"
    in_process = True

    def build(self, seed, root):
        rng = np.random.default_rng(seed)
        half = rng.uniform(5.0, 6.0)
        axis = np.linspace(-half, half, 256)
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        offset = rng.uniform(0.0, 2.0 * math.pi / 360)
        angles = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False) + offset
        ctx = {
            "cloud": tuple(rng.uniform(-3.0, 3.0, size=(4, GRID_CLOUD_POINTS))),
            "sample": rng.choice(GRID_CLOUD_POINTS, size=64, replace=False),
            "X": X, "Y": Y,
            "plan": vb.lg_numeric_plan((1, 0)),
            "plan_points": rng.uniform(-1.5, 1.5, size=(16, 4)),
            "thetas": angles, "phis": angles[rng.permutation(360)],
        }
        vb.max_correlation(SCAN_MODE)  # the moment table the scans reuse
        return ctx

    def jobs(self, ctx, seed):
        def call_with(name, fn, *args):
            return lambda tr: fn(*args) if tr is None else tr.call(name, fn, *args)

        jobs = []
        for mode in GRID_MODES:
            jobs.append(Job(f"wigner_transform {mode}",
                            call_with("wigner.wigner_transform", vb.wigner_transform, mode, ctx["cloud"]),
                            lambda out, mode=mode: self._check_pi(ctx, mode, out)))
        for mode in MOMENT_MODES:
            jobs.append(Job(f"wigner_moments {mode}",
                            call_with("quadrature.wigner_moments", vb.wigner_moments, mode),
                            lambda out, mode=mode: self._check_moments(mode, out)))
        jobs.append(Job(f"lg_amplitude {AMPLITUDE_MODE}",
                        call_with("modes.lg_amplitude", vb.lg_amplitude, AMPLITUDE_MODE, ctx["X"], ctx["Y"]),
                        lambda out: Outcome(fingerprint=_digest(out))))
        jobs.append(Job(f"reconstruct_from_schmidt {AMPLITUDE_MODE}",
                        call_with("modes.reconstruct_from_schmidt", vb.reconstruct_from_schmidt,
                                  AMPLITUDE_MODE, ctx["X"], ctx["Y"]),
                        lambda out: Outcome(fingerprint=_digest(out))))

        plan, points = ctx["plan"], ctx["plan_points"]

        def numeric(tr):
            evaluate = plan if tr is None else tr.leaf(plan, "wigner.numeric_plan")
            return np.array([evaluate(p) for p in points])

        jobs.append(Job("numeric plan (1, 0) x16", numeric, lambda out: self._check_numeric(ctx, out)))
        jobs.append(Job(f"correlation_scan {SCAN_MODE} 360x360",
                        call_with("correlation.correlation_scan", vb.correlation_scan,
                                  SCAN_MODE, ctx["thetas"], ctx["phis"]),
                        lambda out: self._check_scan(ctx, out)))
        return jobs

    def pass_check(self, jobs, outputs, outcomes):
        """The Schmidt reconstruction must match lg_amplitude."""
        amp, rec = outputs[len(GRID_MODES) + len(MOMENT_MODES):][:2]
        if amp is None or rec is None:
            return
        err = float(np.max(np.abs(rec - amp)))
        if not err <= 1e-10:
            outcomes[len(GRID_MODES) + len(MOMENT_MODES) + 1].errors.append(
                f"Schmidt reconstruction is off lg_amplitude by {err:.3g}")

    @staticmethod
    def _check_pi(ctx, mode, out):
        result = Outcome(fingerprint=_digest(out))
        if not np.all(np.isfinite(out)):
            result.errors.append("non-finite Pi")
            return result
        if np.max(np.abs(out)) > 1.0:
            result.errors.append(f"|Pi| reaches {np.max(np.abs(out))!r} > 1")
        cloud = ctx["cloud"]
        for i in ctx["sample"]:
            scalar = vb.wigner_transform(mode, tuple(float(c[i]) for c in cloud))
            if abs(scalar - out[i]) > 1e-12:
                result.errors.append(f"array Pi {out[i]!r} != scalar Pi {scalar!r} at point {i}")
                break
        return result

    @staticmethod
    def _check_moments(mode, table):
        result = Outcome(fingerprint=tuple(vars(table).values()))
        for key, exact in reference.lg_moments(mode).items():
            if not abs(getattr(table, key) - exact) <= 1e-10:
                result.errors.append(f"<{key}> = {getattr(table, key)!r}, exact {exact!r}")
        return result

    @staticmethod
    def _check_numeric(ctx, out):
        result = Outcome(fingerprint=_digest(out))
        closed = reference.lg_pi((1, 0), *ctx["plan_points"].T) / math.pi**2
        err = float(np.max(np.abs(out - closed)))
        if not err <= 1e-6:
            result.errors.append(f"numeric Wigner is off the closed form by {err:.3g}")
        return result

    @staticmethod
    def _check_scan(ctx, rows):
        result = Outcome(fingerprint=_digest(rows))
        theta, phi = np.meshgrid(ctx["thetas"], ctx["phis"], indexing="ij")
        exact = reference.lg_correlation(SCAN_MODE, theta.ravel(), phi.ravel())
        if rows.shape != (exact.size, 3) or not (np.array_equal(rows[:, 0], theta.ravel())
                                                 and np.array_equal(rows[:, 1], phi.ravel())):
            result.errors.append(f"scan rows have shape {rows.shape} or the wrong angles")
            return result
        err = float(np.max(np.abs(rows[:, 2] - exact)))
        if not err <= 1e-10:
            result.errors.append(f"C(theta, phi) is off the closed form by {err:.3g}")
        return result


# ----------------------------------------------------------------- cli

@dataclass
class Process:
    code: int
    cpu_s: float
    maxrss_kb: int
    out: Path


class Cli:
    """`python -m vortexbell ...` processes, one after another, as a reproducer runs them.

    Import (mostly scipy.optimize) dominates every job, so dropping scipy or
    a cold cache shows here while compute-only changes barely move it.
    """

    name = "cli"
    in_process = False  # the jobs' time is spent in child processes

    COMMANDS = (
        ("bell-max", ["bell-max", "--n", "1", "--m", "0"], "json"),
        ("corr --max (40,20)", ["corr", "--max", "--n", "40", "--m", "20"], "json"),
        ("corr (10,0)", ["corr", "--n", "10", "--m", "0"], "csv"),
        ("schmidt (32,32)", ["schmidt", "--n", "32", "--m", "32"], "json"),
        ("wigner (30,0)", ["wigner", "--n", "30", "--m", "0", "--grid-samples", "7"], "csv"),
        ("wigner --numeric (1,0)", ["wigner", "--n", "1", "--m", "0", "--numeric"], "csv"),
        ("bell-scan (5,0)", ["bell-scan", "--n", "5", "--m", "0"], "csv"),
        ("elliptical-profile t=1.0..1.2",
         ["elliptical-profile", "--t-min", "1.0", "--t-max", "1.2", "--t-samples", "3"], "csv"),
    )

    def build(self, seed, root):
        out_dir = root / ".perfbench" / "cli"
        out_dir.mkdir(parents=True, exist_ok=True)
        return {"out_dir": out_dir, "env": child_env(root)}

    def jobs(self, ctx, seed):
        jobs = []
        for k, (name, argv, fmt) in enumerate(self.COMMANDS):
            out = ctx["out_dir"] / f"job{k}.{fmt}"
            argv = [sys.executable, "-m", "vortexbell", *argv, "--seed", str(seed), "--out", str(out)]

            def call(tr, argv=argv, out=out):
                if tr is None:
                    return run_process(argv, ctx["env"], out)
                return tr.call("cli.process", run_process, argv, ctx["env"], out)

            jobs.append(Job(name, call, lambda proc, k=k: self._check(k, proc)))
        return jobs

    def pass_check(self, jobs, outputs, outcomes):
        pass

    def _check(self, k, proc):
        result = Outcome(ok=proc.code == 0, note="" if proc.code == 0 else f"exit {proc.code}")
        if proc.code not in (0, 3):
            result.errors.append(f"exit code {proc.code}")
            return result
        if not proc.out.is_file():
            result.errors.append(f"exit code {proc.code} but no --out file")
            return result
        text = proc.out.read_text()
        if proc.out.suffix == ".json":
            payload = json.loads(text)
            payload.pop("manifest", None)
            result.fingerprint = json.dumps(payload, sort_keys=True)
            data = payload
        else:
            result.fingerprint = hashlib.sha256(text.encode()).hexdigest()
            data = np.loadtxt(proc.out, delimiter=",", skiprows=1, ndmin=2)
        try:
            errors = CLI_CHECKS[k](data)
        except (KeyError, IndexError, ValueError) as exc:
            errors = [f"malformed output: {exc!r}"]
        result.errors.extend(errors)
        return result


def _check_bell_max(p):
    errors = []
    value, argmax = p["best_value"], p["argmax"]
    again = reference.bell_abs(lambda *q: reference.lg_pi((1, 0), *q), argmax)
    if abs(again - value) > BELL_TOL:
        errors.append(f"best_value {value!r} re-evaluates to {again!r}")
    if abs(abs(vb.bell_closed_form_10(*argmax)) - value) > BELL_TOL:
        errors.append("best_value disagrees with bell_closed_form_10")
    return errors


def _check_c_max(p):
    exact = (40 - 20) / (40 + 20 + 1)
    return [] if abs(p["c_max"] - exact) <= 1e-10 else [f"c_max {p['c_max']!r} != {exact!r}"]


def _check_corr_table(rows):
    if rows.shape != (24 * 24, 3):
        return [f"corr table has shape {rows.shape}"]
    err = np.max(np.abs(rows[:, 2] - reference.lg_correlation((10, 0), rows[:, 0], rows[:, 1])))
    return [] if err <= 1e-10 else [f"C(theta, phi) off the closed form by {err:.3g}"]


def _check_schmidt(p):
    errors = [] if abs(p["sum_abs2"] - 1.0) <= 1e-12 else [f"sum_abs2 = {p['sum_abs2']!r}"]
    if len(p["terms"]) != 65:
        errors.append(f"{len(p['terms'])} terms, expected 65")
    return errors


def _wigner_table_check(mode, tol, rows_expected):
    def check(rows):
        if rows.shape != (rows_expected, 6):
            return [f"wigner table has shape {rows.shape}"]
        closed = reference.lg_pi(mode, *rows[:, :4].T)
        err = max(np.max(np.abs(rows[:, 5] - closed)), np.max(np.abs(rows[:, 4] - closed / math.pi**2)))
        return [] if err <= tol else [f"Wigner table off the closed form by {err:.3g}"]
    return check


def _check_bell_scan(rows):
    if rows.shape != (201, 3):
        return [f"bell-scan table has shape {rows.shape}"]
    exact = reference.restricted_abs(lambda *q: reference.lg_pi((5, 0), *q), rows[:, 0], rows[:, 1])
    err = np.max(np.abs(rows[:, 2] - exact))
    return [] if err <= BELL_TOL else [f"bell-scan |B| off the closed form by {err:.3g}"]


def _check_profile(rows):
    if rows.shape != (3, 2) or not np.allclose(rows[:, 0], [1.0, 1.1, 1.2], rtol=0, atol=1e-12):
        return [f"profile table has shape {rows.shape} or the wrong t values"]
    errors = [] if np.all(np.isfinite(rows[:, 1])) else ["non-finite maximum"]
    if np.any(np.diff(rows[:, 1]) < 0):
        errors.append("profile maxima decrease as t grows")
    return errors


CLI_CHECKS = (
    _check_bell_max,
    _check_c_max,
    _check_corr_table,
    _check_schmidt,
    _wigner_table_check((30, 0), BELL_TOL, 7**4),
    _wigner_table_check((1, 0), 1e-6, 3**4),
    _check_bell_scan,
    _check_profile,
)


def child_env(root):
    """Environment for every process the benchmark starts: the checkout's src, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_process(argv, env, out):
    """Run one process to completion; its CPU time and its own peak RSS (from wait4).

    ``out`` is deleted first, so a process that exits 0 without writing it
    fails its check instead of being checked against an earlier run's file.
    """
    out.unlink(missing_ok=True)
    with open(out.with_suffix(".stdout"), "wb") as stdout, open(out.with_suffix(".stderr"), "wb") as stderr:
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, out)


WORKLOADS = {w.name: w for w in (LgBell(), Elliptical(), Grids(), Cli())}
