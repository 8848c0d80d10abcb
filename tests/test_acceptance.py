"""Acceptance suite: every headline quantitative claim at its stated
tolerance, one pass/fail line per criterion (visible with pytest -s)."""

import math
import time
from pathlib import Path

import numpy as np

from vortexbell import bell, correlation, modes, quadrature, wigner

REPO_ROOT = Path(__file__).resolve().parent.parent


def _report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_restricted_bell_maximum():
    start = time.perf_counter()
    result = bell.maximize_bell(wigner.lg_transform_evaluator((1, 0)), bell.RESTRICTED)
    elapsed = time.perf_counter() - start
    x, py = (abs(c) for c in result.argmax)
    ok = (
        abs(result.best_value - 2.17) <= 0.01
        and abs(x - 0.45) <= 0.02
        and abs(py - 0.45) <= 0.02
        and elapsed < 1.0
    )
    _report(
        "restricted Bell maximum (1,0)",
        ok,
        f"|B|={result.best_value:.4f} argmax=({x:.3f},{py:.3f}) in {elapsed:.2f}s",
    )


def test_criterion_2_general_bell_maximum():
    start = time.perf_counter()
    pi = wigner.lg_transform_evaluator((1, 0))
    result = bell.maximize_bell(pi, bell.GENERAL)
    elapsed = time.perf_counter() - start
    reference_settings = (-0.07, 0.05, 0.4, -0.26, -0.05, -0.07, 0.26, 0.4)
    at_reference = abs(bell.bell_sum(pi, bell.GENERAL, reference_settings))
    ok = abs(result.best_value - 2.24) <= 0.01 and at_reference >= 2.23 and elapsed < 10.0
    _report(
        "general Bell maximum (1,0)",
        ok,
        f"|B|={result.best_value:.4f} at-reference={at_reference:.4f} in {elapsed:.2f}s",
    )


def test_criterion_3_elliptical_profile():
    start = time.perf_counter()
    profile = bell.elliptical_profile()
    elapsed = time.perf_counter() - start
    sup_in_band = abs(profile.sup_value - 2.32) <= 0.02
    # fallback clause if the supremum were only asymptotic: monotone tail
    # ending >= 2.30 at t = 2
    values = [v for _, v in profile.rows]
    tail = values[-5:]
    fallback = values[-1] >= 2.30 and all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))
    ok = (sup_in_band or fallback) and elapsed < 60.0
    _report(
        "elliptical-beam profile",
        ok,
        f"sup=|B|={profile.sup_value:.4f} at t={profile.sup_t:.1f} in {elapsed:.1f}s",
    )


def test_criterion_4_violation_grows_with_vortex_charge():
    start = time.perf_counter()
    maxima, arglocs = [], []
    for n in (1, 5, 30):
        result = bell.maximize_bell(wigner.lg_transform_evaluator((n, 0)), bell.RESTRICTED)
        maxima.append(result.best_value)
        arglocs.append(abs(result.argmax[0]))
    elapsed = time.perf_counter() - start
    ok = (
        maxima[0] < maxima[1] < maxima[2]
        and arglocs[0] > arglocs[1] > arglocs[2]
        and elapsed < 5.0
    )
    _report(
        "Bell maxima rise and shift left with n",
        ok,
        f"|B|={['%.4f' % v for v in maxima]} x*={['%.3f' % v for v in arglocs]} "
        f"in {elapsed:.2f}s",
    )


def test_criterion_5_correlation_closed_form():
    start = time.perf_counter()
    thetas = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)
    phis = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)
    worst = max(
        abs(
            correlation.quadrature_correlation((1, 0), (theta, phi))
            - 0.5 * math.sin(phi - theta)
        )
        for theta in thetas
        for phi in phis
    )
    c_vortex = correlation.max_correlation((1, 0))
    c_ground = correlation.max_correlation((0, 0))
    elapsed = time.perf_counter() - start
    ok = (
        worst <= 1e-8
        and abs(c_vortex - 0.5) <= 1e-6
        and abs(c_ground) <= 1e-10
        and elapsed < 1.0
    )
    _report(
        "correlation closed form (1,0)",
        ok,
        f"grid-err={worst:.2e} c_max={c_vortex:.6f} ground={c_ground:.2e} "
        f"in {elapsed:.2f}s",
    )


def test_criterion_6_correlation_grows_with_vortex_charge():
    start = time.perf_counter()
    values = [correlation.max_correlation((n, 0)) for n in range(1, 9)]
    worst = max(abs(v - n / (n + 1)) for n, v in enumerate(values, start=1))
    elapsed = time.perf_counter() - start
    ok = (
        all(b > a for a, b in zip(values, values[1:]))
        and values[-1] > 0.85
        and worst <= 1e-8
        and elapsed < 2.0
    )
    _report(
        "correlation maxima rise with n",
        ok,
        f"C(8,0)={values[-1]:.4f} ratio-err={worst:.2e} in {elapsed:.2f}s",
    )


def test_criterion_7_property_suite():
    start = time.perf_counter()
    failures = []
    all_modes = [(n, m) for n in range(11) for m in range(11) if n + m <= 10]

    # Wigner normalization and origin parity
    nodes, w = np.polynomial.hermite.hermgauss(16)
    w = w * np.exp(nodes * nodes)
    grids = np.meshgrid(nodes, nodes, nodes, nodes, indexing="ij")
    w4 = (
        w[:, None, None, None]
        * w[None, :, None, None]
        * w[None, None, :, None]
        * w[None, None, None, :]
    )
    for nm in all_modes:
        total = float(np.sum(w4 * wigner.wigner_lg(nm, grids)))
        if abs(total - 1.0) > 1e-6:
            failures.append(f"normalization {nm}: {total}")
        parity = wigner.wigner_transform(nm, (0.0, 0.0, 0.0, 0.0))
        if abs(parity - (-1.0) ** sum(nm)) > 1e-12:
            failures.append(f"parity {nm}: {parity}")

    # parity-expectation bound on random points
    rng = np.random.default_rng(83)
    pts = tuple(rng.uniform(-3, 3, (10_000, 4)).T)
    for nm in all_modes:
        peak = float(np.max(np.abs(wigner.wigner_transform(nm, pts))))
        if peak > 1.0 + 1e-9:
            failures.append(f"bound {nm}: {peak}")

    # closed form vs Fourier-integral engine
    axis = np.linspace(-2.0, 2.0, 5)
    for nm in [(0, 0), (1, 0), (2, 1), (5, 0)]:
        plan = wigner.lg_numeric_plan(nm)
        worst = max(
            abs(plan((x, px, y, py)) - wigner.wigner_lg(nm, (x, px, y, py)))
            for x in axis
            for px in axis
            for y in axis
            for py in axis
        )
        if worst > 1e-6:
            failures.append(f"numeric-oracle {nm}: {worst}")

    # Schmidt reconstruction
    grid_axis = np.linspace(-4.0, 4.0, 21)
    GX, GY = np.meshgrid(grid_axis, grid_axis, indexing="ij")
    for nm in all_modes:
        err = float(
            np.max(
                np.abs(
                    modes.reconstruct_from_schmidt(nm, GX, GY)
                    - modes.lg_amplitude(nm, GX, GY)
                )
            )
        )
        if err > 1e-10:
            failures.append(f"schmidt {nm}: {err}")

    # restricted sum vs the closed form
    pi10 = wigner.lg_transform_evaluator((1, 0))
    for _ in range(1000):
        x, py = rng.uniform(-4, 4, 2)
        delta = abs(
            bell.bell_closed_form_10(x, py) - bell.bell_sum(pi10, bell.RESTRICTED, (x, py))
        )
        if delta > 1e-12:
            failures.append(f"closed-form ({x},{py}): {delta}")
            break

    # orbital angular momentum from the moment table
    for nm in all_modes:
        table = quadrature.moments(nm)
        if abs((table.xpy - table.ypx) - (nm[0] - nm[1])) > 1e-8:
            failures.append(f"oam {nm}")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _report(
        "property suite",
        ok,
        f"{len(failures)} failures in {elapsed:.1f}s"
        + (f"; first: {failures[0]}" if failures else ""),
    )


def test_criterion_8_quantum_benchmark_stays_out_of_scope():
    # the two-mode squeezed-vacuum comparison (|B| ~ 2.19) lives in the
    # documentation only; no code path computes it
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    documented = "2.19" in readme
    source_dir = REPO_ROOT / "src" / "vortexbell"
    # the elliptical beam's squeeze parameter is in scope; the quantum
    # squeezed-vacuum state and its benchmark value are not
    leaked = [
        path.name
        for path in source_dir.glob("*.py")
        if "squeezed vacuum" in path.read_text(encoding="utf-8").lower()
        or "2.19" in path.read_text(encoding="utf-8")
    ]
    ok = documented and not leaked
    _report(
        "quantum benchmark out of scope",
        ok,
        f"README documents it: {documented}; code mentions: {leaked or 'none'}",
    )
