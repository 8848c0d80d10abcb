"""Command-line front end: scans and maximizations as CSV/JSON tables.

Subcommands
-----------
bell-max            maximize |B| for an LG mode (restricted or general settings)
bell-scan           restricted Bell-sum table over x (diagonal or fixed py)
corr                correlation coefficient: --max scalar or a (theta, phi) grid
schmidt             HG expansion coefficients of an LG mode
wigner              closed-form (or --numeric) Wigner tables on a 4D grid
elliptical-profile  per-t Bell maxima of the squeezed elliptical beam

Scalar results are JSON on stdout (with an embedded run manifest); tables are
CSV with one header row, written to stdout or --out (file outputs get a
sidecar <out>.manifest.json). Every manifest carries elapsed_s, the wall
seconds of the subcommand up to its output, and the python and numpy
versions. bell-max prints violation, whether |B| exceeds 2 by more than
1e-12; elliptical-profile adds sup_t, sup_best_abs_B, violation, converged,
unconverged_t and the total evaluations to its manifest, which goes to
stderr when the CSV goes to stdout, so no stream mixes two formats. All
numbers carry 17 significant digits. Every subcommand accepts --seed and
ignores it (bell-max and elliptical-profile require it >= 0): no search
reads a seed, and perfbench/ still passes one (ROADMAP.md, item 1).

Exit codes: 0 success, 2 argument error (a bad flag, input the library rejects,
or a request too large for memory), 3 optimizer non-convergence, 4 I/O error.
A reader that closes stdout early (``| head``) is not an error: the command
stops writing and exits 0.
"""

import argparse
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import __version__
from .bell import (
    GENERAL,
    RESTRICTED,
    OptimizerConfig,
    _t_grid,
    bell_scan,
    elliptical_profile,
    maximize_bell,
)
from .correlation import correlation_scan, max_correlation
from .modes import ModeIndex, schmidt_coefficients
from .quadrature import QuadratureConfig
from .wigner import (
    MAX_SQUEEZE,
    EllipticalParams,
    NumericWignerPlan,
    elliptical_field,
    lg_numeric_plan,
    lg_transform_evaluator,
    wigner_elliptical,
    wigner_lg,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3
EXIT_IO = 4


def _manifest(command, args):
    parameters = {
        key: value for key, value in sorted(vars(args).items())
        if key not in ("func", "out", "command", "started")
    }
    return {
        "command": command,
        "parameters": parameters,
        "artifact_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "elapsed_s": time.perf_counter() - args.started,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
    }


def _emit_json(payload, out):
    text = json.dumps(payload, indent=2)
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _emit_csv(header, rows, out, manifest):
    row_format = ",".join(["%.17g"] * (header.count(",") + 1))
    lines = [header]
    lines.extend(row_format % tuple(row) for row in np.asarray(rows, dtype=float).tolist())
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        with open(f"{out}.manifest.json", "w", encoding="utf-8") as handle:
            handle.write(json.dumps(manifest, indent=2) + "\n")


def _optimizer_config(args):
    return OptimizerConfig(simplex_tol=args.simplex_tol, max_iters=args.max_iters, seed=args.seed)


def _add_mode_flags(parser):
    parser.add_argument("--n", type=int, required=True, help="first mode index (n >= 0)")
    parser.add_argument("--m", type=int, required=True, help="second mode index (m >= 0)")


def _add_optimizer_flags(parser):
    defaults = OptimizerConfig()  # the library states the defaults once
    parser.add_argument("--simplex-tol", type=float, default=defaults.simplex_tol,
                        help="step and gradient tolerance at which the search stops; "
                             "converged still needs |grad B| <= 1e-7, so a coarse "
                             "tolerance can exit 3")
    parser.add_argument("--max-iters", type=int, default=defaults.max_iters,
                        help="Newton iteration cap for the whole search")


def _cmd_bell_max(args):
    mode = ModeIndex(args.n, args.m)
    cfg = _optimizer_config(args)
    result = maximize_bell(lg_transform_evaluator(mode), args.settings, cfg)
    payload = {
        "best_value": result.best_value,
        "argmax": list(result.argmax),
        "evaluations": result.evaluations,
        "converged": result.converged,
        "violation": result.violation,
        "manifest": _manifest("bell-max", args),
    }
    _emit_json(payload, args.out)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _cmd_bell_scan(args):
    mode = ModeIndex(args.n, args.m)
    rows = bell_scan(mode, (args.x_min, args.x_max), args.samples, py=args.py)
    _emit_csv("x,py,abs_B", rows, args.out, _manifest("bell-scan", args))
    return EXIT_OK


def _cmd_corr(args):
    mode = ModeIndex(args.n, args.m)
    if args.max:
        payload = {
            "n": mode.n,
            "m": mode.m,
            "c_max": max_correlation(mode),
            "manifest": _manifest("corr", args),
        }
        _emit_json(payload, args.out)
        return EXIT_OK
    thetas = np.linspace(args.theta_min, args.theta_max, args.theta_samples, endpoint=False)
    phis = np.linspace(args.phi_min, args.phi_max, args.phi_samples, endpoint=False)
    rows = correlation_scan(mode, thetas, phis)
    _emit_csv("theta,phi,c", rows, args.out, _manifest("corr", args))
    return EXIT_OK


def _cmd_schmidt(args):
    mode = ModeIndex(args.n, args.m)
    terms = []
    total = 0.0
    for k, term in enumerate(schmidt_coefficients(mode)):
        abs2 = abs(term.coefficient) ** 2
        total += abs2
        terms.append(
            {
                "k": k,
                "hg": [term.hg_index.n, term.hg_index.m],
                "re": term.coefficient.real,
                "im": term.coefficient.imag,
                "abs2": abs2,
            }
        )
    payload = {
        "n": mode.n,
        "m": mode.m,
        "terms": terms,
        "sum_abs2": total,
        "manifest": _manifest("schmidt", args),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_wigner(args):
    elliptical = args.elliptical_t is not None
    if elliptical and (args.n is not None or args.m is not None):
        raise ValueError("give either --n/--m or --elliptical-t, not both")
    if not elliptical and (args.n is None or args.m is None):
        raise ValueError("a mode needs both --n and --m (or use --elliptical-t)")
    if not elliptical and args.sign is not None:
        raise ValueError("--sign picks the elliptical branch, so it needs --elliptical-t")
    if args.order is not None and not args.numeric:
        raise ValueError("--order sets the quadrature of --numeric, which is not on")
    if args.grid_samples < 1:
        raise ValueError(f"--grid-samples must be >= 1, got {args.grid_samples}")
    if not -math.inf < args.grid_min <= args.grid_max < math.inf:
        raise ValueError(f"bad grid range [{args.grid_min}, {args.grid_max}]")

    if elliptical:
        params = EllipticalParams(args.elliptical_t, 1 if args.sign is None else args.sign)
        if args.numeric:
            config = None if args.order is None else QuadratureConfig(args.order)
            w_at = NumericWignerPlan(partial(elliptical_field, params), config)
        else:
            w_at = partial(wigner_elliptical, params)
    else:
        mode = ModeIndex(args.n, args.m)
        w_at = lg_numeric_plan(mode, args.order) if args.numeric else partial(wigner_lg, mode)

    axis = np.linspace(args.grid_min, args.grid_max, args.grid_samples)
    grid = [g.ravel() for g in np.meshgrid(axis, axis, axis, axis, indexing="ij")]
    w = w_at(grid)
    rows = np.column_stack([*grid, w, math.pi**2 * w])
    _emit_csv("x,px,y,py,w,pi", rows, args.out, _manifest("wigner", args))
    return EXIT_OK


def _cmd_elliptical_profile(args):
    if not (0.0 <= args.t_min <= args.t_max <= MAX_SQUEEZE):
        raise ValueError(
            f"t range [{args.t_min}, {args.t_max}] must sit inside [0, {MAX_SQUEEZE:g}]"
        )
    if args.t_samples < 1:
        raise ValueError(f"--t-samples must be >= 1, got {args.t_samples}")
    cfg = _optimizer_config(args)
    ts = _t_grid(args.t_min, args.t_max, args.t_samples)
    profile = elliptical_profile(ts, kind=args.settings, config=cfg)
    summary = {
        "sup_t": profile.sup_t,
        "sup_best_abs_B": profile.sup_value,
        "violation": profile.violation,
        "converged": not profile.unconverged_t,
        "unconverged_t": list(profile.unconverged_t),
        "evaluations": profile.evaluations,
        **_manifest("elliptical-profile", args),
    }
    _emit_csv("t,best_abs_B", profile.rows, args.out, summary)
    if args.out is None:
        # stdout carries the CSV alone
        print(json.dumps(summary, indent=2), file=sys.stderr)
    return EXIT_OK if summary["converged"] else EXIT_NOT_CONVERGED


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vortexbell",
        description="Bell-CHSH and correlation analysis of vortex beams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bell-max", help="maximize |B| for an LG mode")
    _add_mode_flags(p)
    p.add_argument("--settings", choices=(RESTRICTED, GENERAL), default=RESTRICTED)
    _add_optimizer_flags(p)
    p.set_defaults(func=_cmd_bell_max)

    p = sub.add_parser("bell-scan", help="restricted Bell-sum scan table")
    _add_mode_flags(p)
    p.add_argument("--x-min", type=float, default=0.0)
    p.add_argument("--x-max", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--py", type=float, default=None,
                   help="fix py at this value; default scans the diagonal py = x")
    p.set_defaults(func=_cmd_bell_scan)

    p = sub.add_parser("corr", help="quadrature correlation coefficient")
    _add_mode_flags(p)
    p.add_argument("--max", action="store_true", help="emit the scalar maximum only")
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=2.0 * math.pi)
    p.add_argument("--theta-samples", type=int, default=24)
    p.add_argument("--phi-min", type=float, default=0.0)
    p.add_argument("--phi-max", type=float, default=2.0 * math.pi)
    p.add_argument("--phi-samples", type=int, default=24)
    p.set_defaults(func=_cmd_corr)

    p = sub.add_parser("schmidt", help="HG expansion of an LG mode")
    _add_mode_flags(p)
    p.set_defaults(func=_cmd_schmidt)

    p = sub.add_parser("wigner", help="Wigner function table on a 4D grid")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--elliptical-t", type=float, default=None,
                   help="tabulate the elliptical beam at this squeeze instead of a mode")
    p.add_argument("--sign", type=int, default=None, choices=(1, -1),
                   help="branch of the elliptical beam (default 1); --elliptical-t only")
    p.add_argument("--grid-min", type=float, default=-1.0)
    p.add_argument("--grid-max", type=float, default=1.0)
    p.add_argument("--grid-samples", type=int, default=3)
    p.add_argument("--numeric", action="store_true",
                   help="use the Fourier-integral engine instead of the closed form")
    p.add_argument("--order", type=int, default=None,
                   help="Gauss-Legendre order, --numeric only "
                        "(default 96, 3(n+m)+56 past n+m=13)")
    p.set_defaults(func=_cmd_wigner)

    p = sub.add_parser("elliptical-profile",
                       help="Bell maxima of the elliptical beam over a t grid")
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--t-samples", type=int, default=21)
    p.add_argument("--settings", choices=(RESTRICTED, GENERAL), default=GENERAL)
    _add_optimizer_flags(p)
    p.set_defaults(func=_cmd_elliptical_profile)

    for p in sub.choices.values():
        p.add_argument("--seed", type=int, default=OptimizerConfig().seed,
                       help="accepted and ignored: no search reads a seed")
        p.add_argument("--out", default=None, help="write the output here instead of stdout")
    return parser, sub.choices


def main(argv=None):
    """Run one subcommand; returns the process exit code."""
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    args.started = time.perf_counter()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(commands[args.command].format_usage(), file=sys.stderr, end="")
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader stopped early (`| head`); send the unflushed rest nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry():
    sys.exit(main())
