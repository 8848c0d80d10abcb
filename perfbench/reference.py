"""Independent closed forms that the benchmark checks the program against.

Nothing here imports vortexbell. The LG transform is the paper's closed form

    Pi_nm = (-1)^(n+m) L_n(4(Q0+Q2)) L_m(4(Q0-Q2)) exp(-4 Q0),
    4 Q0 = X^2 + Y^2 + P_X^2 + P_Y^2,   4 Q2 = 2 (X P_Y - Y P_X),

with the Laguerre polynomials from numpy's Clenshaw evaluator
(``np.polynomial.laguerre.lagval``), and the elliptical beam is the
Gaussian

    Pi_t = exp(-(X^2 + Y^2 + P_X^2 + P_Y^2) cosh 2t + 2 sinh 2t (X Y - P_X P_Y)).
"""

import json
import math
from pathlib import Path

import numpy as np

REFERENCES_PATH = Path(__file__).with_name("references.json")


def lg_pi(mode, x, px, y, py):
    """Pi of LG mode (n, m) at points given as equal-shape arrays."""
    n, m = mode
    x, px, y, py = (np.asarray(v, dtype=float) for v in (x, px, y, py))
    four_q0 = x * x + y * y + px * px + py * py
    four_q2 = 2.0 * (x * py - y * px)
    ln = np.polynomial.laguerre.lagval(four_q0 + four_q2, [0.0] * n + [1.0])
    lm = np.polynomial.laguerre.lagval(four_q0 - four_q2, [0.0] * m + [1.0])
    return (-1.0) ** (n + m) * ln * lm * np.exp(-four_q0)


def elliptical_pi(t, x, px, y, py):
    """Pi of the +1 branch of the squeezed elliptical beam."""
    x, px, y, py = (np.asarray(v, dtype=float) for v in (x, px, y, py))
    c2t, s2t = math.cosh(2.0 * t), math.sinh(2.0 * t)
    return np.exp(-(x * x + y * y + px * px + py * py) * c2t + 2.0 * s2t * (x * y - px * py))


def bell_abs(pi, argmax):
    """|B| at an argmax: 2 entries (x, py) are restricted, 8 are general settings.

    ``pi(x, px, y, py)`` takes arrays; the four CHSH terms are evaluated in
    one call and combined as T11 + T21 + T12 - T22.
    """
    v = [float(c) for c in argmax]
    if len(v) == 2:
        x, py = v
        pts = np.array([[0.0, 0.0, 0.0, 0.0], [x, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, py], [x, 0.0, 0.0, py]])
    elif len(v) == 8:
        a1, a2, b1, b2 = v[0:2], v[2:4], v[4:6], v[6:8]
        pts = np.array([a1 + b1, a2 + b1, a1 + b2, a2 + b2])
    else:
        raise ValueError(f"argmax must have 2 or 8 entries, got {len(v)}")
    terms = pi(*pts.T)
    return abs(float(terms[0] + terms[1] + terms[2] - terms[3]))


def restricted_abs(pi, x, py):
    """Vectorized |B| of the restricted sum over arrays x, py."""
    x, py = np.asarray(x, dtype=float), np.asarray(py, dtype=float)
    z = np.zeros_like(x)
    return np.abs(pi(z, z, z, z) + pi(x, z, z, z) + pi(z, z, z, py) - pi(x, z, z, py))


def lg_moments(mode):
    """Exact second-moment table of an LG mode (fields of vortexbell's MomentTable)."""
    n, m = mode
    diag, orbital = (n + m + 1) / 2.0, (n - m) / 2.0
    return {"xx": diag, "yy": diag, "pxpx": diag, "pypy": diag, "xy": 0.0,
            "pxpy": 0.0, "xpy": orbital, "ypx": -orbital, "xpx_sym": 0.0, "ypy_sym": 0.0}


def lg_correlation(mode, theta, phi):
    """C(theta, phi) = (n - m)/(n + m + 1) sin(phi - theta) for an LG mode."""
    n, m = mode
    return (n - m) / (n + m + 1.0) * np.sin(np.asarray(phi) - np.asarray(theta))


def lg_key(mode, kind):
    return f"lg/{mode[0]},{mode[1]}/{kind}"


def elliptical_key(t, kind="general"):
    return f"elliptical/{t:.1f}/{kind}"


def load_references():
    """Best-known maxima: key -> {"value", "argmax", "margin"}; each is re-verified on load."""
    table = json.loads(REFERENCES_PATH.read_text())["maxima"]
    for key, entry in table.items():
        family, param, _kind = key.split("/")
        if family == "lg":
            mode = tuple(int(k) for k in param.split(","))
            pi = lambda *p, mode=mode: lg_pi(mode, *p)
        else:
            pi = lambda *p, t=float(param): elliptical_pi(t, *p)
        value = bell_abs(pi, entry["argmax"])
        if abs(value - entry["value"]) > 1e-9:
            raise ValueError(f"reference {key} does not re-evaluate: {value} != {entry['value']}")
    return table
