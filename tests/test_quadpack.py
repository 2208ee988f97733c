"""QUADPACK's QAGS in Python floats: scipy's quad as its oracle, and a CLI without scipy."""

import math
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from isocrpc.cli import main
from isocrpc.errors import InvalidParams
from isocrpc.families import _euclid_edge, _euclid_height, make_spec
from isocrpc.quadpack import qags

# the ratios whose default boxes README's miss scan and the benchmark use
BOX_RATIOS = [1e-14, 4.85e-14, 1e-10, 3e-8, 4e-8, 4.5e-8, 0.3, 2.0, 3.402954,
              -0.3, -2.844798, -4.0]


def _integrand(a):
    """The Euclidean profile's slope h'(r) and its anchor, as the height integrates them."""
    def hp(r):
        return r ** a / math.sqrt(1.0 - r ** (2.0 * a))
    return hp, 0.0 if a > 0 else _euclid_edge(a)


def _same_as_quad(a, us):
    """Assert qags gives quad's result and error bits at each u, and misses
    where quad appends its message; return the (h, ier) pairs."""
    hp, anchor = _integrand(a)
    out = []
    for u in us:
        ref = quad(hp, anchor, u, epsabs=1e-12, epsrel=1e-12, limit=200, full_output=1)
        h, abserr, ier = qags(hp, anchor, u)
        assert (h, abserr) == ref[:2] and (ier != 0) == (len(ref) == 4), (a, u, ref, ier)
        out.append((h, ier))
    return out


def _near_edges(lo, hi):
    """u at and one and two ulps inside each edge of a box's u range."""
    return [lo, math.nextafter(lo, hi), math.nextafter(math.nextafter(lo, hi), hi),
            hi, math.nextafter(hi, lo), math.nextafter(math.nextafter(hi, lo), lo)]


@pytest.mark.parametrize("seed", range(4))
def test_qags_gives_the_bits_of_quad_at_seeded_ratios(seed):
    # |a| in [0.25, 4]: a random u of the default box, u at its edges and
    # u near the anchor on either side; the height is these integrals
    rng = random.Random(seed)
    for _ in range(100):
        a = rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 4.0)
        u0, u1 = make_spec("euclidean_rotational", {"a": a}).domain[:2]
        us = [rng.uniform(u0, u1), *_near_edges(u0, u1)]
        if a > 0:  # the anchor u = 0 is off the profile; u just above it
            us += [5e-324, 1e-300, 1e-12]
        else:  # u below the anchor, down to the profile's end u = 1
            us += [rng.uniform(1.0, u0), 1.0 + 1e-6, math.nextafter(1.0, 2.0)]
        hs = _same_as_quad(a, us)
        assert all(ier == 0 for _h, ier in hs[:7])  # the default box
        met = [(u, h) for u, (h, ier) in zip(us, hs) if ier == 0]
        heights = _euclid_height({"a": a}, np.array([u for u, _h in met]))
        assert heights.tolist() == [h for _u, h in met]


@pytest.mark.parametrize("a", BOX_RATIOS)
def test_qags_gives_the_bits_and_the_misses_of_quad_on_a_default_box(a):
    # u at the box's edges, and README's 201-point scan, whose misses it
    # reports (every tenth point where they are not scattered)
    u0, u1 = make_spec("euclidean_rotational", {"a": a}).domain[:2]
    _same_as_quad(a, [u for u in _near_edges(u0, u1) if u > 0.0 and u ** (2.0 * a) < 1.0])
    n = 200 if 3e-8 <= a <= 4e-8 else 20
    scan = _same_as_quad(a, [u0 + (u1 - u0) * k / n for k in range(1, n + 1)])
    misses = sum(ier != 0 for _h, ier in scan)
    if 0.0 < a < 1e-9:
        assert misses == n
    elif 3e-8 <= a <= 4e-8:
        assert 0 < misses < n
    else:
        assert misses == 0


def test_a_miss_next_to_the_anchor_is_kept_where_it_meets_the_tolerance(capsys):
    # QAGS cannot bisect [0, 1e-323] and misses there, but h' is monotone, so
    # the height and QAGS's result lie within u h'(u) << 1e-12 of 0: the box
    # from 1e-323 writes the mesh of the box from 1e-300
    hp, _anchor = _integrand(3e-7)
    h, _abserr, ier = qags(hp, 0.0, 1e-323)
    assert ier != 0 and abs(h) <= 1e-323 * hp(1e-323) <= 5e-13
    assert _euclid_height({"a": 3e-7}, np.array([1e-323])).tolist() == [h]
    outs = []
    for u0 in ("1e-323", "1e-300"):
        argv = ["generate", "--family", "euclidean_rotational", "--a", "3e-7",
                f"--domain={u0},0.1,0,1", "--res", "3x3"]
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and [ln[:2] for ln in outs[0].splitlines()].count("v ") == 6
    # far from the anchor a miss is still refused
    with pytest.raises(InvalidParams, match="misses its tolerance"):
        _euclid_height({"a": 1e-14}, np.array([0.05]))


# generic integrands, as (name, f, a, b): singular, oscillatory, divergent,
# tiny and reversed intervals; among them are the paths of QAGS that the
# Euclidean slope never takes: a round-off miss at the first rule (1e4 cos),
# the epsilon table's irregular-behaviour cut and end without extrapolation
# (1/x), its shift at limexp entries (1/(x log^2 x)) and divergence (x^-1.5)
GENERIC = [
    ("1/sqrt(x)", lambda x: 1.0 / math.sqrt(x), 0.0, 1.0),
    ("x^-0.99", lambda x: x ** -0.99, 0.0, 1.0),
    ("x^-0.999", lambda x: x ** -0.999, 0.0, 1.0),
    ("log(x)", math.log, 0.0, 1.0),
    ("log(x)/sqrt(x)", lambda x: math.log(x) / math.sqrt(x), 0.0, 1.0),
    ("|x-0.3|^-0.5", lambda x: abs(x - 0.3) ** -0.5, 0.0, 1.0),
    ("log|x-0.3|", lambda x: math.log(abs(x - 0.3)), 0.0, 1.0),
    ("1/sqrt(x(1-x))", lambda x: (x * (1.0 - x)) ** -0.5, 0.0, 1.0),
    ("sin(1000x)", lambda x: math.sin(1000.0 * x), 0.0, 1.0),
    ("cos(100x)/sqrt(x)", lambda x: math.cos(100.0 * x) / math.sqrt(x), 0.0, 1.0),
    ("sin(x)/x", lambda x: math.sin(x) / x, 0.0, 100.0),
    ("exp(x)", math.exp, 0.0, 1.0),
    ("0", lambda x: 0.0, 0.0, 1.0),
    ("sign(x-1/3)", lambda x: 1.0 if x > 1.0 / 3.0 else -1.0, 0.0, 1.0),
    ("1e-300 x", lambda x: 1e-300 * x, 0.0, 1.0),
    ("1/sqrt(x) on [0, 1e-300]", lambda x: 1.0 / math.sqrt(x), 0.0, 1e-300),
    ("1 on [0, 1e-323]", lambda x: 1.0, 0.0, 1e-323),
    ("1e4 cos(2 pi x)", lambda x: 1e4 * math.cos(2.0 * math.pi * x), 0.0, 1.0),
    ("1/x", lambda x: 1.0 / x, 0.0, 1.0),
    ("1/x reversed", lambda x: 1.0 / x, 1.0, 0.0),
    ("sin(1/x)", lambda x: math.sin(1.0 / x), 0.0, 1.0),
    ("sin(1/x)^2", lambda x: math.sin(1.0 / x) ** 2, 0.0, 1.0),
    ("1/(x log(x)^2)", lambda x: 1.0 / (x * math.log(x) ** 2), 0.0, 0.5),
    ("x^-1.5", lambda x: x ** -1.5, 0.0, 1.0),
    ("x^-1.01", lambda x: x ** -1.01, 0.0, 1.0),
]


@pytest.mark.parametrize("name,f,a,b", GENERIC, ids=[case[0] for case in GENERIC])
def test_qags_gives_the_bits_and_the_misses_of_quad_on_generic_integrands(name, f, a, b):
    ref = quad(f, a, b, epsabs=1e-12, epsrel=1e-12, limit=200, full_output=1)
    h, abserr, ier = qags(f, a, b)
    assert (h, abserr) == ref[:2] and (ier != 0) == (len(ref) == 4), (ref, ier)


# --- the CLI runs without scipy ----------------------------------------------------

_BLOCK_SCIPY = ("import sys; sys.modules['scipy'] = None; from isocrpc.cli import main; "
                "sys.exit(main(sys.argv[1:]))")


def _python(*args):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-W", "error", *args], env=env, text=True,
                          capture_output=True, timeout=120)


def test_importing_the_cli_loads_no_scipy():
    proc = _python("-c", "import sys, isocrpc.cli; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("argv", [
    ["generate", "--family", "euclidean_rotational", "--res", "20x20"],
    ["generate", "--family", "euclidean_rotational", "--a", "1e-14", "--res", "20x20"],
])
def test_the_euclidean_height_runs_with_scipy_blocked(argv, capsys):
    proc = _python("-c", _BLOCK_SCIPY, *argv)
    code = main(argv)
    out, err = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    if "1e-14" in argv:  # the one-line refusal
        assert (code, out, err) == (1, "", "error: euclidean_rotational: the height integral "
                                           "misses its tolerance 1e-12 at a = 1e-14\n")
    else:
        assert code == 0 and out.count("\nv ") == 399
