"""Large-N synthesis through ``python -m symphot synthesize`` at N = 100..1000.

The grid of ROADMAP item 2: Gaussian Dicke coefficients (seed 200), GHZ_N,
W_N and D_N^(N/2), and product states with repeated roots at N = 200..300
(bug 4).  Each case's exit code is pinned as measured, so a change in either
direction shows; item 2's acceptance is all zeros.  The file name keeps it out
of the default test run: the module takes about 12 s on a 2-vCPU x86 host,
most of it in the O(N^3) companion eigensolves at N = 1000.
Run it with ``python -m pytest tests/slow_synthesis.py``.
"""

import json
import math

import numpy as np
import pytest

from symphot import cli

from conftest import product_polynomial_numpy, random_coefficients, random_params
from test_cli import _coeff_doc, run_module

GRID = (100, 200, 500, 1000)


def _gaussian(n):
    return random_coefficients(n, np.random.default_rng(200))


def _ghz(n):
    c = np.zeros(n + 1)
    c[0] = c[n] = 1 / math.sqrt(2)
    return c


def _w(n):
    return np.eye(n + 1)[1]


def _dicke_half(n):
    return np.eye(n + 1)[n // 2]


def _repeated_roots(n):
    """A product of random photons, each repeated 1 to 4 times, seeded by N.

    The reference expansion builds c_k / N!, so the document does not move
    with ``symmetric._product_polynomial``.
    """
    rng = np.random.default_rng(n)
    params = []
    while len(params) < n:
        params += [random_params(1, rng)[0]] * min(int(rng.integers(1, 5)), n - len(params))
    return product_polynomial_numpy(params) / np.sqrt([float(math.comb(n, k)) for k in range(n + 1)])


# bug 2 of ROADMAP item 2 (GHZ) and bug 4 (repeated roots) give the exits 3
EXPECTED = {
    _gaussian: dict(zip(GRID, (0, 0, 0, 0))),
    _ghz: dict(zip(GRID, (0, 3, 3, 0))),
    _w: dict(zip(GRID, (0, 0, 0, 0))),
    _dicke_half: dict(zip(GRID, (0, 0, 0, 0))),
    _repeated_roots: {200: 0, 241: 0, 255: 3, 266: 3, 282: 3, 294: 3, 296: 3, 300: 0},
}


@pytest.mark.parametrize("state, n", [(state, n) for state, row in EXPECTED.items() for n in row],
                         ids=lambda v: v.__name__.lstrip("_") if callable(v) else str(v))
def test_exit_codes(state, n):
    proc = run_module(["synthesize", "-"], _coeff_doc(n, state(n)))
    assert proc.returncode == EXPECTED[state][n]
    if proc.returncode == cli.EXIT_OK:
        assert proc.stderr == ""
        payload = json.loads(proc.stdout)
        assert payload["N"] == n
        assert 1 - payload["round_trip_fidelity"] <= 1e-9
    else:
        assert proc.returncode == cli.EXIT_NUMERICAL
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: ")
