"""Large-N synthesis through ``python -m symphot synthesize`` at N = 100..1000.

The grid of ROADMAP item 2: Gaussian Dicke coefficients (seed 200), GHZ_N,
W_N and D_N^(N/2).  Each case's exit code is pinned as measured, so a change
in either direction shows; item 2's acceptance is all zeros.  The file name
keeps it out of the default test run: the module takes about 11 s on a
2-vCPU x86 host, most of it in the O(N^3) companion eigensolves at N = 1000.
Run it with ``python -m pytest tests/slow_synthesis.py``.
"""

import json
import math

import numpy as np
import pytest

from symphot import cli

from conftest import random_coefficients
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


# bug 2 of ROADMAP item 2 (GHZ) gives the exits 3
EXPECTED = {
    _gaussian: (0, 0, 0, 0),
    _ghz: (0, 3, 3, 0),
    _w: (0, 0, 0, 0),
    _dicke_half: (0, 0, 0, 0),
}


@pytest.mark.parametrize("n", GRID)
@pytest.mark.parametrize("state", list(EXPECTED), ids=lambda f: f.__name__.lstrip("_"))
def test_exit_codes(state, n):
    proc = run_module(["synthesize", "-"], _coeff_doc(n, state(n)))
    assert proc.returncode == EXPECTED[state][GRID.index(n)]
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
