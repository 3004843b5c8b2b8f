"""The closed form against multiport permanents at N = 18..20.

The file name keeps it out of the default test run: each permanent costs
O(N^2 2^N), and the module takes about 30 s on a 2-vCPU x86 host, 17 s of it
at N = 20.  Run it with ``python -m pytest tests/slow_permanents.py``.
"""

import pytest

from symphot.multiport import postselected_state

from conftest import random_params
from test_multiport import TestPostselectedStatePermanents as _Permanents, expanded


@pytest.mark.parametrize("n", range(18, 21))
def test_patterns_match_permanents(n, rng):
    for params in (random_params(n, rng), [random_params(1, rng)[0]] * n):
        state, p = expanded(postselected_state(params))
        _Permanents._check_against_permanents(params, state, p, rng)
