"""Literal brute-force reference implementations, used only by tests.

Everything here is deliberately the slow, direct version of a formula:
factorial tuple sums, sequential ladder-operator expansion, full basis
enumeration.  Agreement with the optimized modules is then evidence rather
than tautology.  Arithmetic runs in extended precision (mpmath, 40 digits).
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Sequence

import mpmath as mp

from symphot.fock import FockVector, H, V, PolarizationAmplitude

mp.mp.dps = 40

#: Guards keeping the literal enumerations tractable.
MAX_TUPLE_N = 8
MAX_PHOTONS = 12


def _mpc(z: complex) -> mp.mpc:
    return mp.mpc(z.real, z.imag)


def tuple_sum_ck(params: Sequence[PolarizationAmplitude], k: int) -> mp.mpc:
    """c_k by literal enumeration of all N! index tuples.

    c_k = sqrt(C(N,k)) * sum over orderings (i_1..i_N) of
          beta_{i_1}...beta_{i_k} * alpha_{i_{k+1}}...alpha_{i_N}.
    """
    params = list(params)
    n = len(params)
    if n > MAX_TUPLE_N:
        raise ValueError(f"tuple enumeration guarded at N <= {MAX_TUPLE_N}")
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    alphas = [_mpc(p.alpha) for p in params]
    betas = [_mpc(p.beta) for p in params]
    total = mp.mpc(0)
    for perm in itertools.permutations(range(n)):
        term = mp.mpc(1)
        for pos, i in enumerate(perm):
            term *= betas[i] if pos < k else alphas[i]
        total += term
    return mp.sqrt(comb(n, k)) * total


def expand_product(factors: Sequence[Sequence[tuple]], modes: int) -> FockVector:
    """Apply a product of creation-operator polynomials to the vacuum, literally.

    Each factor is a list of ``(coefficient, ops)`` monomials where ``ops`` is
    a tuple of (mode, pol) creation operators, so a factor stands for
    sum_j coeff_j * prod a^dag.  The expansion runs in extended precision and
    is rounded to a double-precision FockVector at the end.
    """
    factors = [list(f) for f in factors]
    photons = sum(max((len(ops) for _, ops in f), default=0) for f in factors)
    if photons > MAX_PHOTONS:
        raise ValueError(f"photon guard exceeded: {photons} > {MAX_PHOTONS}")
    width = 2 * modes
    state = {(0,) * width: mp.mpc(1)}
    for factor in factors:
        nxt: dict = {}
        for coeff, ops in factor:
            c = _mpc(complex(coeff))
            if c == 0:
                continue
            for key, amp in state.items():
                term = amp * c
                new = list(key)
                for mode, pol in ops:
                    if not 0 <= mode < modes or pol not in (H, V):
                        raise ValueError(f"bad operator term ({mode}, {pol})")
                    idx = 2 * mode + pol
                    term *= mp.sqrt(new[idx] + 1)
                    new[idx] += 1
                new = tuple(new)
                nxt[new] = nxt.get(new, mp.mpc(0)) + term
        state = nxt
    return FockVector(modes, {k: complex(a) for k, a in state.items()})


def product_state_factors(params: Sequence[PolarizationAmplitude], mode: int = 0):
    """Operator word for the single-mode N-photon product state."""
    return [[(p.alpha, ((mode, H),)), (p.beta, ((mode, V),))] for p in params]


def ncl_factors(n: int, sign: int):
    """Operator word for the unnormalized N-pair joint emission on modes
    [a, b_1..b_N]: prod_i (a_H^dag b_iV^dag + sign * a_V^dag b_iH^dag)."""
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    return [
        [(1.0, ((0, H), (i, V))), (float(sign), ((0, V), (i, H)))]
        for i in range(1, n + 1)
    ]


def cl_factors(n: int):
    """Operator word for the collinear emission (a_H^dag a_V^dag)^N."""
    return [[(1.0, ((0, H), (0, V)))] for _ in range(n)]


def brute_postselect(state: FockVector, n_modes: int) -> float:
    """One-per-mode probability by full basis enumeration.

    Enumerates every occupation basis state with the input's photon number and
    sums squared moduli over the one-per-mode set.
    """
    if state.modes != n_modes:
        raise ValueError("mode count mismatch")
    keys = list(state.keys())
    if not keys:
        raise ValueError("cannot post-select the zero vector")
    photons = {sum(k) for k in keys}
    if len(photons) != 1:
        raise ValueError("state must have definite photon number")
    (total_photons,) = photons
    if total_photons > MAX_PHOTONS:
        raise ValueError("photon guard exceeded")
    slots = 2 * n_modes
    selected = mp.mpf(0)
    total = mp.mpf(0)
    for key in _compositions(total_photons, slots):
        amp = state.amplitude(key)
        if amp == 0:
            continue
        weight = _mpc(amp)
        sq = (weight * mp.conj(weight)).real
        total += sq
        if all(key[2 * m] + key[2 * m + 1] == 1 for m in range(n_modes)):
            selected += sq
    return float(selected / total)


def _compositions(total: int, slots: int):
    """All tuples of ``slots`` non-negative ints summing to ``total``."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest
