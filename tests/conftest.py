from math import comb, factorial, sqrt

import numpy as np
import pytest
from hypothesis import settings

from symphot.cli import _random_params as random_params  # noqa: F401  (shared by the test modules)
from symphot.multiport import _qubits
from symphot.schemes import SourceRates
from symphot.symmetric import dicke_state

# the same examples on every run, and no per-example deadline: wall times on a
# loaded machine vary too much for one
settings.register_profile("symphot", derandomize=True, deadline=None)
settings.load_profile("symphot")


def hamming_weight(index):
    """Number of |V> qubits (set bits) in one basis index."""
    return bin(index).count("1")


def random_coefficients(n, rng):
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return c / np.linalg.norm(c)


def pair_source_schmidt_amplitudes(n, sign):
    """Closed-form one-per-mode state of N pair sources, A half then B half.

    Expanding prod_i (a_H b_iV + sign a_V b_iH) and grouping by k gives
    a_H^(N-k) a_V^k (x) sqrt(C(N,k)) |D_N^(N-k)>_B; the cascade and
    one-per-mode post-selection turn the mode-a factor into
    N^(-N/2) k!(N-k)! sqrt(C(N,k)) |D_N^(k)>_A.  Every k therefore carries
    the weight k!(N-k)! C(N,k) = N!, and the state is
    (N+1)^(-1/2) sum_k sign^k |D_N^(k)>_A |D_N^(N-k)>_B (k counts |V>),
    not the balanced Dicke state D_2N^(N), whose Schmidt weights are
    C(N,k) / sqrt(C(2N,N)).
    """
    weights = [factorial(k) * factorial(n - k) * comb(n, k) for k in range(n + 1)]
    amps = sum(
        sign ** k * w * np.kron(dicke_state(n, k).amplitudes,
                                dicke_state(n, n - k).amplitudes)
        for k, w in enumerate(weights)
    )
    return amps / sqrt(sum(w * w for w in weights))


def postselect_one_per_mode_scan(state):
    """Reference post-selection: scan every term and keep the one-per-mode ones.

    Returns what ``multiport.postselect_one_per_mode`` returns, bit for bit.
    """
    total = state.norm_squared()
    if total == 0.0:
        raise ValueError("cannot post-select the zero vector")
    n = state.modes
    sel = np.zeros(2 ** n, dtype=complex)
    for key, amp in state.items():
        idx = 0
        ok = True
        for m in range(n):
            nh, nv = key[2 * m], key[2 * m + 1]
            if nh + nv != 1:
                ok = False
                break
            idx |= nv << (n - 1 - m)
        if ok:
            sel[idx] = amp
    return _qubits(n, sel, total)


def polished_roots_scalar(poly):
    """Reference root polish: Newton steps one root at a time.

    Returns what ``MajoranaPolynomial.roots`` returns, bit for bit.
    """
    k = poly.degree
    if k == 0:
        return np.zeros(0, dtype=complex)
    p = poly.coefficients[: k + 1]
    raw = np.roots(p[::-1])
    dp = p[1:] * np.arange(1, k + 1)
    scale = float(np.max(np.abs(p)))
    polished = []
    for z in raw:
        for _ in range(4):
            fz = np.polyval(p[::-1], z)
            if abs(fz) <= 1e-12 * scale:
                break
            dfz = np.polyval(dp[::-1], z)
            if dfz == 0:
                break
            step = fz / dfz
            if abs(np.polyval(p[::-1], z - step)) < abs(fz):
                z = z - step
            else:
                break
        polished.append(z)
    return np.asarray(polished, dtype=complex)


def cluster_pairwise(params, tol):
    """Reference clustering: one scalar projective distance per pair.

    Returns what ``slocc._cluster`` returns: (group sizes, borderline flag).
    """
    n = len(params)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    borderline = False
    for i in range(n):
        for j in range(i + 1, n):
            d = sqrt(max(0.0, 1.0 - abs(params[i].overlap(params[j])) ** 2))
            if d <= tol:
                if d >= tol / 10.0:
                    borderline = True
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    sizes: dict = {}
    for i in range(n):
        r = find(i)
        sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.values(), reverse=True), borderline


def closed_form_rates(n, nsq, src=SourceRates()):
    """The printed closed-form rate expressions, for cross-checking schemes.rates."""
    r_sps = src.c_sps ** n * nsq * factorial(n) / n ** (2 * n)
    r_ncl = src.c_ncl ** n * nsq * factorial(n) / (2 * n) ** n
    r_cl = (
        src.c_cl ** n
        * nsq
        * factorial(n)
        / (2 * n) ** n
        * factorial(2 * n)
        / ((n + 1) * (2 * n) ** n)
    )
    return {"sps": r_sps, "ncl": r_ncl, "cl": r_cl}


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
