import json
from math import comb, factorial, sqrt

import numpy as np
import pytest
from hypothesis import settings

from symphot import symmetric
from symphot.cli import _random_params as random_params  # noqa: F401  (shared by the test modules)
from symphot.fock import H, V, FockVector, PolarizationAmplitude, apply_operator, vacuum
from symphot.multiport import _expand_basis_state
from symphot.schemes import SourceRates
from symphot.symmetric import QubitStateVector, SymmetricCoefficients, dicke_state

# the same examples on every run, and no per-example deadline: wall times on a
# loaded machine vary too much for one
settings.register_profile("symphot", derandomize=True, deadline=None)
settings.load_profile("symphot")


def hamming_weight(index):
    """Number of |V> qubits (set bits) in one basis index."""
    return bin(index).count("1")


def items_bytes(state):
    """Keys in term order and the amplitudes' bytes, for bit-exact comparison."""
    keys, amps = zip(*state.items())
    return keys, np.array(amps, dtype=complex).tobytes()


def random_coefficients(n, rng):
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return c / np.linalg.norm(c)


def real_params(n, rng):
    """Random real source parameters."""
    return [PolarizationAmplitude.from_unnormalized(complex(a), complex(b))
            for a, b in rng.normal(size=(n, 2))]


def perturb_round_trip(monkeypatch):
    """Make synthesis re-expand its params with a 1e-3 error in every c'_k."""
    exact = symmetric.scaled_coefficients_from_params

    def perturbed(params):
        coeffs = exact(params)
        return SymmetricCoefficients(coeffs.n, coeffs.c + 1e-3 * np.max(np.abs(coeffs.c)))

    monkeypatch.setattr(symmetric, "scaled_coefficients_from_params", perturbed)


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


def ncl_joint_state_direct(n, kind):
    """Reference joint state: the pair factors of ``kind`` themselves, each
    sign on its b_H branch, through ``apply_operator``.

    Returns what ``schemes.ncl_joint_state`` returns, items and bytes included.
    """
    s = 1.0 / sqrt(2.0)
    sign = -1 if kind == "psi-" else 1
    state = apply_operator(vacuum(n + 1), *([(s, ((0, H), (i, V))), (sign * s, ((0, V), (i, H)))]
                                            for i in range(1, n + 1)))
    return state.scaled(sqrt(2 ** n / factorial(n + 1)))


def projector_state_direct(params, kind):
    """Reference projector: one ``apply_operator`` word per b mode.

    Returns what ``schemes.projector_state`` returns, items and bytes included.
    """
    sign = -1 if kind == "psi-" else 1
    return apply_operator(vacuum(len(params)), *(
        [(p.alpha.conjugate(), ((i, V),)), (sign * p.beta.conjugate(), ((i, H),))]
        for i, p in enumerate(params)))


def round_floats_walk(v):
    """Reference rounding: a second pass that rounds every float to 12 digits."""
    if isinstance(v, float):
        return float(f"{v:.12g}")
    if isinstance(v, dict):
        return {k: round_floats_walk(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [round_floats_walk(x) for x in v]
    return v


def render_json_walk(doc):
    """Reference renderer: the walk above, then sorted-key JSON.

    Returns what ``cli._render_json`` returns for a document whose floats
    were rounded where it was built.
    """
    return json.dumps(round_floats_walk(doc), sort_keys=True)


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
    # renormalize; a zero projection gives probability 0 and the null state
    state = QubitStateVector(n, sel)
    proj = state.norm_squared()
    if proj == 0.0:
        return state, 0.0
    return QubitStateVector(n, sel / sqrt(proj)), proj / total


def apply_mode_isometry_merge(state, matrix):
    """Reference isometry: merge each input key's expansion into one dict.

    Returns what ``multiport.apply_mode_isometry`` returns, items and their
    order included.
    """
    matrix = np.asarray(matrix, dtype=complex)
    merged: dict = {}
    for key, amp in state.items():
        terms = dict(_expand_basis_state(key, state.modes, matrix).items())
        # one bulk update per input key; keys already present keep their
        # place and get their old amplitude added back
        old = {k: merged[k] for k in merged.keys() & terms.keys()}
        merged.update(zip(terms, map(amp.__mul__, terms.values())))
        for k, a in old.items():
            merged[k] = a + merged[k]
    return FockVector(matrix.shape[0], merged)


def partitions(n, largest=None):
    """Every partition of n into positive parts, largest part first."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


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


def glynn_permanent(a):
    """Permanent of a square matrix by Glynn's formula, O(n^2 2^n).

    perm(A) = 2^(1-n) sum over sign vectors d with d_0 = +1 of
    (prod_i d_i) prod_j sum_i d_i a_ij, taken 2^15 sign vectors at a time
    so that memory stays small at n = 20.
    """
    a = np.asarray(a, dtype=complex)
    n = len(a)
    block, total = 2 ** 15, 0.0
    for start in range(0, 2 ** (n - 1), block):
        # column m is the sign vector of the even number 2m
        m = np.arange(start, min(start + block, 2 ** (n - 1)))
        d = 1.0 - 2 * ((2 * m >> np.arange(n)[:, None]) & 1)
        # two real products run several times faster than one complex-by-real one
        sums = a.real.T @ d + 1j * (a.imag.T @ d)
        total += (d.prod(axis=0) * sums.prod(axis=0)).sum()
    return total / 2 ** (n - 1)


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
