"""The three photon-source schemes feeding the multiport, with their state
constructions, stage probabilities, and production-rate formulas.

Schemes:
  * ``sps``  - independent single-photon sources combined on an input cascade;
  * ``ncl``  - N non-collinear pair sources sharing one output mode, followed
               by projective measurements on the partner modes;
  * ``cl``   - the N-th order emission of one collinear type-II pair source,
               split into 2N modes and projected on half of them.

Mode registers for joint states are ordered [a, b_1, ..., b_N].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, isfinite, sqrt
from typing import Sequence

import numpy as np

from .fock import (FockVector, PolarizationAmplitude, apply_operator, one_per_mode_state,
                   partial_inner_product, vacuum, H, V)
from .multiport import apply_mode_isometry, build_cascade, postselection_probability
from .symmetric import normalization_squared

PSI_MINUS = "psi-"
PSI_PLUS = "psi+"


@dataclass(frozen=True)
class SourceRates:
    """Emission rates of the elementary sources (events per unit time)."""

    c_sps: float = 1.0
    c_ncl: float = 1.0
    c_cl: float = 1.0

    def __post_init__(self):
        if not all(isfinite(c) and c >= 0 for c in (self.c_sps, self.c_ncl, self.c_cl)):
            raise ValueError("source rates must be finite and non-negative")


@dataclass(frozen=True)
class SchemeRate:
    """One scheme's stage breakdown: rate = multiplicity * p_input * p_output."""

    multiplicity_factor: float
    p_input: float
    p_output: float
    rate: float


@dataclass(frozen=True)
class RateReport:
    n: int
    norm_squared: float
    sps: SchemeRate
    ncl: SchemeRate
    cl: SchemeRate


def _check_kind(kind: str) -> int:
    if kind == PSI_MINUS:
        return -1
    if kind == PSI_PLUS:
        return +1
    raise ValueError(f"kind must be {PSI_MINUS!r} or {PSI_PLUS!r}, got {kind!r}")


def _checked_pair(n: int, kind: str) -> int:
    """Position of ``kind`` in a cached (psi+, psi-) pair; call it before reading the cache.

    The kind is checked first, then that there is at least one pair source.
    """
    sign = _check_kind(kind)
    if n < 1:
        raise ValueError("need at least one pair source")
    return int(sign < 0)


def _with_minus(plus: FockVector, first_b: int) -> tuple[FockVector, FockVector]:
    """(psi+, psi-) from the psi+ state of pair sources whose b modes start at ``first_b``.

    A pair factor's sign rides on its b_H branch, so the psi- state is the
    psi+ state times (-1)^(number of H photons in the b modes), term by term,
    and shares its key index.
    """
    signs = [(-1) ** sum(key[2 * first_b::2]) for key in plus.keys()]
    return plus, plus.scaled(np.array(signs))


def ncl_joint_state(n: int, kind: str = PSI_MINUS) -> FockVector:
    """First-order emission of N non-collinear pair sources sharing mode a.

    The product of N Bell-pair factors has squared norm (N+1)!; the returned
    state is divided by sqrt((N+1)!) and its unit norm is asserted rather than
    assumed.  Both kinds are cached per N and share one key index; do not
    modify them.
    """
    which = _checked_pair(n, kind)
    return _ncl_pair(n)[which]


@lru_cache(maxsize=8)
def _ncl_pair(n: int) -> tuple[FockVector, FockVector]:
    """``ncl_joint_state(n, kind)`` for psi+ and psi-, in that order."""
    s = 1.0 / sqrt(2.0)
    state = apply_operator(vacuum(n + 1), *([(s, ((0, H), (i, V))), (s, ((0, V), (i, H)))]
                                            for i in range(1, n + 1)))
    # state currently = product / 2^{N/2}; rescale to product / sqrt((N+1)!)
    unnormalized_nsq = state.norm_squared() * 2 ** n
    if not (abs(unnormalized_nsq - factorial(n + 1)) <= 1e-9 * factorial(n + 1)):
        raise AssertionError(
            f"joint-state norm check failed: {unnormalized_nsq} != {factorial(n + 1)}"
        )
    return _with_minus(state.scaled(sqrt(2 ** n / factorial(n + 1))), 1)


def projector_state(params: Sequence[PolarizationAmplitude], kind: str = PSI_MINUS) -> FockVector:
    """Separable projection target on the b modes.

    One photon per b_i, polarized orthogonally to the desired epsilon_i:
    (alpha_i* b_V^dag - beta_i* b_H^dag) for the psi- sources, with the sign
    flipped for psi+ to compensate the sources' relative phase.  The 2^N
    products are those ``apply_operator`` forms, in its term order (V before
    H, mode 0 first): the one-per-mode keys in reverse qubit order, whose key
    index ``fock.one_per_mode_state`` keeps per N.
    """
    sign = _check_kind(kind)
    params = list(params)
    values = [1 + 0j]
    for p in params:
        word = (p.alpha.conjugate(), sign * p.beta.conjugate())
        # added to 0.0 as _create adds into an empty slot, which makes a
        # zero component +0.0
        values = [0.0 + a * c for a in values for c in word]
    return one_per_mode_state(len(params), values)


def project_onto(joint: FockVector, projector: FockVector) -> tuple[FockVector, float]:
    """Partial inner product <projector| over the trailing b-mode register.

    Returns the residual on the leading modes and the success probability
    (squared norms of residual, joint and projector all accounted for, so
    unnormalized inputs compose correctly).  The residual is
    ``fock.partial_inner_product(projector, joint)``, which keeps how a joint
    state's terms meet ``projector_state``'s shared key index per N.
    """
    res = partial_inner_product(projector, joint)
    denom = joint.norm_squared() * projector.norm_squared()
    prob = res.norm_squared() / denom if denom > 0 else 0.0
    return res, prob


def dicke_2n_construction(n: int, kind: str = PSI_PLUS) -> FockVector:
    """Joint pair-source state with mode a distributed into N output modes.

    Returns a FockVector on 2N modes: A = modes 0..N-1 (the multiport outputs)
    followed by B = modes N..2N-1 (the untouched partner modes).  The
    one-per-mode component is the Schmidt superposition

        (N+1)^(-1/2) * sum_k (+-1)^k |D_N^(k)>_A |D_N^(N-k)>_B

    (+ for psi+, - for psi-, up to a global sign): grouping the emission by
    the k photons of one polarization in mode a, the cascade and
    post-selection give every k the same weight k!(N-k)! C(N,k) = N!.  This
    equals the balanced 2N-qubit Dicke state D_2N^(N) only at N = 1; the
    collinear construction reaches D_2N^(N) for every N, while the psi+
    fidelity here is 4^N / ((N+1) C(2N,N)) (8/9 at N = 2, 4/5 at N = 3).
    Both kinds are cached per N and share one key index; do not modify them.
    """
    which = _checked_pair(n, kind)
    return _dicke_2n_pair(n)[which]


@lru_cache(maxsize=8)
def _dicke_2n_pair(n: int) -> tuple[FockVector, FockVector]:
    """``dicke_2n_construction(n, kind)`` for psi+ and psi-, in that order.

    The isometry leaves the B modes alone, so the sign rule of the joint
    state carries over to B.
    """
    iso = np.zeros((2 * n, n + 1), dtype=complex)
    iso[:n, 0] = build_cascade(n).amplitudes
    iso[n:, 1:] = np.eye(n)
    return _with_minus(apply_mode_isometry(_ncl_pair(n)[0], iso), n)


def cl_input_state(n: int) -> FockVector:
    """N-th order collinear type-II emission (a_H^dag a_V^dag)^N |0> / N!.

    The 1/N! prefactor is exactly the norm of the operator product, which is
    asserted here; the result is the single basis state with n_H = n_V = N.
    """
    if n < 1:
        raise ValueError("emission order must be at least 1")
    state = apply_operator(vacuum(1), *[[(1.0, ((0, H), (0, V)))]] * n)
    nsq = state.norm_squared()
    if not (abs(nsq - factorial(n) ** 2) <= 1e-9 * factorial(n) ** 2):
        raise AssertionError(f"collinear norm check failed: {nsq} != {factorial(n) ** 2}")
    return state.scaled(1.0 / factorial(n))


def rates(
    n: int,
    params: Sequence[PolarizationAmplitude],
    src: SourceRates = SourceRates(),
) -> RateReport:
    """Per-scheme production rates of the target state at the multiport output.

    Each rate is multiplicity_factor * p_input * p_output:

      sps: c^N            * [nsq/N^N]          * [N!/N^N]
      ncl: (c/2)^N (N+1)! * [nsq/(N+1)!]       * [N!/N^N]
      cl:  c^N (N!)^2     * [(2N)!/(2N)^(2N)]  * [nsq/(N+1)!]

    Note the printed closed forms give R_cl/R_ncl = (2N)!/((N+1)(2N)^N),
    which exceeds 1 for N >= 4 even though the collinear scheme is described
    as the least efficient; the formulas are reported as they stand.
    """
    params = list(params)
    if len(params) != n:
        raise ValueError(f"expected {n} parameters, got {len(params)}")
    nsq = normalization_squared(params)
    p_o = postselection_probability(n)

    sps_mult = src.c_sps ** n
    sps_in = nsq / n ** n
    sps = SchemeRate(sps_mult, sps_in, p_o, sps_mult * sps_in * p_o)

    ncl_mult = (src.c_ncl / 2.0) ** n * factorial(n + 1)
    ncl_in = nsq / factorial(n + 1)
    ncl = SchemeRate(ncl_mult, ncl_in, p_o, ncl_mult * ncl_in * p_o)

    cl_mult = src.c_cl ** n * factorial(n) ** 2
    cl_in = postselection_probability(2 * n)
    cl_out = nsq / factorial(n + 1)
    cl = SchemeRate(cl_mult, cl_in, cl_out, cl_mult * cl_in * cl_out)

    return RateReport(n, nsq, sps, ncl, cl)
