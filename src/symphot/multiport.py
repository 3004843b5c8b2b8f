"""The output multiport: a beam-splitter cascade distributing N photons from
one spatial mode into N modes, plus post-selection on one photon per mode.

Splitter n has reflectivity 1/n (real orthogonal convention), which makes the
single-photon amplitude into every output equal to 1/sqrt(N).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial, sqrt
from typing import Sequence

import numpy as np

from .fock import (FockVector, H, V, PolarizationAmplitude, apply_operator, basis_state,
                   one_per_mode_keys)
from .symmetric import (
    QubitStateVector,
    amplitudes_by_weight,
    normalization_squared,
    scaled_coefficients_from_params,
)

#: Tolerance for the balanced-amplitude check on cascade construction.
BALANCE_TOL = 1e-12


@dataclass(frozen=True)
class CascadeSpec:
    """A beam-splitter cascade 1 -> n modes.

    ``amplitudes`` is the single-photon output amplitude vector t_1..t_n;
    ``unitary`` is the full n x n mode transform (input enters mode 0);
    ``phase`` is that of prod_j t_j, taken factor by factor so it cannot underflow.
    """

    n: int
    reflectivities: tuple
    amplitudes: np.ndarray
    unitary: np.ndarray
    phase: np.complex128 = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", np.asarray(self.amplitudes, dtype=complex))
        object.__setattr__(self, "unitary", np.asarray(self.unitary, dtype=complex))
        object.__setattr__(self, "phase", np.prod(self.amplitudes / abs(self.amplitudes)))


@lru_cache(maxsize=64)
def build_cascade(n: int) -> CascadeSpec:
    """Compose splitters with reflectivity 1/k (k = 2..n) into one multiport; cached, read-only."""
    if n < 1:
        raise ValueError("mode count must be at least 1")
    # the photon entering mode 0 meets BS_n first, so compose U = G_2 ... G_n;
    # BS_k couples the through line (mode 0) with output mode k-1
    u = np.eye(n)
    for k in range(2, n + 1):
        r = 1.0 / k
        g = np.eye(n)
        g[0, 0] = sqrt(1.0 - r)
        g[0, k - 1] = sqrt(r)
        g[k - 1, 0] = sqrt(r)
        g[k - 1, k - 1] = -sqrt(1.0 - r)
        u = u @ g
    t = u[:, 0].copy()
    if not (abs(abs(t) - 1.0 / sqrt(n)).max() <= BALANCE_TOL):
        raise AssertionError("cascade amplitudes are not balanced")
    spec = CascadeSpec(n, tuple(1.0 / k for k in range(2, n + 1)), t, u)
    spec.amplitudes.setflags(write=False)
    spec.unitary.setflags(write=False)
    return spec


def _expand_basis_state(key: tuple, in_modes: int, matrix: np.ndarray) -> FockVector:
    """Expansion of one occupation basis state under a_{i,P}^dag -> sum_j M_ji a_{j,P}^dag."""
    out_modes = matrix.shape[0]
    norm = 1.0
    words = []
    for i in range(in_modes):
        for pol in (H, V):
            count = key[2 * i + pol]
            norm *= factorial(count)
            words += [[(cj, ((j, pol),)) for j, cj in enumerate(matrix[:, i]) if cj != 0]] * count
    start = basis_state(out_modes, (0,) * (2 * out_modes), 1.0 / sqrt(norm))
    return apply_operator(start, *words)


def apply_mode_isometry(state: FockVector, matrix: np.ndarray) -> FockVector:
    """Transform creation operators by an isometry on the spatial modes.

    ``matrix`` has shape (out_modes, in_modes) with orthonormal columns; both
    polarizations see the same spatial transform.  Each input key's expansion
    is merged into one map in input-key order, so the output keys appear in
    order of first appearance.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape[1] != state.modes:
        raise ValueError("matrix column count must match input mode count")
    merged: dict = {}
    for key, amp in state.items():
        for out_key, coeff in _expand_basis_state(key, state.modes, matrix).items():
            merged[out_key] = merged.get(out_key, 0.0) + amp * coeff
    return FockVector(matrix.shape[0], merged)


def distribute(state: FockVector, spec: CascadeSpec) -> FockVector:
    """Distribute a single-mode state into the cascade's n output modes."""
    if state.modes != 1:
        raise ValueError("distribute expects a single-spatial-mode input")
    return apply_mode_isometry(state, spec.amplitudes.reshape(spec.n, 1))


def _qubits(n: int, sel: np.ndarray, total: float) -> tuple[QubitStateVector, float]:
    """Renormalized one-per-mode amplitudes and their probability relative to ``total``.

    A zero projection gives probability 0 and a null (all-zero) state.
    """
    state = QubitStateVector(n, sel)
    proj = state.norm_squared()
    if proj == 0.0:
        return state, 0.0
    return QubitStateVector(n, sel / sqrt(proj)), proj / total


#: Per state, its post-selected (qubits, p); a vector never changes.
_POSTSELECTED = weakref.WeakKeyDictionary()


def postselect_one_per_mode(state: FockVector) -> tuple[QubitStateVector, float]:
    """Project onto exactly one photon (either polarization) per spatial mode.

    Returns the renormalized projection as polarization qubits and the success
    probability relative to the squared norm of ``state``.  The result is
    built once per state, from the amplitudes of its 2^n one-per-mode keys
    whatever the number of terms, and kept while the state lives (a vector
    never changes); later calls return the same tuple.  Its qubit amplitudes
    are read-only: the CLI checks, the ``pairs`` benchmark and its checker
    only read them.
    """
    result = _POSTSELECTED.get(state)
    if result is None:
        total = state.norm_squared()
        if total == 0.0:
            raise ValueError("cannot post-select the zero vector")
        n = state.modes
        sel = np.fromiter(map(state.amplitude, one_per_mode_keys(n)), dtype=complex, count=2 ** n)
        result = _POSTSELECTED[state] = _qubits(n, sel, total)
        result[0].amplitudes.setflags(write=False)
    return result


def run_pipeline(params: Sequence[PolarizationAmplitude]) -> tuple[QubitStateVector, float]:
    """Source parameters -> multiport -> one-per-mode post-selection.

    Only the post-selected sector is built, as an array with one axis per
    output mode whose entries 0, 1, 2 mean empty, H and V.  Photon i moves the
    amplitude of every empty mode j into its H and V entries with weights
    t_j alpha_i and t_j beta_i, so no mode ever receives a second photon.
    The filled block [1:3]^N, in C order, is the qubit vector with qubit 0 the
    most significant bit; its entries are the multiport permanents, and
    ``distribute`` is the full expansion they are checked against.  The
    success probability is N!/N^N independent of the polarizations; it is
    taken relative to the norm of the input, sum_k |c_k|^2 / N!, which the
    isometry preserves.
    """
    params = list(params)
    if not params:
        raise ValueError("params must be non-empty")
    n = len(params)
    t = build_cascade(n).amplitudes
    sector = np.zeros((3,) * n, dtype=complex)
    sector[(0,) * n] = 1.0
    for p in params:
        pol = np.array([p.alpha, p.beta])
        nxt = np.zeros_like(sector)
        for j, tj in enumerate(t):
            # mode j's axis first: entry 0 is empty, 1:3 are H and V
            src, dst = np.moveaxis(sector, j, 0), np.moveaxis(nxt, j, 0)
            dst[1:] += np.multiply.outer(tj * pol, src[0])
        sector = nxt
    sel = sector[(slice(1, 3),) * n].reshape(2 ** n)
    return _qubits(n, sel, normalization_squared(params))


def postselected_state(params: Sequence[PolarizationAmplitude]) -> tuple[np.ndarray, float]:
    """The result of ``run_pipeline`` in closed form, one amplitude per Hamming weight.

    Every one-per-mode output pattern carries the common factor prod_j t_j
    times the sum over photon orderings, which depends only on how many
    photons are V; so the post-selected state is sum_k c_k |D_N^(k)> with the
    phase of prod_j t_j, and the probability is N!/N^N.  Of the returned
    (amplitudes, p), ``amplitudes[hamming_weights(N)]`` is ``run_pipeline``'s state.
    """
    params = list(params)
    n = len(params)
    amplitudes = amplitudes_by_weight(scaled_coefficients_from_params(params))
    return build_cascade(n).phase * amplitudes, postselection_probability(n)


def postselection_probability(n: int) -> float:
    """Closed-form one-per-mode success probability N!/N^N."""
    if n < 1:
        raise ValueError("mode count must be at least 1")
    return factorial(n) / n ** n
