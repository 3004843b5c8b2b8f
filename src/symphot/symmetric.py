"""Symmetric-state algebra: Dicke states, the c_k expansion, and the
root-based synthesis map from target symmetric states to source parameters.

The bridge object is the coefficient vector c_0..c_N of the single-mode
product state expanded over (a_V^dag)^k (a_H^dag)^(N-k) monomials.  Roots of
the associated degree-N polynomial give the ratios alpha_i/beta_i of the
source polarizations; degree deficiencies map to |H> photons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, sqrt
from typing import Sequence

import numpy as np

from .fock import PolarizationAmplitude

#: Relative threshold below which leading coefficients |c_k| count as zero.
DEGREE_TOL = 1e-12

#: Default round-trip fidelity tolerance for synthesis.
SYNTHESIS_TOL = 1e-9


class SynthesisError(RuntimeError):
    """Raised when root finding or the synthesis round trip fails.

    Carries the round-trip residual (1 - fidelity) in ``residual``.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SymmetricCoefficients:
    """Coefficient vector c_0..c_N of a symmetric N-photon state."""

    n: int
    c: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("photon number must be positive")
        c = np.asarray(self.c, dtype=complex)
        if c.shape != (self.n + 1,):
            raise ValueError(f"expected {self.n + 1} coefficients, got shape {c.shape}")
        if not c.any():
            raise ValueError("coefficient vector must be nonzero")
        object.__setattr__(self, "c", c)

    def fidelity(self, other: "SymmetricCoefficients") -> float:
        """|<psi|psi'>| of the normalized Dicke superpositions sum_k c_k |D_N^(k)>.

        The Dicke states are orthonormal, so this is |<c|c'>| / (|c| |c'|) over
        the N+1 entries; blind to global phase and scale.  Each vector is first
        divided by its largest modulus so that squaring cannot underflow.
        """
        if self.n != other.n:
            raise ValueError("photon-number mismatch")
        a = self.c / abs(self.c).max()
        b = other.c / abs(other.c).max()
        return float(abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)))


@dataclass(frozen=True)
class QubitStateVector:
    """Dense state vector over N polarization qubits.

    Index convention: axis q of ``amplitudes.reshape((2,) * n)`` is qubit q,
    so qubit 0 is the most significant bit; bit value 1 = |V>.
    """

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amp.shape != (2 ** self.n,):
            raise ValueError(f"expected 2^{self.n} amplitudes, got shape {amp.shape}")
        object.__setattr__(self, "amplitudes", amp)

    def norm_squared(self) -> float:
        # a real reduction over (re, im) pairs, kept off BLAS (see FockVector)
        return float(np.square(self.amplitudes.view(float)).sum())

    def normalized(self) -> "QubitStateVector":
        nsq = self.norm_squared()
        if nsq == 0.0:
            raise ValueError("cannot normalize a zero state")
        return QubitStateVector(self.n, self.amplitudes / sqrt(nsq))

    def fidelity(self, other: "QubitStateVector") -> float:
        """|<self|other>| for unit vectors; global-phase blind."""
        if self.n != other.n:
            raise ValueError("qubit-count mismatch")
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)))


@lru_cache(maxsize=64)
def _sqrt_binomials(n: int) -> np.ndarray:
    """sqrt(C(n,k)) for k = 0..n, the scale between c_k and the Dicke basis; cached, read-only.

    The exact C(n,k+1) = C(n,k)(n-k)/(k+1) rounds to the same float as
    ``comb(n, k + 1)``, in one product per entry instead of a fresh binomial.
    """
    row, c = [], 1
    for k in range(n + 1):
        row.append(float(c))
        c = c * (n - k) // (k + 1)
    out = np.sqrt(row)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _majorana_weights(n: int) -> np.ndarray:
    """(-1)^k sqrt(C(n,k)), the scale from c_k to the Majorana p_k; cached, read-only."""
    out = np.where(np.arange(n + 1) % 2, -1, 1) * _sqrt_binomials(n)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _expansion_weights(n: int) -> np.ndarray:
    """sqrt(C(n,k)) k!(n-k)!, the scale from f_k to c_k; cached, read-only."""
    fact = np.array([float(factorial(k)) for k in range(n + 1)])
    out = _sqrt_binomials(n) * fact * fact[::-1]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def hamming_weights(n: int) -> np.ndarray:
    """Number of |V> qubits in each of the 2^n basis indices, in index order; cached, read-only."""
    w = np.zeros((), dtype=int)
    for _ in range(n):
        w = np.add.outer(w, (0, 1))
    w = w.reshape(2 ** n)
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class MajoranaPolynomial:
    """Polynomial p_0 + p_1 z + ... + p_N z^N whose roots parameterize a
    symmetric state, with p_k = (-1)^k sqrt(C(N,k)) c_k."""

    coefficients: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "coefficients", p)

    @property
    def degree(self) -> int:
        """Effective degree K: leading coefficients below tolerance are zero.

        The cutoff is judged on |c_k| = |p_k| / sqrt(C(N,k)), not on |p_k|:
        the weights grow to about 2^(N/2), so at N = 100 a leading c_k
        as large as the others has |p_N| / max|p| below 1e-14.
        """
        p = self.coefficients
        c = abs(p) / _sqrt_binomials(len(p) - 1)
        nonzero = (c > DEGREE_TOL * c.max()).nonzero()[0]
        return int(nonzero[-1]) if nonzero.size else 0

    def roots(self) -> np.ndarray:
        """The companion-matrix eigenvalues, unpolished: ``np.roots``'s roots bit for bit.

        The companion matrix is the one ``np.roots`` builds, so the ``lo``
        exactly-zero low-order coefficients are exact roots at 0, appended
        after the eigenvalues.  ``synthesize`` re-expands the roots and checks
        the round trip, so no separate polish is needed.
        """
        k = self.degree
        if k == 0:
            return np.zeros(0, dtype=complex)
        p = self.coefficients[: k + 1]
        # p_k is nonzero, so only low-order coefficients can be stripped
        lo = int(p.nonzero()[0][0])
        m = k - lo
        z = np.zeros(k, dtype=complex)
        if m:
            hi = p[lo:][::-1]
            companion = np.zeros((m, m), dtype=complex)
            companion.flat[m :: m + 1] = 1.0
            companion[0] = -hi[1:] / hi[0]
            z[:m] = np.linalg.eigvals(companion)
        return z


def dicke_state(n: int, k: int) -> QubitStateVector:
    """Equal superposition of all n-qubit bitstrings with k qubits in |V>."""
    if not 0 <= k <= n:
        raise ValueError(f"excitation number k={k} out of range for n={n}")
    amp = np.where(hamming_weights(n) == k, 1.0 / _sqrt_binomials(n)[k], 0.0)
    return QubitStateVector(n, amp)


def _product_polynomial(params: Sequence[PolarizationAmplitude]) -> np.ndarray:
    """f_k = [z^k] prod_i (alpha_i + beta_i z), k = 0..N, by the elementary-symmetric
    recursion on Python complex scalars, rounded as numpy's slices are without FMA;
    the appended 0j makes the top entry alpha*0 + beta*f_last, signed zeros and all."""
    params = list(params)
    if not params:
        raise ValueError("params must be non-empty")
    f = [1 + 0j]
    for p in params:
        a, b = p.alpha, p.beta
        f.append(0j)
        f = [a * f[0]] + [a * hi + b * lo for hi, lo in zip(f[1:], f)]
    return np.array(f)


def coefficients_from_params(params: Sequence[PolarizationAmplitude]) -> SymmetricCoefficients:
    """Expand the product state over the symmetric monomial basis.

    With f_k = [z^k] prod_i (alpha_i + beta_i z), the tuple sum over all N!
    index orderings collapses to c_k = sqrt(C(N,k)) k!(N-k)! f_k.
    """
    f = _product_polynomial(params)
    n = len(f) - 1
    return SymmetricCoefficients(n, _expansion_weights(n) * f)


def scaled_coefficients_from_params(
    params: Sequence[PolarizationAmplitude],
) -> SymmetricCoefficients:
    """The expansion up to scale, c_k / N! = f_k / sqrt(C(N,k)).

    Holds no factorial, so it stays finite where k!(N-k)! overflows a float
    (N > 170); use it wherever only the state, not its norm, matters.
    """
    f = _product_polynomial(params)
    n = len(f) - 1
    return SymmetricCoefficients(n, f / _sqrt_binomials(n))


def normalization_squared(params: Sequence[PolarizationAmplitude]) -> float:
    """Squared norm of the unnormalized product state: sum_k |c_k|^2 / N!."""
    f = _product_polynomial(params)
    n = len(f) - 1
    return float((abs(_expansion_weights(n) * f) ** 2).sum() / factorial(n))


def amplitudes_by_weight(coeffs: SymmetricCoefficients) -> np.ndarray:
    """Entry k is the amplitude of ``output_state`` on each of its strings of weight k.
    The norm adds the 2^N strings' squared parts in index order, as ``norm_squared`` does."""
    per_string = coeffs.c / _sqrt_binomials(coeffs.n)
    nsq = float(np.square(per_string.view(float).reshape(-1, 2))[hamming_weights(coeffs.n)].sum())
    if nsq == 0.0:
        raise ValueError("cannot normalize a zero state")
    return per_string / sqrt(nsq)


def output_state(coeffs: SymmetricCoefficients) -> QubitStateVector:
    """Renormalized Dicke superposition sum_k c_k |D_N^(k)>."""
    return QubitStateVector(coeffs.n, amplitudes_by_weight(coeffs)[hamming_weights(coeffs.n)])


def majorana_polynomial(coeffs: SymmetricCoefficients) -> MajoranaPolynomial:
    return MajoranaPolynomial(_majorana_weights(coeffs.n) * coeffs.c)


@dataclass(frozen=True)
class Synthesis:
    """Source parameters, the roots they were built from, and their round-trip fidelity."""

    roots: np.ndarray
    params: tuple[PolarizationAmplitude, ...]
    fidelity: float


def synthesize(coeffs: SymmetricCoefficients, tol: float = SYNTHESIS_TOL) -> Synthesis:
    """Invert the expansion: find source polarizations producing ``coeffs``.

    Each polynomial root z gives (alpha, beta) = (z, 1)/sqrt(1+|z|^2); the
    N - K degree-deficiency slots are |H> photons.  The round trip is checked
    against the requested tolerance and a failure raises SynthesisError.
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    n = coeffs.n
    # overall scale of c is irrelevant to the roots; normalize for conditioning
    unit = SymmetricCoefficients(n, coeffs.c / np.linalg.norm(coeffs.c))
    roots = majorana_polynomial(unit).roots()
    params = [PolarizationAmplitude.from_unnormalized(z, 1.0) for z in roots]
    params += [PolarizationAmplitude.horizontal()] * (n - len(roots))
    fidelity = unit.fidelity(scaled_coefficients_from_params(params))
    residual = 1.0 - fidelity
    if not (residual <= tol):
        raise SynthesisError(
            f"synthesis round trip failed: residual {residual:.3e} exceeds tol {tol:.3e}",
            residual=residual,
        )
    return Synthesis(roots, tuple(params), fidelity)


def params_from_coefficients(
    coeffs: SymmetricCoefficients, tol: float = SYNTHESIS_TOL
) -> list[PolarizationAmplitude]:
    """The source parameters of ``synthesize(coeffs, tol)``."""
    return list(synthesize(coeffs, tol).params)


def project_qubits(
    state: QubitStateVector,
    positions: Sequence[int],
    onto: Sequence[PolarizationAmplitude],
) -> QubitStateVector:
    """Partial projection <s_1...s_m| at the given qubit positions.

    Returns the unnormalized residual on the remaining qubits, ordered as in
    the input state.
    """
    if len(positions) != len(onto):
        raise ValueError("positions and onto must have equal length")
    if len(set(positions)) != len(positions):
        raise ValueError("positions must be distinct")
    n = state.n
    if not all(0 <= q < n for q in positions):
        raise ValueError(f"positions must lie in 0..{n - 1}")
    bra = np.ones(())
    for s in onto:
        bra = np.multiply.outer(bra, np.conj([s.alpha, s.beta]))
    residual = np.tensordot(bra, state.amplitudes.reshape((2,) * n),
                            axes=(list(range(len(onto))), list(positions)))
    return QubitStateVector(n - len(positions), residual.reshape(-1))
