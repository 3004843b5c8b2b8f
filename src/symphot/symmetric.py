"""Symmetric-state algebra: Dicke states, the c_k expansion, and the
root-based synthesis map from target symmetric states to source parameters.

The bridge object is the coefficient vector c_0..c_N of the single-mode
product state expanded over (a_V^dag)^k (a_H^dag)^(N-k) monomials.  Roots of
the associated degree-N polynomial give the ratios alpha_i/beta_i of the
source polarizations; degree deficiencies map to |H> photons.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, sqrt
from typing import Sequence

import numpy as np

from .fock import PolarizationAmplitude

#: Relative threshold below which leading polynomial coefficients count as zero.
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
        if not np.any(c != 0):
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
        a = self.c / np.max(np.abs(self.c))
        b = other.c / np.max(np.abs(other.c))
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
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (2 ** self.n,):
            raise ValueError(f"expected 2^{self.n} amplitudes, got shape {amp.shape}")
        object.__setattr__(self, "amplitudes", amp)

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

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


def hamming_weights(n: int) -> np.ndarray:
    """Number of |V> qubits in each of the 2^n basis indices, in index order."""
    w = np.zeros((), dtype=int)
    for _ in range(n):
        w = np.add.outer(w, (0, 1))
    return w.reshape(2 ** n)


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
        """Effective degree K: leading coefficients below tolerance are zero."""
        p = self.coefficients
        cutoff = DEGREE_TOL * np.max(np.abs(p))
        nonzero = np.nonzero(np.abs(p) > cutoff)[0]
        return int(nonzero[-1]) if nonzero.size else 0

    def roots(self) -> np.ndarray:
        """Companion-matrix eigenvalues, Newton-polished: up to 4 steps per root, each
        taken only if it lowers |p|, over all roots still moving in one Horner sweep."""
        k = self.degree
        if k == 0:
            return np.zeros(0, dtype=complex)
        p = self.coefficients[: k + 1]
        # numpy expects highest-order first; uses the balanced companion matrix
        hi_first = p[::-1]
        dp = (p[1:] * np.arange(1, k + 1))[::-1]
        scale = float(np.max(np.abs(p)))
        z = np.asarray(np.roots(hi_first), dtype=complex)
        live = np.arange(k)
        for _ in range(4):
            if not live.size:
                break
            fz = np.polyval(hi_first, z[live])
            afz = np.abs(fz)
            go = ~(afz <= 1e-12 * scale)
            live, fz, afz = live[go], fz[go], afz[go]
            dfz = np.polyval(dp, z[live])
            go = dfz != 0
            live, fz, afz, dfz = live[go], fz[go], afz[go], dfz[go]
            moved = z[live] - fz / dfz
            go = np.abs(np.polyval(hi_first, moved)) < afz
            live = live[go]
            z[live] = moved[go]
        return z


def dicke_state(n: int, k: int) -> QubitStateVector:
    """Equal superposition of all n-qubit bitstrings with k qubits in |V>."""
    if not 0 <= k <= n:
        raise ValueError(f"excitation number k={k} out of range for n={n}")
    amp = np.where(hamming_weights(n) == k, 1.0 / sqrt(comb(n, k)), 0.0)
    return QubitStateVector(n, amp)


def _product_polynomial(params: Sequence[PolarizationAmplitude]) -> np.ndarray:
    """f_k = [z^k] prod_i (alpha_i + beta_i z), k = 0..N, by the
    elementary-symmetric-polynomial recursion."""
    params = list(params)
    if not params:
        raise ValueError("params must be non-empty")
    n = len(params)
    f = np.zeros(n + 1, dtype=complex)
    f[0] = 1.0
    for i, p in enumerate(params):
        hi = i + 1
        f[1 : hi + 1] = p.alpha * f[1 : hi + 1] + p.beta * f[:hi]
        f[0] *= p.alpha
    return f


def coefficients_from_params(params: Sequence[PolarizationAmplitude]) -> SymmetricCoefficients:
    """Expand the product state over the symmetric monomial basis.

    With f_k = [z^k] prod_i (alpha_i + beta_i z), the tuple sum over all N!
    index orderings collapses to c_k = sqrt(C(N,k)) k!(N-k)! f_k.
    """
    f = _product_polynomial(params)
    n = len(f) - 1
    c = np.array(
        [sqrt(comb(n, k)) * factorial(k) * factorial(n - k) * f[k] for k in range(n + 1)],
        dtype=complex,
    )
    return SymmetricCoefficients(n, c)


def scaled_coefficients_from_params(
    params: Sequence[PolarizationAmplitude],
) -> SymmetricCoefficients:
    """The expansion up to scale, c_k / N! = f_k / sqrt(C(N,k)).

    Holds no factorial, so it stays finite where k!(N-k)! overflows a float
    (N > 170); use it wherever only the state, not its norm, matters.
    """
    f = _product_polynomial(params)
    n = len(f) - 1
    return SymmetricCoefficients(n, f / np.sqrt([float(comb(n, k)) for k in range(n + 1)]))


def normalization_squared(params: Sequence[PolarizationAmplitude]) -> float:
    """Squared norm of the unnormalized product state: sum_k |c_k|^2 / N!."""
    coeffs = coefficients_from_params(params)
    return float(np.sum(np.abs(coeffs.c) ** 2) / factorial(coeffs.n))


def output_state(coeffs: SymmetricCoefficients) -> QubitStateVector:
    """Renormalized Dicke superposition sum_k c_k |D_N^(k)>."""
    n = coeffs.n
    per_string = np.array([coeffs.c[k] / sqrt(comb(n, k)) for k in range(n + 1)])
    return QubitStateVector(n, per_string[hamming_weights(n)]).normalized()


def majorana_polynomial(coeffs: SymmetricCoefficients) -> MajoranaPolynomial:
    n = coeffs.n
    signs = np.array([(-1) ** k for k in range(n + 1)])
    binom = np.array([sqrt(comb(n, k)) for k in range(n + 1)])
    return MajoranaPolynomial(signs * binom * coeffs.c)


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
    scales = [sqrt(1.0 + abs(z) ** 2) for z in roots]
    params = [PolarizationAmplitude(z / s, 1.0 / s) for z, s in zip(roots, scales)]
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
