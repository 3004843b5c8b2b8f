"""Entanglement-class identification from parameter degeneracy.

Two source polarizations count as the same state when their projective
(phase-blind) distance is below a clustering tolerance; the decreasing list of
cluster sizes is the degeneracy configuration, whose length is the diversity
degree.  Differing configurations certify SLOCC inequivalence; equal
configurations do NOT certify equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import PolarizationAmplitude
from .symmetric import SYNTHESIS_TOL, SymmetricCoefficients, params_from_coefficients

#: Default clustering tolerance on the projective distance between states.
CLUSTER_TOL = 1e-6

#: Known class names for three qubits, keyed by configuration.
_THREE_QUBIT_NAMES = {(3,): "separable", (2, 1): "W", (1, 1, 1): "GHZ"}


@dataclass(frozen=True)
class DegeneracyConfiguration:
    """Decreasing multiplicities of coincident polarization states."""

    multiplicities: tuple

    def __post_init__(self):
        m = tuple(int(x) for x in self.multiplicities)
        if not m or any(x < 1 for x in m):
            raise ValueError("multiplicities must be positive")
        if list(m) != sorted(m, reverse=True):
            raise ValueError("multiplicities must be non-increasing")
        object.__setattr__(self, "multiplicities", m)

    @property
    def n(self) -> int:
        return sum(self.multiplicities)

    @property
    def diversity_degree(self) -> int:
        return len(self.multiplicities)

    def __str__(self) -> str:
        return "(" + ",".join(str(m) for m in self.multiplicities) + ")"


@dataclass(frozen=True)
class ClassLabel:
    configuration: DegeneracyConfiguration
    name: str
    warning: str | None = None


def projective_distances(params: Sequence[PolarizationAmplitude]) -> np.ndarray:
    """(n, n) array of sqrt(1 - |<a|b>|^2); zero iff equal up to a global phase."""
    alpha, beta = np.array([(p.alpha, p.beta) for p in params]).reshape(-1, 2).T
    ov = np.abs(alpha.conj()[:, None] * alpha + beta.conj()[:, None] * beta) ** 2
    return np.sqrt(np.maximum(0.0, 1.0 - ov))


def _cluster(params: Sequence[PolarizationAmplitude], tol: float):
    """Transitive-closure clustering; returns (group sizes, borderline flag).

    A pair is borderline when its distance falls in [tol/10, tol]: close
    enough that chained merges could be tolerance artifacts.
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    n = len(params)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    dist = projective_distances(params)
    borderline = False
    # the pairs within tol, in the row-major order of an i < j pair loop
    for k in (dist <= tol).ravel().nonzero()[0].tolist():
        i, j = divmod(k, n)
        if i < j:
            if dist[i, j] >= tol / 10.0:
                borderline = True
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    sizes: dict = {}
    for i in range(n):
        r = find(i)
        sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.values(), reverse=True), borderline


def classify_params(
    params: Sequence[PolarizationAmplitude], tol: float = CLUSTER_TOL
) -> ClassLabel:
    params = list(params)
    sizes, borderline = _cluster(params, tol)
    config = DegeneracyConfiguration(tuple(sizes))
    name = _THREE_QUBIT_NAMES[config.multiplicities] if len(params) == 3 else str(config)
    warning = ("some pairwise distances fall within [tol/10, tol]; "
               "the clustering may be tolerance-sensitive") if borderline else None
    return ClassLabel(config, name, warning)


def classify_coefficients(
    coeffs: SymmetricCoefficients,
    tol: float = CLUSTER_TOL,
    tol_root: float = SYNTHESIS_TOL,
) -> ClassLabel:
    """Synthesize parameters for the coefficients and classify them."""
    params = params_from_coefficients(coeffs, tol=tol_root)
    return classify_params(params, tol=tol)
