"""Sparse Fock-space algebra for multimode, two-polarization photonic states.

Basis states are occupation-number tuples with two entries per spatial mode,
``(n_H, n_V)`` pairs ordered by mode index.  A vector stores only its nonzero
terms, as a key index and an array of amplitudes; nothing is ever implicitly
normalized, so unnormalized intermediates compose correctly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Iterable, Mapping

import numpy as np

#: Polarization labels used as indices into the per-mode occupation pair.
H = 0
V = 1

#: Stored amplitudes with modulus below this are dropped.
PRUNE_TOL = 1e-14

#: Tolerance on |alpha|^2 + |beta|^2 = 1 for single-photon polarizations.
POLARIZATION_NORM_TOL = 1e-12

OccupationState = tuple  # flat tuple of ints, 2 entries per spatial mode


@dataclass(frozen=True)
class PolarizationAmplitude:
    """A single photon's polarization state alpha|H> + beta|V>."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        nsq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not (abs(nsq - 1.0) <= POLARIZATION_NORM_TOL):
            raise ValueError(
                f"polarization amplitudes must satisfy |alpha|^2+|beta|^2=1, got {nsq!r}"
            )

    @classmethod
    def horizontal(cls) -> "PolarizationAmplitude":
        return cls(1.0, 0.0)

    @classmethod
    def vertical(cls) -> "PolarizationAmplitude":
        return cls(0.0, 1.0)

    @classmethod
    def from_unnormalized(cls, alpha: complex, beta: complex) -> "PolarizationAmplitude":
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        if norm == 0.0:
            raise ValueError("zero polarization vector")
        return cls(alpha / norm, beta / norm)

    def overlap(self, other: "PolarizationAmplitude") -> complex:
        """<self|other> on the single-qubit polarization space."""
        return self.alpha.conjugate() * other.alpha + self.beta.conjugate() * other.beta


class FockVector:
    """Sparse complex-amplitude map over multimode occupation-number states.

    Immutable after construction.  Keys are flat tuples of length ``2 * modes``
    holding ``(n_H, n_V)`` per spatial mode.  The terms are stored as an index,
    a dict from key to position in term order, and a read-only complex array
    of values; both constructors drop every term with ``np.abs(a) <=
    PRUNE_TOL`` by the one rule in ``_store``.  An index may be shared between
    vectors, so nothing writes into one after it is built, and no other
    module reads the storage.
    """

    __slots__ = ("modes", "_index", "_values", "__weakref__")

    def __init__(self, modes: int, amplitudes: Mapping[OccupationState, complex] | None = None):
        if modes < 0:
            raise ValueError("mode count must be non-negative")
        amplitudes = amplitudes or {}
        width = 2 * modes
        for key in amplitudes:
            if len(key) != width:
                raise ValueError(f"key {key} does not match {modes} modes")
        index = dict(zip(map(tuple, amplitudes), range(len(amplitudes))))
        if len(index) != len(amplitudes):
            raise ValueError("keys must be distinct as tuples")
        self._store(modes, index, np.fromiter(map(complex, amplitudes.values()),
                                              dtype=complex, count=len(index)))

    @classmethod
    def _from_index(cls, modes: int, index: dict, values: np.ndarray) -> "FockVector":
        """The vector with amplitude ``values[i]`` on the i-th key of ``index``.

        ``index`` maps distinct keys of checked width to positions 0, 1, ...
        in order; it is shared with the result unless pruning drops a term.
        ``values`` becomes the vector's own read-only storage, so the caller
        passes a complex array that nothing else holds.
        """
        if values.shape != (len(index),):
            raise ValueError(f"expected {len(index)} values, got shape {values.shape}")
        out = object.__new__(cls)
        out._store(modes, index, values)
        return out

    def _store(self, modes: int, index: dict, values: np.ndarray) -> None:
        """Prune ``values`` to ``np.abs(a) > PRUNE_TOL``, freeze them and set the slots."""
        keep = np.abs(values) > PRUNE_TOL
        kept = np.count_nonzero(keep)
        if kept < len(index):
            index = dict(zip(compress(index, keep), range(kept)))
            values = values[keep]
        values.setflags(write=False)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_values", values)

    def __setattr__(self, name, value):
        raise AttributeError("FockVector is immutable")

    def items(self):
        return dict(zip(self._index, self._values.tolist())).items()

    def keys(self):
        return self._index.keys()

    def __len__(self) -> int:
        return len(self._index)

    def amplitude(self, key: OccupationState) -> complex:
        i = self._index.get(tuple(key))
        return 0.0 + 0.0j if i is None else self._values.item(i)

    def norm_squared(self) -> float:
        # a real reduction over (re, im) pairs, kept off BLAS: np.vdot's
        # threaded zdotc was seen to take milliseconds on 14k terms on a
        # loaded 2-vCPU host
        return float(np.square(self._values.view(float)).sum())

    def scaled(self, factor) -> "FockVector":
        """The vector times ``factor``: a number, or one factor per term in term order."""
        return FockVector._from_index(self.modes, self._index, self._values * factor)

    def __add__(self, other: "FockVector") -> "FockVector":
        if self.modes != other.modes:
            raise ValueError("mode-count mismatch in FockVector addition")
        out = dict(self.items())
        for k, a in other.items():
            out[k] = out.get(k, 0.0) + a
        return FockVector(self.modes, out)

    def normalized(self) -> "FockVector":
        nsq = self.norm_squared()
        if nsq == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return self.scaled(1.0 / math.sqrt(nsq))

    def __repr__(self) -> str:
        terms = ", ".join(f"{k}: {a:.6g}" for k, a in sorted(self.items()))
        return f"FockVector(modes={self.modes}, {{{terms}}})"


@lru_cache(maxsize=16)
def one_per_mode_keys(n: int) -> tuple:
    """The 2^n keys with one photon in each of n modes, (1, 0) for H or (0, 1) for V.

    Extending every key by H then V, mode by mode, lists them in the order of
    itertools.product: qubit index order, qubit 0 the most significant bit.
    """
    keys = [()]
    for _ in range(n):
        keys = [key + mode for key in keys for mode in ((1, 0), (0, 1))]
    return tuple(keys)


def vacuum(modes: int) -> FockVector:
    """The vacuum state |0> on the given number of spatial modes."""
    return FockVector(modes, {(0,) * (2 * modes): 1.0})


def basis_state(modes: int, key: OccupationState, amplitude: complex = 1.0) -> FockVector:
    return FockVector(modes, {tuple(key): amplitude})


def _create(terms, flat_words) -> dict:
    """Apply a product of flat words, first word first, to (key, amplitude) pairs.

    Each flat word holds ``(c_j, slots_j)`` monomials standing for
    sum_j c_j prod_{i in slots_j} a_i^dag, whose slots are flat key indices
    2 * mode + pol; each creation maps |n> to sqrt(n+1)|n+1>.  Nothing is
    pruned, so cancellations are left to the caller.
    """
    out = dict(terms)
    for flat_word in flat_words:
        terms, out = out.items(), {}
        for key, amp in terms:
            for coeff, slots in flat_word:
                new, term = key, amp * coeff
                for idx in slots:
                    n = new[idx] + 1
                    new = new[:idx] + (n,) + new[idx + 1:]
                    term *= math.sqrt(n)
                out[new] = out.get(new, 0.0) + term
    return out


def apply_operator(state: FockVector, *words: Iterable) -> FockVector:
    """Apply a product of creation-operator polynomials to a state, first word first.

    Each word is a list of ``(c_j, ((mode, pol), ...))`` monomials standing
    for sum_j c_j prod a_{mode,pol}^dag, so ``[(alpha, ((0, H),)), (beta,
    ((0, V),))]`` creates one photon alpha|H> + beta|V> in mode 0.
    Monomials with a zero coefficient are skipped after their operators are
    validated.  The whole product is expanded in one pass and pruned once,
    at the end, so an intermediate term below ``PRUNE_TOL`` is kept.
    """
    flat_words = []
    for word in words:
        flat = []
        for coeff, ops in word:
            slots = []
            for mode, pol in ops:
                if not 0 <= mode < state.modes:
                    raise ValueError(f"mode {mode} out of range for {state.modes} modes")
                if pol not in (H, V):
                    raise ValueError(f"polarization must be H (0) or V (1), got {pol}")
                slots.append(2 * mode + pol)
            if coeff != 0:
                flat.append((coeff, tuple(slots)))
        flat_words.append(flat)
    return FockVector(state.modes, _create(zip(state._index, state._values.tolist()), flat_words))


def apply_creation(state: FockVector, mode: int, pol: int) -> FockVector:
    """Apply the creation operator for (mode, pol): |n> -> sqrt(n+1)|n+1>."""
    return apply_operator(state, [(1.0, ((mode, pol),))])


def product_state(params: Iterable[PolarizationAmplitude]) -> FockVector:
    """Unnormalized N-photon product state prod_i (alpha_i a_H^dag + beta_i a_V^dag)|0>.

    The caller divides by the polarization-dependent normalization; the squared
    norm of the result equals ``symmetric.normalization_squared(params)``.
    """
    params = list(params)
    if not params:
        raise ValueError("params must be non-empty")
    return apply_operator(vacuum(1), *([(p.alpha, ((0, H),)), (p.beta, ((0, V),))]
                                       for p in params))


def inner_product(x: FockVector, y: FockVector) -> complex:
    """<x|y>, conjugate-linear in the first argument."""
    if x.modes != y.modes:
        raise ValueError("mode-count mismatch in inner product")
    # iterate the smaller map
    if len(x) > len(y):
        return sum(y.amplitude(k).conjugate() * a for k, a in x.items()).conjugate()
    return sum(a.conjugate() * y.amplitude(k) for k, a in x.items())
