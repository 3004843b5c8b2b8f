"""Every argument guard of the library rejects a bad argument with its message."""

import re

import numpy as np
import pytest

from symphot import schemes
from symphot.fock import (FockVector, PolarizationAmplitude, basis_state, inner_product,
                          partial_inner_product)
from symphot.multiport import apply_mode_isometry, postselection_probability, run_pipeline
from symphot.symmetric import QubitStateVector, SymmetricCoefficients, project_qubits

HPOL = PolarizationAmplitude.horizontal()

GUARDS = {
    "zero-polarization": (lambda: PolarizationAmplitude.from_unnormalized(0.0, 0.0),
                          "zero polarization vector"),
    "negative-modes": (lambda: FockVector(-1), "mode count must be non-negative"),
    # range(2) and (0, 1) are distinct dict keys that name the same tuple
    "keys-equal-as-tuples": (lambda: FockVector(1, {range(2): 1.0, (0, 1): 1.0}),
                             "keys must be distinct as tuples"),
    # whatever their amplitudes: the tiny one is not pruned away first
    "keys-equal-as-tuples-tiny": (lambda: FockVector(1, {range(2): 1e-20, (0, 1): 1.0}),
                                  "keys must be distinct as tuples"),
    "add-mode-mismatch": (lambda: FockVector(1) + FockVector(2),
                          "mode-count mismatch in FockVector addition"),
    "normalize-zero-fock": (lambda: FockVector(1).normalized(), "cannot normalize a zero vector"),
    "isometry-columns": (lambda: apply_mode_isometry(basis_state(1, (1, 0)), np.eye(2)),
                         "matrix column count must match input mode count"),
    "pipeline-empty": (lambda: run_pipeline([]), "params must be non-empty"),
    "probability-zero-modes": (lambda: postselection_probability(0),
                               "mode count must be at least 1"),
    "ncl-no-sources": (lambda: schemes.ncl_joint_state(0), "need at least one pair source"),
    "dicke-2n-no-sources": (lambda: schemes.dicke_2n_construction(0),
                            "need at least one pair source"),
    "dicke-2n-negative-sources": (lambda: schemes.dicke_2n_construction(-1, "psi-"),
                                  "need at least one pair source"),
    "projector-bad-kind": (lambda: schemes.projector_state([HPOL], "phi+"),
                           "kind must be 'psi-' or 'psi+', got 'phi+'"),
    "dicke-2n-bad-kind": (lambda: schemes.dicke_2n_construction(1, "phi+"),
                          "kind must be 'psi-' or 'psi+', got 'phi+'"),
    "project-onto-no-leading-mode": (
        lambda: schemes.project_onto(schemes.ncl_joint_state(1),
                                     schemes.projector_state([HPOL, HPOL])),
        "projector register must leave at least one leading mode"),
    "partial-inner-product-no-leading-mode": (
        lambda: partial_inner_product(basis_state(1, (1, 0)), basis_state(1, (1, 0))),
        "projector register must leave at least one leading mode"),
    "cl-order-zero": (lambda: schemes.cl_input_state(0), "emission order must be at least 1"),
    "coefficients-zero-photons": (lambda: SymmetricCoefficients(0, np.ones(1)),
                                  "photon number must be positive"),
    "qubit-vector-shape": (lambda: QubitStateVector(2, np.ones(3)),
                           "expected 2^2 amplitudes, got shape (3,)"),
    "normalize-zero-qubits": (lambda: QubitStateVector(1, np.zeros(2)).normalized(),
                              "cannot normalize a zero state"),
    "fidelity-qubit-mismatch": (
        lambda: QubitStateVector(1, np.ones(2)).fidelity(QubitStateVector(2, np.ones(4))),
        "qubit-count mismatch"),
    "project-length-mismatch": (lambda: project_qubits(QubitStateVector(2, np.ones(4)), [0], []),
                                "positions and onto must have equal length"),
    "project-repeated-position": (
        lambda: project_qubits(QubitStateVector(2, np.ones(4)), [1, 1], [HPOL, HPOL]),
        "positions must be distinct"),
}


@pytest.mark.parametrize("call,message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_rejects_bad_argument(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_fock_repr_lists_sorted_terms():
    state = FockVector(1, {(0, 1): 0.25j, (1, 0): 0.5})
    assert repr(state) == "FockVector(modes=1, {(0, 1): 0+0.25j, (1, 0): 0.5+0j})"


def test_inner_product_is_conjugate_symmetric_either_way_round():
    # the larger map first takes the branch that iterates the other one
    x = FockVector(1, {(1, 0): 0.6 + 0.1j, (0, 1): -0.2j, (2, 0): 0.3})
    y = FockVector(1, {(0, 1): 0.5 - 0.4j})
    assert len(x) > len(y)
    assert inner_product(x, y) == inner_product(y, x).conjugate()
    assert inner_product(x, y) == pytest.approx(0.2j * (0.5 - 0.4j))
