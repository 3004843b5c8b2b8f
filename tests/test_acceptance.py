"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line with the measured worst case at the stated tolerance.

Criterion 5 (the two-register pair-source identities) asserts the true
post-selected state of N pair sources, the Schmidt form
(N+1)^(-1/2) sum_k (+-1)^k |D_N^(k)>_A |D_N^(N-k)>_B derived in
``conftest.pair_source_schmidt_amplitudes``.  The balanced 2N-photon Dicke
state that is sometimes claimed for the psi+ sources is reached only at N = 1
and by the collinear construction; the criterion keeps that refutation visible
by asserting the measured psi+ fidelity with D_2N^(N),
4^N / ((N+1) C(2N,N)): 8/9 at N = 2 and 4/5 at N = 3.
"""

from math import comb, factorial, sqrt

import numpy as np
import pytest

from symphot.fock import PolarizationAmplitude, inner_product, product_state
from symphot.multiport import (
    build_cascade,
    distribute,
    postselect_one_per_mode,
    postselection_probability,
    run_pipeline,
)
from symphot.schemes import (
    PSI_MINUS,
    PSI_PLUS,
    SourceRates,
    cl_input_state,
    dicke_2n_construction,
    ncl_joint_state,
    project_onto,
    projector_state,
    rates,
)
from symphot.slocc import classify_params
from symphot.symmetric import (
    SymmetricCoefficients,
    coefficients_from_params,
    dicke_state,
    majorana_polynomial,
    normalization_squared,
    output_state,
    params_from_coefficients,
)

import oracle
from conftest import (
    closed_form_rates,
    pair_source_schmidt_amplitudes,
    random_coefficients,
    random_params,
)

HPOL = PolarizationAmplitude.horizontal()
VPOL = PolarizationAmplitude.vertical()


def _report(number: int, title: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {verdict}: {title} ({detail})")


@pytest.fixture
def arng():
    return np.random.default_rng(872653)


def test_criterion_1_round_trip_synthesis(arng):
    worst = 1.0
    for n in (2, 3, 4, 5, 6):
        for _ in range(100):
            coeffs = SymmetricCoefficients(n, random_coefficients(n, arng))
            params = params_from_coefficients(coeffs)
            achieved, _ = run_pipeline(params)
            worst = min(worst, output_state(coeffs).fidelity(achieved))
    passed = worst >= 1 - 1e-8
    _report(1, "synthesis round trip, N=2..6, 100 trials each",
            passed, f"min fidelity {worst:.3e}")
    assert passed


def test_criterion_2_postselection_probability(arng):
    worst = 0.0
    for n in range(1, 7):
        expected = postselection_probability(n)
        for _ in range(200):
            _, p = run_pipeline(random_params(n, arng))
            worst = max(worst, abs(p - expected))
    spot = max(
        abs(postselection_probability(2) - 0.5),
        abs(postselection_probability(3) - 2 / 9),
    )
    passed = worst <= 1e-10 and spot <= 1e-12
    _report(2, "one-per-mode probability = N!/N^N, N=1..6, 200 trials each",
            passed, f"max deviation {worst:.3e}")
    assert passed


def test_criterion_3_normalization_extremes(arng):
    worst = 0.0
    for n in range(1, 7):
        worst = max(worst, abs(normalization_squared([HPOL] * n) - factorial(n)))
    for n in (2, 4, 6):
        half = [HPOL] * (n // 2) + [VPOL] * (n // 2)
        worst = max(
            worst, abs(normalization_squared(half) - factorial(n // 2) ** 2)
        )
    for n in range(1, 7):
        for _ in range(50):
            params = random_params(n, arng)
            c = coefficients_from_params(params).c
            identity = np.sum(np.abs(c) ** 2) / factorial(n)
            worst = max(worst, abs(normalization_squared(params) - identity))
    passed = worst <= 1e-10
    _report(3, "norm extremes N! and ((N/2)!)^2 plus sum-|c_k|^2/N! identity",
            passed, f"max deviation {worst:.3e}")
    assert passed


def test_criterion_4_pair_source_projection(arng):
    worst_p = 0.0
    worst_fid = 1.0
    for n in range(1, 5):
        joint = ncl_joint_state(n)
        for _ in range(100):
            params = random_params(n, arng)
            residual, p = project_onto(joint, projector_state(params))
            worst_p = max(
                worst_p, abs(p - normalization_squared(params) / factorial(n + 1))
            )
            target = product_state(params).normalized()
            worst_fid = min(
                worst_fid, abs(inner_product(target, residual.normalized())) ** 2
            )
    _, p_hv = project_onto(ncl_joint_state(2), projector_state([HPOL, VPOL]))
    _, p_hh = project_onto(ncl_joint_state(2), projector_state([HPOL, HPOL]))
    spot = max(abs(p_hv - 1 / 6), abs(p_hh - 1 / 3))
    passed = worst_p <= 1e-10 and worst_fid >= 1 - 1e-10 and spot <= 1e-12
    _report(4, "partner-mode projection probability and residual fidelity, N=1..4",
            passed,
            f"max prob deviation {worst_p:.3e}, min fidelity {worst_fid:.10f}")
    assert passed


def test_criterion_5_two_register_identities():
    worst = 0.0
    worst_phase = 0.0
    worst_fid = 0.0
    details = []
    for n in (1, 2, 3):
        balanced = dicke_state(2 * n, n).amplitudes

        # collinear emission through a 2N-mode cascade: balanced Dicke state
        out = distribute(cl_input_state(n), build_cascade(2 * n))
        qubits, _ = postselect_one_per_mode(out)
        dev_cl = float(np.max(np.abs(qubits.amplitudes - balanced)))
        worst = max(worst, dev_cl)

        # pair sources against the closed-form Schmidt state, global phase
        # fixed on the largest reference amplitude
        devs, amps = {}, {}
        for kind, sign in ((PSI_PLUS, 1), (PSI_MINUS, -1)):
            qubits, _ = postselect_one_per_mode(dicke_2n_construction(n, kind))
            amps[kind] = qubits.amplitudes
            expected = pair_source_schmidt_amplitudes(n, sign)
            ref = int(np.argmax(np.abs(expected)))
            phase = qubits.amplitudes[ref] / expected[ref]
            worst_phase = max(worst_phase, abs(abs(phase) - 1.0))
            devs[kind] = float(np.max(np.abs(qubits.amplitudes - phase * expected)))
            worst = max(worst, devs[kind])

        # the refuted balanced-Dicke claim for psi+, as a measured number
        fid = abs(np.vdot(balanced, amps[PSI_PLUS])) ** 2
        fid_closed = 4 ** n / ((n + 1) * comb(2 * n, n))
        worst_fid = max(worst_fid, abs(fid - fid_closed))
        details.append(
            f"N={n}: cl {dev_cl:.2e}, psi+ {devs[PSI_PLUS]:.2e}, "
            f"psi- {devs[PSI_MINUS]:.2e}, F(psi+, D_2N) {fid:.6f}"
        )
    passed = worst <= 1e-9 and worst_phase <= 1e-10 and worst_fid <= 1e-9
    _report(5, "collinear Dicke / pair-source Schmidt form, "
            "F(psi+, D_2N) = 4^N/((N+1)C(2N,N)), N=1..3",
            passed, "; ".join(details))
    assert passed


def test_criterion_6_rate_formulas(arng):
    worst = 0.0
    src = SourceRates(1.0, 1.0, 1.0)
    for n in range(1, 5):
        params = random_params(n, arng)
        report = rates(n, params, src)
        closed = closed_form_rates(n, report.norm_squared, src)
        for name in ("sps", "ncl", "cl"):
            got = getattr(report, name).rate
            worst = max(worst, abs(got - closed[name]))
        ratio = report.ncl.rate / report.sps.rate
        worst = max(worst, abs(ratio - (n / 2) ** n))
        # at n = 2 the closed form (n/2)^n is exactly 1, and the line above
        # pins the ratio to it; the side of 1 it lands on is only rounding
        if n != 2 and (ratio > 1) != (n > 2):
            worst = max(worst, 1.0)
    r2 = rates(2, random_params(2, arng), src)
    r3 = rates(3, random_params(3, arng), src)
    worst = max(worst, abs(r2.cl.rate / r2.ncl.rate - 0.5))
    worst = max(worst, abs(r3.cl.rate / r3.ncl.rate - 5 / 6))
    passed = worst <= 1e-10
    _report(6, "closed-form vs compositional rates and scheme ratios, N=1..4",
            passed, f"max deviation {worst:.3e}")
    assert passed


def test_criterion_7_three_photon_classification():
    diag = PolarizationAmplitude(1 / sqrt(2), 1 / sqrt(2))
    checks = [
        (classify_params([HPOL, HPOL, HPOL]), "separable", (3,)),
        (classify_params([HPOL, HPOL, VPOL]), "W", (2, 1)),
        (classify_params([HPOL, VPOL, diag]), "GHZ", (1, 1, 1)),
    ]
    table_ok = all(
        label.name == name and label.configuration.multiplicities == mult
        for label, name, mult in checks
    )

    c = np.array([1, 0, 0, 1], complex) / sqrt(2)
    poly = majorana_polynomial(SymmetricCoefficients(3, c))
    roots = poly.roots()
    expected = np.exp(2j * np.pi * np.arange(3) / 3)
    matched = sorted(np.sort_complex(roots).tolist(), key=lambda z: z.imag)
    wanted = sorted(expected.tolist(), key=lambda z: z.imag)
    root_dev = max(abs(a - b) for a, b in zip(matched, wanted))
    distinct = all(
        abs(a - b) > 1e-3 for i, a in enumerate(roots) for b in roots[i + 1:]
    )

    stable = True
    rng = np.random.default_rng(11)
    base_params = params_from_coefficients(SymmetricCoefficients(3, c))
    base_cfg = classify_params(base_params).configuration
    for _ in range(20):
        noisy = []
        for p in base_params:
            da, db = (1e-9 * rng.normal(size=2)).tolist()
            noisy.append(
                PolarizationAmplitude.from_unnormalized(
                    p.alpha * (1 + da), p.beta * (1 + db)
                )
            )
        if classify_params(noisy).configuration != base_cfg:
            stable = False
    passed = table_ok and root_dev < 1e-9 and distinct and stable
    _report(7, "three-photon class table and cube-root synthesis stability",
            passed, f"root deviation {root_dev:.3e}")
    assert passed


def test_criterion_8_oracle_equivalence(arng):
    worst = 0.0
    trials = 0
    # coefficient recursion vs literal N!-tuple enumeration
    for n in range(1, 7):
        for _ in range(12):
            params = random_params(n, arng)
            fast = coefficients_from_params(params).c
            for k in range(n + 1):
                worst = max(
                    worst, abs(fast[k] - complex(oracle.tuple_sum_ck(params, k)))
                )
            trials += 1
    # product-state ladder expansion
    for n in range(1, 5):
        for _ in range(12):
            params = random_params(n, arng)
            slow = oracle.expand_product(
                oracle.product_state_factors(params), modes=1
            )
            fast = product_state(params)
            keys = set(slow.keys()) | set(fast.keys())
            worst = max(
                worst,
                max(abs(slow.amplitude(k) - fast.amplitude(k)) for k in keys),
            )
            trials += 1
    # two-register joint emissions
    for n in range(1, 5):
        for kind, sign in ((PSI_MINUS, -1), (PSI_PLUS, 1)):
            slow = oracle.expand_product(oracle.ncl_factors(n, sign), modes=n + 1)
            fast = ncl_joint_state(n, kind).scaled(sqrt(factorial(n + 1)))
            keys = set(slow.keys()) | set(fast.keys())
            worst = max(
                worst,
                max(abs(slow.amplitude(k) - fast.amplitude(k)) for k in keys),
            )
            trials += 1
    # post-selection probability vs full basis enumeration
    for n in range(1, 5):
        for _ in range(8):
            out = distribute(product_state(random_params(n, arng)), build_cascade(n))
            brute = oracle.brute_postselect(out, n)
            worst = max(worst, abs(brute - postselection_probability(n)))
            trials += 1
    passed = worst <= 1e-10
    _report(8, f"literal-enumeration oracle equivalence, {trials} trials",
            passed, f"max deviation {worst:.3e}")
    assert passed
