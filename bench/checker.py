"""Independent correctness checker for the benchmark's outputs.

Reference values come from closed forms computed here, never from symphot:
the Dicke coefficients of a product state are the coefficients of the
polynomial prod_i (alpha_i + beta_i z), scaled by sqrt(C(N,k)) k!(N-k)!.
Every check raises CheckError with a one-line reason.
"""

from __future__ import annotations

import json
from math import comb, factorial, sqrt

import numpy as np

#: Deviation allowed between printed (12 significant digits) and exact values.
AMPLITUDE_TOL = 1e-9
#: Relative tolerance on printed probabilities, norms and rates.
REL_TOL = 1e-9
#: Round-trip fidelity recomputed from the printed parameters.
FIDELITY_TOL = 1e-8
#: Deviation above which the CLI's identity checks report a failure.
IDENTITY_TOL = 1e-9

THREE_QUBIT_NAMES = {(3,): "separable", (2, 1): "W", (1, 1, 1): "GHZ"}


class CheckError(AssertionError):
    pass


def _reject_constant(token: str):
    raise CheckError(f"stdout is not strict JSON: {token} token")


def strict_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from exc


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(got, want, what: str, rel: float = REL_TOL) -> None:
    require(isinstance(got, (int, float)) and not isinstance(got, bool),
            f"{what}: {got!r} is not a number")
    require(abs(got - want) <= rel * max(abs(want), 1e-300), f"{what}: {got!r} != {want!r}")


# ------------------------------------------------------------- closed forms


def poly_product(params) -> np.ndarray:
    """f_k = [z^k] prod_i (alpha_i + beta_i z)."""
    f = np.array([1.0 + 0j])
    for alpha, beta in params:
        f = np.append(f * alpha, 0.0) + np.insert(f * beta, 0, 0.0)
    return f


def dicke_coefficients(params) -> np.ndarray:
    """c_k of prod_i (alpha_i a_H^dag + beta_i a_V^dag)|0> in the Dicke basis."""
    n = len(params)
    f = poly_product(params)
    return np.array([sqrt(comb(n, k)) * factorial(k) * factorial(n - k) * f[k]
                     for k in range(n + 1)])


def norm_squared(params) -> float:
    """Squared norm of the unnormalized single-mode product state."""
    n = len(params)
    f = poly_product(params)
    return float(sum(factorial(k) * factorial(n - k) * abs(f[k]) ** 2 for k in range(n + 1)))


def weights(n: int) -> np.ndarray:
    """Hamming weight of every n-qubit basis index (qubit 0 is the MSB)."""
    idx = np.arange(2 ** n)
    return np.array([bin(i).count("1") for i in idx])


def dicke_vector(n: int, k: int) -> np.ndarray:
    return np.where(weights(n) == k, 1.0 / sqrt(comb(n, k)), 0.0)


def one_per_mode_state(params) -> np.ndarray:
    """Post-selected multiport output: weight-w strings carry w!(N-w)! f_w."""
    n = len(params)
    f = poly_product(params)
    per_weight = np.array([factorial(w) * factorial(n - w) * f[w] for w in range(n + 1)])
    amp = per_weight[weights(n)]
    return amp / np.linalg.norm(amp)


def pair_state(n: int, kind: str) -> np.ndarray:
    """(N+1)^(-1/2) sum_k (+-1)^k |D_N^k>_A |D_N^(N-k)>_B (README deviation 1)."""
    sign = 1.0 if kind == "psi+" else -1.0
    out = sum(sign ** k * np.kron(dicke_vector(n, k), dicke_vector(n, n - k)) for k in range(n + 1))
    return out / sqrt(n + 1)


def postselection_probability(n: int) -> float:
    return factorial(n) / n ** n


def configuration_name(config: tuple) -> str:
    if sum(config) == 3:
        return THREE_QUBIT_NAMES[config]
    return "(" + ",".join(str(m) for m in config) + ")"


def phase_deviation(expected: np.ndarray, got: np.ndarray) -> float:
    """max |got - e^{i phi} expected| with phi fitted; expected is normalized."""
    overlap = np.vdot(expected, got)
    if abs(overlap) == 0.0:
        return float("inf")
    return float(np.max(np.abs(got - overlap / abs(overlap) * expected)))


def rate_table(n: int, nsq: float) -> dict:
    """The rate formulas with unit source rates, as documented in schemes.rates."""
    p_o = postselection_probability(n)
    p_cl = postselection_probability(2 * n)
    rows = {
        "sps": (1.0, nsq / n ** n, p_o),
        "ncl": (0.5 ** n * factorial(n + 1), nsq / factorial(n + 1), p_o),
        "cl": (factorial(n) ** 2, p_cl, nsq / factorial(n + 1)),
    }
    return {name: {"multiplicity_factor": m, "p_input": pi, "p_output": po, "rate": m * pi * po}
            for name, (m, pi, po) in rows.items()}


# ------------------------------------------------------------- CLI outputs


def _complex_list(entries, what: str) -> np.ndarray:
    require(isinstance(entries, list), f"{what} is not a list")
    try:
        return np.array([complex(e["re"], e["im"]) for e in entries])
    except (TypeError, KeyError) as exc:
        raise CheckError(f"{what}: malformed complex entry") from exc


def check_exit(code, expected: int) -> None:
    require(code == expected, f"exit code {code!r}, expected {expected}")


def check_rejected(code, stdout: str, stderr: str) -> None:
    """A malformed document: exit 2, nothing on stdout, a one-line error."""
    check_exit(code, 2)
    require(stdout.strip() == "", "stdout not empty for a rejected document")
    require(len(stderr.strip().splitlines()) == 1, "stderr is not a one-line error")


def check_class(out: dict, doc) -> None:
    config = out.get("degeneracy_configuration")
    require(out.get("N") == doc.n, f"N {out.get('N')!r} != {doc.n}")
    require(config == list(doc.truth), f"configuration {config} != {list(doc.truth)}")
    require(out.get("class") == configuration_name(doc.truth),
            f"class {out.get('class')!r} != {configuration_name(doc.truth)!r}")
    require(out.get("diversity_degree") == len(doc.truth), "diversity_degree mismatch")
    require(isinstance(out.get("warnings"), list), "warnings is not a list")


def check_synthesize(code, stdout: str, stderr: str, doc) -> None:
    if doc.expected_exit != 0:
        return check_rejected(code, stdout, stderr)
    check_exit(code, 0)
    out = strict_json(stdout)
    check_class(out, doc)
    alpha = _complex_list([p["alpha"] for p in out.get("params", [])], "params.alpha")
    beta = _complex_list([p["beta"] for p in out.get("params", [])], "params.beta")
    require(len(alpha) == doc.n, f"{len(alpha)} params for N={doc.n}")
    require(np.all(np.abs(np.abs(alpha) ** 2 + np.abs(beta) ** 2 - 1.0) <= AMPLITUDE_TOL),
            "params are not normalized")
    achieved = dicke_coefficients(list(zip(alpha, beta)))
    fidelity = abs(np.vdot(doc.target, achieved)) / np.linalg.norm(achieved)
    require(fidelity >= 1.0 - FIDELITY_TOL, f"round trip from params: fidelity {fidelity:.3e}")
    reported = out.get("round_trip_fidelity")
    require(isinstance(reported, float) and abs(reported - 1.0) <= FIDELITY_TOL,
            f"round_trip_fidelity {reported!r}")


def check_classify(code, stdout: str, stderr: str, doc) -> None:
    if doc.expected_exit != 0:
        return check_rejected(code, stdout, stderr)
    check_exit(code, 0)
    check_class(strict_json(stdout), doc)


def check_simulate(code, stdout: str, stderr: str, doc) -> None:
    check_exit(code, 0)
    out = strict_json(stdout)
    n = doc.n
    require(out.get("N") == n, "N mismatch")
    amp = _complex_list(out.get("amplitudes"), "amplitudes")
    require(amp.shape == (2 ** n,), f"{amp.size} amplitudes for N={n}")
    labels = ["".join("V" if (i >> (n - 1 - q)) & 1 else "H" for q in range(n)) for i in range(2 ** n)]
    require(out.get("basis_labels") == labels, "basis_labels mismatch")
    require(abs(np.linalg.norm(amp) - 1.0) <= AMPLITUDE_TOL, "output state is not normalized")
    deviation = phase_deviation(one_per_mode_state(doc.params), amp)
    require(deviation <= AMPLITUDE_TOL, f"amplitudes deviate by {deviation:.3e}")
    close(out.get("p_output"), postselection_probability(n), "p_output")
    nsq = norm_squared(doc.params)
    close(out.get("norm_squared"), nsq, "norm_squared")
    p_input = out.get("p_input") or {}
    close(p_input.get("sps"), nsq / n ** n, "p_input.sps")
    close(p_input.get("ncl"), nsq / factorial(n + 1), "p_input.ncl")
    close(p_input.get("cl"), postselection_probability(2 * n), "p_input.cl")


def check_rates(code, stdout: str, stderr: str, doc) -> None:
    check_exit(code, 0)
    out = strict_json(stdout)
    n = doc.n
    nsq = norm_squared(doc.params)
    require(out.get("N") == n, "N mismatch")
    close(out.get("norm_squared"), nsq, "norm_squared")
    want = rate_table(n, nsq)
    rows = out.get("schemes") or {}
    for name, fields in want.items():
        for key, value in fields.items():
            close((rows.get(name) or {}).get(key), value, f"schemes.{name}.{key}")
    ratios = out.get("ratios") or {}
    cl_over_ncl = want["cl"]["rate"] / want["ncl"]["rate"]
    close(ratios.get("ncl_over_sps"), want["ncl"]["rate"] / want["sps"]["rate"], "ncl_over_sps")
    close(ratios.get("cl_over_ncl"), cl_over_ncl, "cl_over_ncl")
    warned = any("R_cl/R_ncl" in w for w in out.get("warnings", []))
    require(warned == (cl_over_ncl > 1.0), "R_cl/R_ncl warning mismatch")


def identity_deviation(n: int, which: str) -> float:
    """The deviation the CLI's identity check must report, from closed forms."""
    if which == "projection-symmetry":
        return 0.0
    if which == "dicke-2n":
        return float(np.max(np.abs(pair_state(n, "psi+") - dicke_vector(2 * n, n))))
    # schmidt-signs: (-1)^(weight of the A half) on weight-N strings, global
    # phase fixed on the first weight-N index as the CLI does
    w = weights(2 * n)
    a_half = weights(n)[np.arange(2 ** (2 * n)) >> n]
    target = np.where(w == n, (-1.0) ** a_half / sqrt(comb(2 * n, n)), 0.0)
    got = pair_state(n, "psi-")
    ref = int(np.argmax(np.abs(target)))
    return float(np.max(np.abs(got - got[ref] / target[ref] * target)))


def check_identity(code, stdout: str, stderr: str, doc) -> None:
    n, which = doc
    want = identity_deviation(n, which)
    holds = want <= IDENTITY_TOL
    check_exit(code, 0 if holds else 4)
    out = strict_json(stdout)
    require(out.get("N") == n and out.get("check") == which, "N/check mismatch")
    require(out.get("pass") is holds, f"pass {out.get('pass')!r}, expected {holds}")
    got = out.get("max_deviation")
    require(isinstance(got, float) and abs(got - want) <= AMPLITUDE_TOL,
            f"max_deviation {got!r}, expected {want:.12g}")


SELF_TEST_CHECKS = {"postselection_probability", "synthesis_round_trip",
                    "pair_source_identities_n1", "projection_symmetry"}


def check_self_test(code, stdout: str, stderr: str, doc) -> None:
    check_exit(code, 0)
    out = strict_json(stdout)
    require(out.get("pass") is True and out.get("failed") == [], "self-test reports failures")
    results = out.get("results") or {}
    require(set(results) == SELF_TEST_CHECKS, f"self-test checks {sorted(results)}")
    for name, entry in results.items():
        require(entry["max_deviation"] <= entry["tolerance"], f"self-test {name} over tolerance")


CLI_CHECKS = {
    "synthesize": check_synthesize,
    "classify": check_classify,
    "simulate": check_simulate,
    "rates": check_rates,
    "identity-check": check_identity,
    "self-test": check_self_test,
}


# ------------------------------------------------------- library (pairs)


def check_pair_state(n: int, kind: str, amplitudes: np.ndarray, p: float) -> None:
    """Post-selected dicke_2n construction: README deviation 1, and N!/N^N."""
    require(amplitudes.shape == (2 ** (2 * n),), "wrong qubit count")
    deviation = phase_deviation(pair_state(n, kind), amplitudes)
    require(deviation <= AMPLITUDE_TOL, f"pair state deviates by {deviation:.3e}")
    close(p, postselection_probability(n), "post-selection probability")


def check_heralding(params, residual: dict, p: float) -> None:
    """Projection of the pair sources: p = |psi|^2/(N+1)!, residual ~ product state.

    ``residual`` maps single-mode occupations (n_H, n_V) to amplitudes.
    """
    n = len(params)
    close(p, norm_squared(params) / factorial(n + 1), "heralding probability")
    f = poly_product(params)
    keys = [(n - w, w) for w in range(n + 1)]
    require(set(residual) <= set(keys), "residual holds states outside the N-photon mode")
    want = np.array([f[w] * sqrt(factorial(w) * factorial(n - w)) for w in range(n + 1)])
    got = np.array([residual.get(k, 0.0) for k in keys], dtype=complex)
    require(np.linalg.norm(got) > 0.0, "residual is zero")
    deviation = phase_deviation(want / np.linalg.norm(want), got / np.linalg.norm(got))
    require(deviation <= AMPLITUDE_TOL, f"residual deviates from the product state by {deviation:.3e}")


def check_rate_report(params, report) -> None:
    n = len(params)
    nsq = norm_squared(params)
    close(report.norm_squared, nsq, "norm_squared")
    for name, fields in rate_table(n, nsq).items():
        row = getattr(report, name)
        for key, value in fields.items():
            close(getattr(row, key), value, f"{name}.{key}")
