"""Command-line interface: synthesis, simulation, classification, rate tables,
and built-in identity/self checks with machine-readable JSON output.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 invariant
violation.  Floats are emitted with 12 significant digits and sorted keys so
outputs are stable byte streams.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from math import comb, isfinite, sqrt

import numpy as np

from . import schemes, slocc
from .fock import PolarizationAmplitude
from .multiport import postselection_probability, postselect_one_per_mode, run_pipeline
from .symmetric import (
    SYNTHESIS_TOL,
    QubitStateVector,
    SymmetricCoefficients,
    SynthesisError,
    dicke_state,
    hamming_weights,
    output_state,
    params_from_coefficients,
    project_qubits,
    synthesize,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4

ENV_TOL_ROOT = "SYMPHOT_TOL_ROOT"
ENV_TOL_CLUSTER = "SYMPHOT_TOL_CLUSTER"

#: Names of the built-in identity checks.
#: The first two measure the deviation from the *claimed* states of the pair
#: source construction; it is zero only at N = 1 (see
#: schemes.dicke_2n_construction for the state actually produced).
CHECK_SIGNED = "schmidt-signs"        # psi- construction vs claimed signed uniform amplitudes
CHECK_BALANCED = "dicke-2n"           # psi+ construction vs claimed balanced 2N-photon Dicke state
CHECK_PERMUTATION = "projection-symmetry"  # projecting either half gives the same states


class InputError(ValueError):
    pass


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _render_json(doc) -> str:
    def walk(v):
        if isinstance(v, float):
            return _sig12(v)
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [walk(x) for x in v]
        return v

    return json.dumps(walk(doc), sort_keys=True)


def _complex_doc(z: complex) -> dict:
    return {"im": float(z.imag), "re": float(z.real)}


def _read_document(path: str) -> dict:
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        doc = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read input document: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    return doc


def _parse_complex(obj, where: str) -> complex:
    if not isinstance(obj, dict) or set(obj) - {"re", "im"}:
        raise InputError(f"{where}: expected an object with 're'/'im' fields")
    re, im = obj.get("re", 0.0), obj.get("im", 0.0)
    # float(True) is 1.0, but a JSON boolean is not a number
    if isinstance(re, bool) or isinstance(im, bool):
        raise InputError(f"{where}: booleans are not numbers")
    try:
        re, im = float(re), float(im)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: non-numeric entry") from exc
    if not (isfinite(re) and isfinite(im)):
        raise InputError(f"{where}: entries must be finite")
    return complex(re, im)


def parse_state_document(doc: dict, warn=lambda msg: None):
    """Validate a state document and return ('coefficients'|'params', payload).

    The document carries either {"N": int, "dicke_coefficients": [...]} or
    {"params": [...]}; exactly one of the two forms.
    """
    has_coeffs = "dicke_coefficients" in doc
    has_params = "params" in doc
    if has_coeffs == has_params:
        raise InputError("document must contain exactly one of 'dicke_coefficients' or 'params'")
    if has_coeffs:
        if "N" not in doc:
            raise InputError("'dicke_coefficients' form requires 'N'")
        n = doc["N"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise InputError("'N' must be a positive integer")
        entries = doc["dicke_coefficients"]
        if not isinstance(entries, list) or len(entries) != n + 1:
            raise InputError(f"'dicke_coefficients' must hold {n + 1} entries")
        c = np.array(
            [_parse_complex(e, f"dicke_coefficients[{i}]") for i, e in enumerate(entries)],
            dtype=complex,
        )
        if not np.any(c != 0):
            raise InputError("coefficient vector must be nonzero")
        # the state is blind to scale: bring the largest real or imaginary
        # part into [0.5, 1) by an exact power of two, so that norms of entries
        # near the float limits neither overflow nor underflow
        parts = c.view(float)
        _, exponent = np.frexp(np.max(np.abs(parts)))
        c = np.ldexp(parts, -exponent).view(complex)
        return "coefficients", SymmetricCoefficients(n, c)
    entries = doc["params"]
    if not isinstance(entries, list) or not entries:
        raise InputError("'params' must be a non-empty list")
    params = []
    for i, e in enumerate(entries):
        if not isinstance(e, dict) or set(e) != {"alpha", "beta"}:
            raise InputError(f"params[{i}]: expected 'alpha' and 'beta' fields")
        a = _parse_complex(e["alpha"], f"params[{i}].alpha")
        b = _parse_complex(e["beta"], f"params[{i}].beta")
        try:
            nsq = abs(a) ** 2 + abs(b) ** 2
        except OverflowError:
            raise InputError(f"params[{i}]: |alpha|^2+|beta|^2 overflows, not 1") from None
        if abs(nsq - 1.0) > 1e-6:
            raise InputError(f"params[{i}]: |alpha|^2+|beta|^2 = {nsq:.9g}, not 1")
        if abs(nsq - 1.0) > 1e-9:
            warn(f"params[{i}] renormalized (deviation {abs(nsq - 1.0):.3g})")
        norm = sqrt(nsq)
        params.append(PolarizationAmplitude(a / norm, b / norm))
    return "params", params


def _params_doc(params) -> list:
    return [
        {"alpha": _complex_doc(p.alpha), "beta": _complex_doc(p.beta)} for p in params
    ]


def _emit(args, doc: dict) -> None:
    if getattr(args, "format", "json") == "table":
        _print_table(doc)
    else:
        print(_render_json(doc))


def _print_table(doc: dict, indent: str = "") -> None:
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_table(value, indent + "  ")
        elif isinstance(value, list):
            print(f"{indent}{key}: {_render_json(value)}")
        else:
            if isinstance(value, float):
                value = f"{value:.12g}"
            print(f"{indent}{key}: {value}")


# ---------------------------------------------------------------- commands


def _document_params(kind: str, payload, tol_root: float):
    """Source parameters of a parsed document, synthesized from its coefficients if needed."""
    if kind == "coefficients":
        return params_from_coefficients(payload, tol=tol_root)
    return payload


def cmd_synthesize(args) -> int:
    warnings: list = []
    kind, payload = parse_state_document(_read_document(args.input), warnings.append)
    if kind != "coefficients":
        raise InputError("synthesize requires the 'dicke_coefficients' document form")
    result = synthesize(payload, tol=args.tol_root)
    label = slocc.classify_params(result.params, tol=args.tol_cluster)
    out = {
        "N": payload.n,
        "class": label.name,
        "degeneracy_configuration": list(label.configuration.multiplicities),
        "diversity_degree": label.configuration.diversity_degree,
        "majorana_roots": [_complex_doc(z) for z in result.roots],
        "params": _params_doc(result.params),
        "round_trip_fidelity": result.fidelity,
        "warnings": warnings + ([label.warning] if label.warning else []),
    }
    _emit(args, out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    warnings: list = []
    kind, payload = parse_state_document(_read_document(args.input), warnings.append)
    if kind != "params":
        raise InputError("simulate requires the 'params' document form")
    params = payload
    n = len(params)
    state, p_o = run_pipeline(params)
    report = schemes.rates(n, params)
    out = {
        "N": n,
        "amplitudes": [_complex_doc(z) for z in state.amplitudes],
        "basis_labels": ["".join(label) for label in itertools.product("HV", repeat=n)],
        "norm_squared": report.norm_squared,
        "p_input": {name: getattr(report, name).p_input for name in ("cl", "ncl", "sps")},
        "p_output": p_o,
        "warnings": warnings,
    }
    _emit(args, out)
    return EXIT_OK


def cmd_classify(args) -> int:
    warnings: list = []
    kind, payload = parse_state_document(_read_document(args.input), warnings.append)
    params = _document_params(kind, payload, args.tol_root)
    label = slocc.classify_params(params, tol=args.tol_cluster)
    out = {
        "N": len(params),
        "class": label.name,
        "degeneracy_configuration": list(label.configuration.multiplicities),
        "diversity_degree": label.configuration.diversity_degree,
        "warnings": warnings + ([label.warning] if label.warning else []),
    }
    _emit(args, out)
    return EXIT_OK


def cmd_rates(args) -> int:
    warnings: list = []
    kind, payload = parse_state_document(_read_document(args.input), warnings.append)
    params = _document_params(kind, payload, args.tol_root)
    n = len(params)
    if args.n is not None and args.n != n:
        raise InputError(f"N={args.n} does not match the {n}-photon document")
    try:
        src = schemes.SourceRates(args.c_sps, args.c_ncl, args.c_cl)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = schemes.rates(n, params, src)
    rows = {}
    for name in ("sps", "ncl", "cl"):
        entry = getattr(report, name)
        rows[name] = {
            "multiplicity_factor": entry.multiplicity_factor,
            "p_input": entry.p_input,
            "p_output": entry.p_output,
            "rate": entry.rate,
        }
    ratio_cl_ncl = report.cl.rate / report.ncl.rate if report.ncl.rate else None
    if ratio_cl_ncl is not None and ratio_cl_ncl > 1.0:
        warnings.append(
            "closed-form R_cl/R_ncl exceeds 1 at this N even though the "
            "collinear scheme is described as the least efficient; formulas "
            "are reported as printed"
        )
    out = {
        "N": n,
        "norm_squared": report.norm_squared,
        "ratios": {
            "ncl_over_sps": report.ncl.rate / report.sps.rate if report.sps.rate else None,
            "cl_over_ncl": ratio_cl_ncl,
        },
        "schemes": rows,
        "warnings": warnings,
    }
    _emit(args, out)
    return EXIT_OK


def _check_balanced_dicke(n: int) -> float:
    """Deviation of the psi+ pair-source state from the claimed balanced Dicke state.

    The claim is that N psi+ pair sources plus the multiport give D_2N^(N);
    the deviation is zero only at N = 1 (0.17 at N = 2, 0.28 at N = 3).
    """
    state = schemes.dicke_2n_construction(n, schemes.PSI_PLUS)
    qubits, _ = postselect_one_per_mode(state)
    target = dicke_state(2 * n, n)
    # the construction is real and positive; compare amplitudes directly
    return float(np.max(np.abs(qubits.amplitudes - target.amplitudes)))


def _check_signed_schmidt(n: int) -> float:
    """Deviation of the psi- pair-source state from the claimed signed form.

    The claim is that every weight-N bitstring carries
    (-1)^(weight of the A half) / sqrt(C(2N,N)); the deviation is zero only
    at N = 1 (0.29 at N = 2, 0.33 at N = 3).
    """
    state = schemes.dicke_2n_construction(n, schemes.PSI_MINUS)
    qubits, _ = postselect_one_per_mode(state)
    # the claimed amplitudes: (-1)^(weight of the A half) / sqrt(C(2N,N)) on
    # weight-N strings, zero elsewhere; rows of the (2^N, 2^N) view index the
    # A half, columns the B half
    w = hamming_weights(n)
    scale = 1.0 / sqrt(comb(2 * n, n))
    signed = np.where(w[:, None] % 2, -scale, scale)
    expected = np.where(w[:, None] + w[None, :] == n, signed, 0.0)
    expected_state = QubitStateVector(2 * n, expected.reshape(-1))
    # fix the global sign via the largest-magnitude amplitude
    ref = int(np.argmax(np.abs(expected_state.amplitudes)))
    phase = qubits.amplitudes[ref] / expected_state.amplitudes[ref]
    return float(np.max(np.abs(qubits.amplitudes - phase * expected_state.amplitudes)))


def _check_projection_symmetry(n: int, rng: np.random.Generator) -> float:
    """Projecting either half of the psi+ pair-source state gives the same states."""
    state = schemes.dicke_2n_construction(n, schemes.PSI_PLUS)
    qubits, _ = postselect_one_per_mode(state)
    worst = 0.0
    for _ in range(5):
        onto = _random_params(n, rng)
        first = project_qubits(qubits, list(range(n)), onto).normalized()
        second = project_qubits(qubits, list(range(n, 2 * n)), onto).normalized()
        worst = max(worst, 1.0 - first.fidelity(second))
    return worst


def cmd_identity_check(args) -> int:
    if args.n > args.max_n_joint:
        raise InputError(f"N={args.n} exceeds the two-register guard {args.max_n_joint}")
    rng = np.random.default_rng(args.seed)
    if args.which == CHECK_BALANCED:
        deviation = _check_balanced_dicke(args.n)
    elif args.which == CHECK_SIGNED:
        deviation = _check_signed_schmidt(args.n)
    else:
        deviation = _check_projection_symmetry(args.n, rng)
    passed = deviation <= 1e-9
    _emit(args, {
        "N": args.n,
        "check": args.which,
        "max_deviation": float(deviation),
        "pass": bool(passed),
    })
    return EXIT_OK if passed else EXIT_INVARIANT


def cmd_self_test(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = []
    results = {}

    def record(name: str, deviation: float, tol: float):
        results[name] = {"max_deviation": float(deviation), "tolerance": tol}
        if not (deviation <= tol):
            failures.append(name)

    worst = 0.0
    for n in range(1, min(args.max_n, 6) + 1):
        for _ in range(10):
            params = _random_params(n, rng)
            _, p = run_pipeline(params)
            worst = max(worst, abs(p - postselection_probability(n)))
    record("postselection_probability", worst, 1e-10)

    worst = 0.0
    for n in range(2, min(args.max_n, 6) + 1):
        for _ in range(10):
            c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            coeffs = SymmetricCoefficients(n, c / np.linalg.norm(c))
            params = params_from_coefficients(coeffs, tol=args.tol_root)
            achieved, _ = run_pipeline(params)
            worst = max(worst, 1.0 - output_state(coeffs).fidelity(achieved))
    record("synthesis_round_trip", worst, 1e-8)

    # The claimed balanced-Dicke and signed-uniform states are reached only by
    # a single pair source; at N >= 2 the construction gives the Schmidt form
    # of schemes.dicke_2n_construction instead (see identity-check), so the
    # self test exercises the claims at N = 1 and otherwise checks the
    # projection symmetry, which holds for every N.
    worst = max(_check_balanced_dicke(1), _check_signed_schmidt(1))
    record("pair_source_identities_n1", worst, 1e-9)

    worst = 0.0
    for n in range(1, min(args.max_n_joint, 3) + 1):
        worst = max(worst, _check_projection_symmetry(n, rng))
    record("projection_symmetry", worst, 1e-9)

    _emit(args, {"pass": not failures, "failed": failures, "results": results})
    return EXIT_OK if not failures else EXIT_INVARIANT


def _random_params(n: int, rng: np.random.Generator):
    raw = rng.normal(size=(n, 4))
    return [
        PolarizationAmplitude.from_unnormalized(
            complex(r[0], r[1]), complex(r[2], r[3])
        )
        for r in raw
    ]


# ------------------------------------------------------------------ parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process.

    The tolerance options default to None here; ``main`` resolves them from
    the environment on every call.
    """
    parser = argparse.ArgumentParser(
        prog="symphot",
        description="Symmetric photonic state synthesis, simulation and classification.",
    )
    parser.add_argument("--tol-root", type=float, default=None,
                        help="round-trip tolerance for synthesis")
    parser.add_argument("--tol-cluster", type=float, default=None,
                        help="projective-distance tolerance for degeneracy clustering")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    parser.add_argument("--max-n", type=int, default=8,
                        help="guard on the single-register photon number")
    parser.add_argument("--max-n-joint", type=int, default=4,
                        help="guard on N for two-register (2N-photon) checks")
    parser.add_argument("--format", choices=("json", "table"), default="json")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="target coefficients -> source parameters")
    p.add_argument("input", help="state document path, or - for stdin")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="source parameters -> multiport output state")
    p.add_argument("input", help="state document path, or - for stdin")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("classify", help="entanglement class of a state document")
    p.add_argument("input", help="state document path, or - for stdin")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("rates", help="per-scheme production rates and ratios")
    p.add_argument("input", help="state document path, or - for stdin")
    p.add_argument("--n", type=int, default=None, help="expected photon number (cross-check)")
    p.add_argument("--c-sps", type=float, default=1.0, help="single-photon creation rate")
    p.add_argument("--c-ncl", type=float, default=1.0, help="non-collinear pair creation rate")
    p.add_argument("--c-cl", type=float, default=1.0, help="collinear pair emission rate")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("identity-check", help="verify a built-in structural identity")
    p.add_argument("n", type=int, help="pair-source count N (2N photons total)")
    p.add_argument("which", choices=(CHECK_SIGNED, CHECK_BALANCED, CHECK_PERMUTATION))
    p.set_defaults(func=cmd_identity_check)

    p = sub.add_parser("self-test", help="run a randomized invariant battery")
    p.set_defaults(func=cmd_self_test)

    return parser


def _env_tolerance(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise InputError(f"{name}={raw!r} is not a number") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.tol_root is None:
            args.tol_root = _env_tolerance(ENV_TOL_ROOT, SYNTHESIS_TOL)
        if args.tol_cluster is None:
            args.tol_cluster = _env_tolerance(ENV_TOL_CLUSTER, slocc.CLUSTER_TOL)
        if not (args.tol_root > 0 and args.tol_cluster > 0):
            raise InputError("tolerances must be positive")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SynthesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OverflowError as exc:
        print(f"error: numerical overflow: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
