"""Command-line interface: synthesis, simulation, classification, rate tables,
and built-in identity/self checks with machine-readable JSON output.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 invariant
violation.  Output is one JSON document on stdout (12 significant digits,
sorted keys: stable bytes) or one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from math import inf, isfinite

import numpy as np

from . import schemes, slocc
from .fock import PolarizationAmplitude
from .multiport import (
    postselected_state,
    postselection_probability,
    postselect_one_per_mode,
    run_pipeline,
)
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

#: ``simulate`` writes its 2^N amplitudes and labels in blocks of 2^_BLOCK_QUBITS.
_BLOCK_QUBITS = 12

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
    """The document as one line of JSON; its floats are rounded where it is built."""
    return json.dumps(doc, sort_keys=True)


def _complex_doc(z: complex) -> dict:
    return {"im": _sig12(z.imag), "re": _sig12(z.real)}


def _complex_docs(values) -> list:
    """``_complex_doc`` of each entry of a complex array."""
    return [_complex_doc(z) for z in np.asarray(values, dtype=complex).tolist()]


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
        if not c.any():
            raise InputError("coefficient vector must be nonzero")
        # the state is blind to scale: bring the largest real or imaginary
        # part into [0.5, 1) by an exact power of two, so that norms of entries
        # near the float limits neither overflow nor underflow
        parts = c.view(float)
        _, exponent = np.frexp(abs(parts).max())
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
        params.append(PolarizationAmplitude.from_unnormalized(a, b))
    return "params", params


def _params_doc(params) -> list:
    return [
        {"alpha": _complex_doc(p.alpha), "beta": _complex_doc(p.beta)} for p in params
    ]


# ---------------------------------------------------------------- commands
#
# Every command returns (document, exit code); only ``main`` writes.  The
# document is a dict, or for ``simulate`` the pieces of its JSON text.


def _document(args) -> tuple[str, object, list]:
    """The command's input document, read and parsed: (kind, payload, warnings)."""
    try:
        if args.input == "-":
            raw = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                raw = fh.read()
        doc = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read input document: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    warnings: list = []
    kind, payload = parse_state_document(doc, warnings.append)
    return kind, payload, warnings


def _document_params(kind: str, payload, tol_root: float):
    """Source parameters of a parsed document, synthesized from its coefficients if needed."""
    if kind == "coefficients":
        return params_from_coefficients(payload, tol=tol_root)
    return payload


def _class_doc(params, tol_cluster: float, warnings: list) -> dict:
    """The class keys that ``synthesize`` and ``classify`` share."""
    label = slocc.classify_params(params, tol=tol_cluster)
    return {
        "N": len(params),
        "class": label.name,
        "degeneracy_configuration": list(label.configuration.multiplicities),
        "diversity_degree": label.configuration.diversity_degree,
        "warnings": warnings + ([label.warning] if label.warning else []),
    }


def cmd_synthesize(args) -> tuple[dict, int]:
    kind, payload, warnings = _document(args)
    if kind != "coefficients":
        raise InputError("synthesize requires the 'dicke_coefficients' document form")
    result = synthesize(payload, tol=args.tol_root)
    out = _class_doc(result.params, args.tol_cluster, warnings)
    out["majorana_roots"] = _complex_docs(result.roots)
    out["params"] = _params_doc(result.params)
    out["round_trip_fidelity"] = _sig12(result.fidelity)
    return out, EXIT_OK


def cmd_simulate(args) -> tuple[object, int]:
    kind, params, warnings = _document(args)
    if kind != "params":
        raise InputError("simulate requires the 'params' document form")
    n = len(params)
    amplitudes, p_o = postselected_state(params)
    report = schemes.rates(n, params)
    out = {
        "N": n,
        "amplitudes": _complex_docs(amplitudes),
        "basis_labels": [],
        "norm_squared": _sig12(report.norm_squared),
        "p_input": {name: _sig12(getattr(report, name).p_input) for name in ("cl", "ncl", "sps")},
        "p_output": _sig12(p_o),
        "warnings": warnings,
    }
    return _spliced(n, _render_json(out)), EXIT_OK


@functools.lru_cache(maxsize=16)
def _basis_labels(n: int) -> tuple:
    """The labels of the 2^n basis indices in index order, qubit 0 first; cached."""
    labels = [""]
    for _ in range(n):
        labels = ["H" + s for s in labels] + ["V" + s for s in labels]
    return tuple(labels)


def _separated(pieces):
    """The pieces with the ", " that JSON writes between list items."""
    pieces = iter(pieces)
    yield next(pieces)
    for piece in pieces:
        yield ", "
        yield piece


def _spliced(n: int, text: str):
    """The simulate document in pieces, from ``text``, its rendering with one
    amplitude per Hamming weight and no basis labels.

    Both 2^n-entry arrays are written in blocks of 2^m entries.  The leading
    n - m qubits of block j have the label ``prefixes[j]`` and the weight
    ``offsets[j]``, so the block's amplitudes are one of n - m + 1 strings,
    joined here, and its labels are joined when the block is written.
    """
    head, _, rest = text.partition(', "amplitudes": [{')
    by_weight, _, tail = rest.partition('}], "basis_labels": []')
    entries = ["{" + s + "}" for s in by_weight.split("}, {")]
    m = min(n, _BLOCK_QUBITS)
    weights = hamming_weights(m).tolist()
    blocks = [", ".join([entries[w + h] for h in weights]) for w in range(n - m + 1)]
    offsets = hamming_weights(n - m).tolist()
    prefixes, suffixes = _basis_labels(n - m), _basis_labels(m)
    return itertools.chain(
        (head, ', "amplitudes": ['),
        _separated(blocks[w] for w in offsets),
        ('], "basis_labels": [',),
        _separated('"' + p + ('", "' + p).join(suffixes) + '"' for p in prefixes),
        ("]", tail),
    )


def cmd_classify(args) -> tuple[dict, int]:
    kind, payload, warnings = _document(args)
    params = _document_params(kind, payload, args.tol_root)
    return _class_doc(params, args.tol_cluster, warnings), EXIT_OK


def cmd_rates(args) -> tuple[dict, int]:
    kind, payload, warnings = _document(args)
    params = _document_params(kind, payload, args.tol_root)
    n = len(params)
    if args.n is not None and args.n != n:
        raise InputError(f"N={args.n} does not match the {n}-photon document")
    try:
        src = schemes.SourceRates(args.c_sps, args.c_ncl, args.c_cl)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = schemes.rates(n, params, src)
    rows = {name: {key: _sig12(v) for key, v in vars(getattr(report, name)).items()}
            for name in ("sps", "ncl", "cl")}
    ratio_cl_ncl = report.cl.rate / report.ncl.rate if report.ncl.rate else None
    if ratio_cl_ncl is not None and ratio_cl_ncl > 1.0:
        warnings.append(
            "closed-form R_cl/R_ncl exceeds 1 at this N even though the "
            "collinear scheme is described as the least efficient; formulas "
            "are reported as printed"
        )
    out = {
        "N": n,
        "norm_squared": _sig12(report.norm_squared),
        "ratios": {
            "ncl_over_sps": _sig12(report.ncl.rate / report.sps.rate) if report.sps.rate else None,
            "cl_over_ncl": _sig12(ratio_cl_ncl) if report.ncl.rate else None,
        },
        "schemes": rows,
        "warnings": warnings,
    }
    return out, EXIT_OK


def _pair_qubits(n: int, kind: str) -> QubitStateVector:
    """The post-selected 2N-qubit state of N pair sources and the multiport."""
    qubits, _ = postselect_one_per_mode(schemes.dicke_2n_construction(n, kind))
    return qubits


def _check_balanced_dicke(n: int) -> float:
    """Deviation of the psi+ pair-source state from the claimed balanced Dicke state.

    The claim is that N psi+ pair sources plus the multiport give D_2N^(N);
    the deviation is zero only at N = 1 (0.17 at N = 2, 0.28 at N = 3).
    """
    qubits = _pair_qubits(n, schemes.PSI_PLUS)
    target = dicke_state(2 * n, n)
    # the construction is real and positive; compare amplitudes directly
    return float(abs(qubits.amplitudes - target.amplitudes).max())


def _check_signed_schmidt(n: int) -> float:
    """Deviation of the psi- pair-source state from the claimed signed form.

    The claim is that every weight-N bitstring carries
    (-1)^(weight of the A half) / sqrt(C(2N,N)); the deviation is zero only
    at N = 1 (0.29 at N = 2, 0.33 at N = 3).
    """
    qubits = _pair_qubits(n, schemes.PSI_MINUS)
    # the claimed amplitudes: D_2N^(N) with the sign flipped where the A half
    # has odd weight; rows of the (2^N, 2^N) view index the A half, columns
    # the B half
    dicke = dicke_state(2 * n, n).amplitudes.reshape(2 ** n, 2 ** n)
    signed = np.where(hamming_weights(n)[:, None] % 2, -dicke, dicke)
    expected_state = QubitStateVector(2 * n, signed.reshape(-1))
    # fix the global sign via the largest-magnitude amplitude
    ref = int(abs(expected_state.amplitudes).argmax())
    phase = qubits.amplitudes[ref] / expected_state.amplitudes[ref]
    return float(abs(qubits.amplitudes - phase * expected_state.amplitudes).max())


def _check_projection_symmetry(n: int, rng: np.random.Generator) -> float:
    """Projecting either half of the psi+ pair-source state gives the same states."""
    qubits = _pair_qubits(n, schemes.PSI_PLUS)
    worst = 0.0
    for _ in range(5):
        onto = _random_params(n, rng)
        first = project_qubits(qubits, list(range(n)), onto).normalized()
        second = project_qubits(qubits, list(range(n, 2 * n)), onto).normalized()
        worst = max(worst, 1.0 - first.fidelity(second))
    return worst


def _checked_seed(seed: int) -> int:
    if seed < 0:
        raise InputError(f"--seed must be non-negative, got {seed}")
    return seed


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(_checked_seed(seed))


def cmd_identity_check(args) -> tuple[dict, int]:
    if args.n < 1:
        raise InputError(f"N must be at least 1, got {args.n}")
    if args.n > args.max_n_joint:
        raise InputError(f"N={args.n} exceeds the two-register guard {args.max_n_joint}")
    # only the projection check draws; the others need no numpy.random
    seed = _checked_seed(args.seed)
    if args.which == CHECK_BALANCED:
        deviation = _check_balanced_dicke(args.n)
    elif args.which == CHECK_SIGNED:
        deviation = _check_signed_schmidt(args.n)
    else:
        deviation = _check_projection_symmetry(args.n, _rng(seed))
    passed = deviation <= 1e-9
    out = {
        "N": args.n,
        "check": args.which,
        "max_deviation": _sig12(deviation),
        "pass": bool(passed),
    }
    return out, EXIT_OK if passed else EXIT_INVARIANT


def cmd_self_test(args) -> tuple[dict, int]:
    """Run a fixed battery: N = 1..6 on one register and N = 1..3 on two."""
    rng = _rng(args.seed)
    failures = []
    results = {}

    def record(name: str, deviation: float, tol: float):
        results[name] = {"max_deviation": _sig12(deviation), "tolerance": _sig12(tol)}
        if not (deviation <= tol):
            failures.append(name)

    worst = 0.0
    for n in range(1, 7):
        for _ in range(10):
            params = _random_params(n, rng)
            _, p = run_pipeline(params)
            worst = max(worst, abs(p - postselection_probability(n)))
    record("postselection_probability", worst, 1e-10)

    worst = 0.0
    for n in range(2, 7):
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
    for n in range(1, 4):
        worst = max(worst, _check_projection_symmetry(n, rng))
    record("projection_symmetry", worst, 1e-9)

    out = {"pass": not failures, "failed": failures, "results": results}
    return out, EXIT_OK if not failures else EXIT_INVARIANT


def _random_params(n: int, rng: np.random.Generator):
    raw = rng.normal(size=(n, 4))
    return [
        PolarizationAmplitude.from_unnormalized(
            complex(r[0], r[1]), complex(r[2], r[3])
        )
        for r in raw
    ]


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so they take main's one error line."""

    def error(self, message):
        # an argument echoed back may hold a newline
        raise InputError(message.replace("\n", "\\n"))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process.

    The tolerance options default to None here; ``main`` resolves them from
    the environment on every call.
    """
    parser = _Parser(
        prog="symphot",
        description="Symmetric photonic state synthesis, simulation and classification.",
        allow_abbrev=False,
    )
    parser.add_argument("--tol-root", type=float, default=None,
                        help="round-trip tolerance for synthesis")
    parser.add_argument("--tol-cluster", type=float, default=None,
                        help="projective-distance tolerance for degeneracy clustering")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    parser.add_argument("--max-n-joint", type=int, default=4,
                        help="guard on N for identity-check (2N photons)")

    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("synthesize", cmd_synthesize, "target coefficients -> source parameters"),
        ("simulate", cmd_simulate, "source parameters -> multiport output state"),
        ("classify", cmd_classify, "entanglement class of a state document"),
        ("rates", cmd_rates, "per-scheme production rates and ratios"),
    ):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("input", help="state document path, or - for stdin")
        p.set_defaults(func=func)
    # p is the rates parser, built last
    p.add_argument("--n", type=int, default=None, help="expected photon number (cross-check)")
    p.add_argument("--c-sps", type=float, default=1.0, help="single-photon creation rate")
    p.add_argument("--c-ncl", type=float, default=1.0, help="non-collinear pair creation rate")
    p.add_argument("--c-cl", type=float, default=1.0, help="collinear pair emission rate")

    p = sub.add_parser("identity-check", help="verify a built-in structural identity",
                       allow_abbrev=False)
    p.add_argument("n", type=int, help="pair-source count N (2N photons total)")
    p.add_argument("which", choices=(CHECK_SIGNED, CHECK_BALANCED, CHECK_PERMUTATION))
    p.set_defaults(func=cmd_identity_check)

    p = sub.add_parser("self-test", help="run a randomized invariant battery",
                       allow_abbrev=False)
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
    try:
        args = build_parser().parse_args(argv)
        if args.tol_root is None:
            args.tol_root = _env_tolerance(ENV_TOL_ROOT, SYNTHESIS_TOL)
        if args.tol_cluster is None:
            args.tol_cluster = _env_tolerance(ENV_TOL_CLUSTER, slocc.CLUSTER_TOL)
        if not (0 < args.tol_root < inf and 0 < args.tol_cluster < inf):
            raise InputError("tolerances must be positive and finite")
        if not args.tol_cluster < 1:
            raise InputError("the cluster tolerance must be below 1, the largest distance")
        # a numpy overflow, invalid value or division by zero raises
        # FloatingPointError rather than printing a RuntimeWarning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out, code = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SynthesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OverflowError as exc:
        print(f"error: numerical overflow: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FloatingPointError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_NUMERICAL
    # a command's numeric work is done; a dict is rendered here, and the
    # simulate document arrives in pieces
    for chunk in (_render_json(out),) if isinstance(out, dict) else out:
        sys.stdout.write(chunk)
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
