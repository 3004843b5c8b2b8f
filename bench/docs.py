"""Seeded input generators for the four benchmark workloads.

Every generator takes the workload seed and returns plain data: JSON
documents for the CLI (passed on stdin) or (alpha, beta) tuples for the
library calls, each with the ground truth the checker needs.  Nothing here
imports symphot.  Each generator returns the fixed list of operations of one
pass, which a run repeats.  The composition of a pass (which N, which kind of document,
how many) is fixed; the seed only draws the values and the order, so every
seed costs the same amount of work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import sqrt

import numpy as np

import checker

# ------------------------------------------------------------------ design
#
# One pass is 126 documents; each goes through `synthesize` then `classify`.
# Small N (3..10) dominates the count, the few N >= 14 documents dominate the
# time through the dense 2^N round-trip vectors.  N stays <= 18: at N >= 24
# the dense vectors need gigabytes.

DESIGN_RANDOM = {3: 10, 4: 10, 5: 10, 6: 10, 7: 10, 8: 10, 9: 10, 10: 10,
                 14: 6, 16: 1, 18: 1}
DESIGN_GHZ = (3, 4, 5, 6, 8, 10)
DESIGN_W = (3, 4, 5, 7, 9)
DESIGN_DICKE = ((4, 2), (5, 2), (6, 3), (7, 3), (8, 4), (10, 5))
#: Degeneracy partitions of product states.  The root finder splits every
#: root of multiplicity >= 3, and now and then one of multiplicity 2 (about
#: 3% of (2,2,2,2,2) draws); ROADMAP item 1.
DESIGN_PARTITIONS = (
    (2, 1), (3,), (2, 2), (3, 1), (2, 1, 1), (4,), (2, 2, 1), (3, 2), (3, 1, 1),
    (2, 2, 2), (4, 1, 1), (3, 3), (2, 2, 1, 1, 1), (5, 2), (4, 2, 1, 1), (6, 1, 1),
    (2, 2, 2, 2, 2),
)
#: Malformed documents; all must be rejected with exit code 2.  The current
#: code accepts the non-finite ones (ROADMAP item 4).
DESIGN_MALFORMED = ("nan", "inf", "wrong-length", "zero")

DEFECT_REPEATED_ROOT = "roadmap-1: repeated root split"
DEFECT_NONFINITE = "roadmap-4: non-finite input accepted"


@dataclass
class StateDoc:
    """A `dicke_coefficients` document and what the program must answer."""

    kind: str
    n: int
    text: str
    target: np.ndarray | None = None  # c_0..c_N, None for malformed documents
    truth: tuple | None = None  # degeneracy configuration
    expected_exit: int = 0
    known_defect: str | None = None


@dataclass
class ParamsDoc:
    """A `params` document: N source polarizations."""

    n: int
    params: list  # (alpha, beta) tuples
    text: str


def _complex_entry(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def coefficients_doc(n: int, c) -> str:
    return json.dumps({"N": n, "dicke_coefficients": [_complex_entry(z) for z in c]})


def params_doc(params) -> str:
    return json.dumps({"params": [
        {"alpha": _complex_entry(a), "beta": _complex_entry(b)} for a, b in params
    ]})


def random_polarization(rng: np.random.Generator) -> tuple:
    a, b, c, d = rng.normal(size=4)
    alpha, beta = complex(a, b), complex(c, d)
    norm = sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return alpha / norm, beta / norm


def random_params(n: int, rng: np.random.Generator) -> list:
    return [random_polarization(rng) for _ in range(n)]


def _state(kind: str, n: int, c, truth, known_defect=None) -> StateDoc:
    c = np.asarray(c, dtype=complex)
    c = c / np.linalg.norm(c)
    return StateDoc(kind, n, coefficients_doc(n, c), c, tuple(truth), 0, known_defect)


def random_state(n: int, rng: np.random.Generator) -> StateDoc:
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return _state("random", n, c, (1,) * n)


def ghz_state(n: int) -> StateDoc:
    c = np.zeros(n + 1)
    c[0] = c[n] = 1.0
    return _state("ghz", n, c, (1,) * n)


def dicke_doc(n: int, k: int) -> StateDoc:
    """D_N^k: k photons |V>, N-k photons |H>; W_N is D_N^1."""
    c = np.zeros(n + 1)
    c[k] = 1.0
    truth = tuple(sorted((m for m in (n - k, k) if m), reverse=True))
    return _state("w" if k == 1 else "dicke", n, c, truth)


def partition_state(partition: tuple, rng: np.random.Generator) -> StateDoc:
    """Product of distinct random polarizations with the given multiplicities."""
    params = []
    for m in partition:
        params.extend([random_polarization(rng)] * m)
    n = len(params)
    defect = DEFECT_REPEATED_ROOT if max(partition) >= 2 else None
    return _state("partition", n, checker.dicke_coefficients(params), partition, defect)


def malformed_state(what: str, rng: np.random.Generator) -> StateDoc:
    n = int(rng.integers(3, 7))
    entries = [_complex_entry(complex(*rng.normal(size=2))) for _ in range(n + 1)]
    defect = None
    if what in ("nan", "inf"):
        entries[int(rng.integers(0, n + 1))] = {"re": what, "im": 0.0}
        defect = DEFECT_NONFINITE
    elif what == "wrong-length":
        entries.append(_complex_entry(1.0))
    else:
        entries = [{"re": 0.0, "im": 0.0}] * (n + 1)
    text = json.dumps({"N": n, "dicke_coefficients": entries})
    return StateDoc("malformed-" + what, n, text, expected_exit=2, known_defect=defect)


def design_docs(seed: int) -> list[StateDoc]:
    rng = np.random.default_rng([seed, 1])
    docs = [random_state(n, rng) for n, count in DESIGN_RANDOM.items() for _ in range(count)]
    docs += [ghz_state(n) for n in DESIGN_GHZ]
    docs += [dicke_doc(n, 1) for n in DESIGN_W]
    docs += [dicke_doc(n, k) for n, k in DESIGN_DICKE]
    docs += [partition_state(p, rng) for p in DESIGN_PARTITIONS]
    docs += [malformed_state(w, rng) for w in DESIGN_MALFORMED]
    order = rng.permutation(len(docs))
    return [docs[i] for i in order]


# -------------------------------------------------------------------- scan
#
# Random-params documents, each run through `simulate` then `rates` in one
# long-lived process.  Many documents share each N, and the expansion cache
# is keyed on N, not on the polarizations, so it is warm for every document
# but the first at each N.

SCAN_MIX = {4: 16, 5: 12, 6: 8, 7: 4}


def scan_docs(seed: int) -> list[ParamsDoc]:
    rng = np.random.default_rng([seed, 2])
    out = []
    for n, count in SCAN_MIX.items():
        for _ in range(count):
            params = random_params(n, rng)
            out.append(ParamsDoc(n, params, params_doc(params)))
    return [out[i] for i in rng.permutation(len(out))]


# ---------------------------------------------------------------- cold-cli
#
# One fresh `python -m symphot` per invocation: 41 invocations per pass.

COLD_SIMULATE_N = (6, 7, 8)
COLD_IDENTITY_N = (1, 2, 3, 4)
IDENTITY_CHECKS = ("dicke-2n", "schmidt-signs", "projection-symmetry")
COLD_RATES_N = 5


@dataclass
class Invocation:
    command: str  # CLI subcommand
    argv: list
    stdin: str = ""
    doc: object = None  # StateDoc or ParamsDoc the checker compares against


def cold_cli_invocations(seed: int) -> list[Invocation]:
    rng = np.random.default_rng([seed, 3])
    out = []
    for n in COLD_SIMULATE_N:
        params = random_params(n, rng)
        doc = ParamsDoc(n, params, params_doc(params))
        out.append(Invocation("simulate", ["simulate", "-"], doc.text, doc))
    small = [random_state(n, rng) for n in (3, 3, 4, 4, 5, 6)]
    small += [ghz_state(3), dicke_doc(3, 1), dicke_doc(4, 1), dicke_doc(4, 2)]
    small += [partition_state((2, 1), rng), partition_state((2, 2), rng)]
    for doc in small:
        out.append(Invocation("synthesize", ["synthesize", "-"], doc.text, doc))
        out.append(Invocation("classify", ["classify", "-"], doc.text, doc))
    for n in COLD_IDENTITY_N:
        for which in IDENTITY_CHECKS:
            out.append(Invocation("identity-check", ["identity-check", str(n), which], doc=(n, which)))
    params = random_params(COLD_RATES_N, rng)
    doc = ParamsDoc(COLD_RATES_N, params, params_doc(params))
    out.append(Invocation("rates", ["rates", "-"], doc.text, doc))
    out.append(Invocation("self-test", ["--seed", str(seed), "self-test"]))
    return [out[i] for i in rng.permutation(len(out))]


# ------------------------------------------------------------------- pairs
#
# Library calls on the two-register (pair-source) path: every N = 1..5 with
# both psi+ and psi-, each with random projector polarizations.

PAIRS_N = (1, 2, 3, 4, 5)
PAIR_KINDS = ("psi+", "psi-")
#: Plans per (N, psi) combination in one pass, each with its own projector.
PAIR_REPEATS = 4


@dataclass
class PairPlan:
    n: int
    kind: str
    params: list  # (alpha, beta) tuples


def pair_plans(seed: int) -> list[PairPlan]:
    rng = np.random.default_rng([seed, 4])
    plans = [PairPlan(n, kind, random_params(n, rng))
             for n in PAIRS_N for kind in PAIR_KINDS for _ in range(PAIR_REPEATS)]
    return [plans[i] for i in rng.permutation(len(plans))]
