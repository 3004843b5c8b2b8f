"""Tests of the benchmark itself: generators, checker and tracer.

    python3 -m pytest bench/test_bench.py
"""

import json
import sys

import numpy as np
import pytest

import checker
import docs
import run
import tracer as tracing
import workloads

run.import_program()

from symphot import cli, symmetric  # noqa: E402  (needs src/ on the path)


def _flat(obj):
    """Comparable form of generated inputs (numpy arrays become lists)."""
    if isinstance(obj, list):
        return [_flat(x) for x in obj]
    if hasattr(obj, "__dict__"):
        return {k: _flat(v) for k, v in vars(obj).items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


@pytest.mark.parametrize("make", [
    docs.design_docs, docs.scan_docs, docs.cold_cli_invocations, docs.pair_plans,
])
def test_same_seed_same_inputs(make):
    assert _flat(make(7)) == _flat(make(7))
    assert _flat(make(7)) != _flat(make(8))


def test_design_pass_has_every_kind():
    kinds = {d.kind.split("-")[0] for d in docs.design_docs(0)}
    assert kinds == {"random", "ghz", "w", "dicke", "partition", "malformed"}


def _doc(kind, seed=0):
    return next(d for d in docs.design_docs(seed) if d.kind == kind)


def _scan_doc(n, seed=0):
    return next(d for d in docs.scan_docs(seed) if d.n == n)


def test_checker_accepts_program_outputs():
    doc = _doc("random")
    for command in ("synthesize", "classify"):
        code, out, err, _ = workloads.call_cli([command, "-"], doc.text)
        checker.CLI_CHECKS[command](code, out, err, doc)
    params = _scan_doc(4)
    for command in ("simulate", "rates"):
        code, out, err, _ = workloads.call_cli([command, "-"], params.text)
        checker.CLI_CHECKS[command](code, out, err, params)


def test_checker_rejects_nan_token():
    doc = _doc("random")
    code, out, err, _ = workloads.call_cli(["synthesize", "-"], doc.text)
    result = json.loads(out)
    result["round_trip_fidelity"] = float("nan")
    with pytest.raises(checker.CheckError, match="NaN"):
        checker.check_synthesize(code, json.dumps(result), err, doc)


def test_checker_rejects_wrong_configuration():
    doc = _doc("w")
    code, out, err, _ = workloads.call_cli(["classify", "-"], doc.text)
    result = json.loads(out)
    result["degeneracy_configuration"] = [1] * doc.n
    with pytest.raises(checker.CheckError, match="configuration"):
        checker.check_classify(code, json.dumps(result), err, doc)


def test_checker_rejects_flipped_amplitude_sign():
    doc = _scan_doc(5)
    code, out, err, _ = workloads.call_cli(["simulate", "-"], doc.text)
    result = json.loads(out)
    amps = result["amplitudes"]
    k = max(range(len(amps)), key=lambda i: abs(complex(amps[i]["re"], amps[i]["im"])))
    amps[k] = {"re": -amps[k]["re"], "im": -amps[k]["im"]}
    with pytest.raises(checker.CheckError, match="amplitudes deviate"):
        checker.check_simulate(code, json.dumps(result), err, doc)


def test_checker_rejects_wrong_p_output():
    doc = _scan_doc(5)
    code, out, err, _ = workloads.call_cli(["simulate", "-"], doc.text)
    result = json.loads(out)
    result["p_output"] *= 1.0 + 1e-6
    with pytest.raises(checker.CheckError, match="p_output"):
        checker.check_simulate(code, json.dumps(result), err, doc)


def test_checker_rejects_wrong_exit_code():
    doc = _doc("malformed-wrong-length")
    with pytest.raises(checker.CheckError, match="exit code"):
        checker.check_classify(0, "", "", doc)


def _bindings():
    """Every attribute of every loaded symphot module, plus the wrapped method."""
    state = {(name, key): value for name, module in sys.modules.items()
             if name == "symphot" or name.startswith("symphot.")
             for key, value in vars(module).items()}
    state[("MajoranaPolynomial", "roots")] = symmetric.MajoranaPolynomial.__dict__["roots"]
    return state


@pytest.mark.parametrize("name", ["design", "scan", "pairs"])
def test_traced_run_restores_every_attribute(name, tmp_path):
    before = _bindings()
    passes, tracer = run.measure(workloads.make(name, run.ROOT), 3, 0.0, True, tmp_path)
    after = _bindings()
    # warnings the program raises add a __warningregistry__; nothing else may change
    assert set(after) - set(before) <= {(m, "__warningregistry__") for m, _ in after}
    assert all(after[k] is v for k, v in before.items())
    assert [traced for traced, _ in passes] == [False, True]
    assert {span[0] for span in tracer.spans} >= {
        "design": {"cli.main", "symmetric.roots", "slocc.classify_params"},
        "scan": {"cli.main", "multiport.distribute", "fock.product_state"},
        "pairs": {"schemes.dicke_2n_construction", "multiport.postselect", "schemes.rates"},
    }[name]


def test_wrappers_reach_importing_modules():
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.output_state is symmetric.output_state
        assert hasattr(cli.output_state, "__wrapped__")
    assert not hasattr(cli.output_state, "__wrapped__")


def test_self_time_subtracts_children():
    spans = [["a", 0, 100, -1, 0, 0, None], ["b", 10, 40, 0, 0, 5, None], ["c", 50, 60, 0, 0, 0, None]]
    assert tracing.self_times(spans) == [100 - 30 - 5 - 10, 30, 10]
