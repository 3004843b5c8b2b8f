"""The benchmark's correctness contract, checked in process.

`bench/run.py` counts an operation as failed when its output does not pass
`bench/checker.py`, and a change that makes more operations fail is refused.
These tests run every operation that `bench/docs.py` generates for two seeds
through the same checks, without timing them:

* `design` and `scan` documents through `cli.main`, as the benchmark does;
* the `cold-cli` invocations through `cli.main` instead of fresh processes;
* the `pairs` plans through the benchmark's own library calls.

They also check that every function `bench/tracer.py` wraps still exists,
and that a traced `pairs` pass records the term counts its per-layer
metrics are computed from.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import checker  # noqa: E402
import docs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEEDS = (101, 102)

#: Terms of the 2N-mode pair-source state that `dicke_2n_construction` builds.
DICKE_2N_TERMS = {1: 2, 2: 14, 3: 128, 4: 1310, 5: 14252}


def _failures(workload, ops) -> list:
    results = ((op, workload.run(op, False, None, None)) for op in ops)
    return [(op, result.failure) for op, result in results if result.failure]


@pytest.mark.parametrize("seed", SEEDS)
def test_design_fails_only_on_multiplicity_three_or_more(seed):
    # the root finder splits roots of multiplicity >= 3 (ROADMAP item 1);
    # every other design document must pass the checker
    failed = _failures(workloads.Design(), docs.design_docs(seed))
    unexpected = [(doc.kind, doc.truth, failure) for doc, failure in failed
                  if not (doc.kind == "partition" and max(doc.truth) >= 3)]
    assert unexpected == []


@pytest.mark.parametrize("seed", SEEDS)
def test_scan_has_no_failures(seed):
    assert _failures(workloads.Scan(), docs.scan_docs(seed)) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_cold_cli_has_no_failures(seed):
    failed = []
    for inv in docs.cold_cli_invocations(seed):
        code, stdout, stderr, _ = workloads.call_cli(inv.argv, inv.stdin)
        try:
            checker.CLI_CHECKS[inv.command](code, stdout, stderr, inv.doc)
        except checker.CheckError as exc:
            failed.append((inv.argv, str(exc)))
    assert failed == []


@pytest.mark.parametrize("seed", SEEDS)
def test_pairs_has_no_failures(seed):
    assert _failures(workloads.Pairs(), docs.pair_plans(seed)) == []


@pytest.mark.parametrize("target", tracer.TARGETS, ids=lambda target: target[2])
def test_tracer_target_resolves(target):
    module_name, attribute, _, _ = target
    owner = importlib.import_module(module_name)
    for name in attribute.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_traced_pairs_pass_records_term_counts():
    workload, plans = workloads.Pairs(), docs.pair_plans(SEEDS[0])
    assert {plan.n for plan in plans} == set(DICKE_2N_TERMS)
    recorder, failed = tracer.Tracer(), []
    with recorder.installed():
        for op_id, plan in enumerate(plans):
            recorder.op_id = op_id
            result = workload.run(plan, True, op_id, None)
            if result.failure:
                failed.append(result.failure)
    assert failed == []
    want = [(op_id, DICKE_2N_TERMS[plan.n]) for op_id, plan in enumerate(plans)]
    assert [(span[4], span[6]["terms"]) for span in recorder.spans
            if span[0] == "schemes.dicke_2n_construction"] == want
    assert [(span[4], span[6]["terms_in"]) for span in recorder.spans
            if span[0] == "multiport.postselect"] == want
