"""Golden CLI corpus: the exit code and exact stdout bytes of fixed invocations.

``golden/corpus.json`` lists each case's argv, stdin document, exit code and
stdout.  Every stdout byte must match, with one exception: a
``max_deviation`` recorded below 1e-12 is a rounding residue, zero in exact
arithmetic, so it is compared as "both below 1e-12".

After an intended change of output, re-record with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import itertools
import json
import re
import sys
from pathlib import Path

import pytest

from symphot import cli

from conftest import hamming_weight, render_json_walk, round_floats_walk

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"
RESIDUE = 1e-12
_DEVIATION = re.compile(r'("max_deviation": )([^,}]+)')


def _load():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def _run(case):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(case["stdin"])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(case["argv"])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _mask_residues(stdout):
    return _DEVIATION.sub(
        lambda m: m.group(1) + "<residue>" if float(m.group(2)) < RESIDUE else m.group(0),
        stdout,
    )


@pytest.mark.parametrize("case", _load(), ids=lambda case: case["name"])
def test_golden(case):
    code, stdout = _run(case)
    assert code == case["exit"]
    assert _mask_residues(stdout) == _mask_residues(case["stdout"])


@pytest.mark.parametrize("case", _load(), ids=lambda case: case["name"])
def test_parse_memo_parity(case):
    # the first run parses its argv cold, the second reads the parse memo
    cold = _run(case)
    warm = _run(case)
    info = cli._parsed.cache_info()
    # a failed parse is not kept, so only a successful one is read back
    assert info.hits == info.currsize
    assert cold[0] == warm[0] == case["exit"]
    assert cold[1] == warm[1]
    assert _mask_residues(warm[1]) == _mask_residues(case["stdout"])


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_document_memo_parity(order):
    # the corpus runs each coefficient document through synthesize, classify
    # and rates in a row; run back to back, either way round, the later
    # commands read the first one's parse and synthesis
    cases = _load()
    for case in cases if order == "forward" else cases[::-1]:
        code, stdout = _run(case)
        assert code == case["exit"], case["name"]
        assert _mask_residues(stdout) == _mask_residues(case["stdout"]), case["name"]
    assert cli._synthesis.cache_info().hits > 0


@pytest.mark.parametrize("case", [case for case in _load() if case["argv"][0] == "simulate"],
                         ids=lambda case: case["name"])
def test_simulate_without_sector_loop(case, monkeypatch):
    # simulate takes the closed form in N+1 dimensions; the sector loop is for
    # self-test only, and no 2^N state vector is built
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"simulate called {name}")
        return call

    for target in ("symphot.cli.run_pipeline", "symphot.symmetric.output_state",
                   "symphot.multiport.QubitStateVector"):
        monkeypatch.setattr(target, refuse(target))
    code, stdout = _run(case)
    assert code == case["exit"]
    assert stdout == case["stdout"]


@pytest.mark.parametrize("case", _load(), ids=lambda case: case["name"])
def test_documents_are_built_rounded(case, monkeypatch):
    # every float is rounded where the document is built: the reference walk
    # changes nothing, and both renderers give the same bytes
    docs = []
    render = cli._render_json
    monkeypatch.setattr(cli, "_render_json", lambda doc: docs.append(doc) or render(doc))
    code, stdout = _run(case)
    assert code == case["exit"]
    assert len(docs) == (code in (cli.EXIT_OK, cli.EXIT_INVARIANT))
    for doc in docs:
        assert round_floats_walk(doc) == doc
        assert render_json_walk(doc) == render(doc)
    if case["argv"][0] == "simulate" and docs:
        # simulate renders one amplitude per Hamming weight and no labels, and
        # splices the 2^N entries of both into that text: the whole document
        # is rounded too, and the reference renderer gives the bytes written
        (doc,) = docs
        n = doc["N"]
        assert len(doc["amplitudes"]) == n + 1 and doc["basis_labels"] == []
        whole = dict(doc, amplitudes=[doc["amplitudes"][hamming_weight(i)] for i in range(2 ** n)],
                     basis_labels=["".join(label) for label in itertools.product("HV", repeat=n)])
        assert round_floats_walk(whole) == whole
        assert render_json_walk(whole) + "\n" == stdout


if __name__ == "__main__":
    cases = _load()
    for case in cases:
        case["exit"], case["stdout"] = _run(case)
    CORPUS.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
