import contextlib
import io
import json
import math
import sys
import warnings
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symphot import cli, fock, multiport
from symphot.fock import PolarizationAmplitude
from symphot.multiport import build_cascade
from symphot.symmetric import SynthesisError, coefficients_from_params

import oracle
from conftest import hamming_weight, random_coefficients, random_params


def _coeff_doc(n, values):
    return {
        "N": n,
        "dicke_coefficients": [{"re": v.real, "im": v.imag} for v in values],
    }


def _param_doc(pairs):
    return {
        "params": [
            {
                "alpha": {"re": a.real, "im": a.imag},
                "beta": {"re": b.real, "im": b.imag},
            }
            for a, b in pairs
        ]
    }


GHZ3 = _coeff_doc(3, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
W3 = _coeff_doc(3, [0, 1, 0, 0])
SEP3 = _coeff_doc(3, [1, 0, 0, 0])
HV = _param_doc([(1, 0), (0, 1)])
W_PARAMS = _param_doc([(0, 1), (1, 0), (1, 0)])


def run_cli(tmp_path, args, doc=None, capsys=None):
    argv = list(args)
    if doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv.append(str(path))
    code = cli.main(argv)
    out = capsys.readouterr().out if capsys is not None else ""
    payload = json.loads(out) if out.strip().startswith("{") else None
    return code, payload


class TestDocumentParsing:
    def test_both_forms_rejected(self, tmp_path, capsys):
        doc = dict(GHZ3, **HV)
        code, _ = run_cli(tmp_path, ["classify"], doc, capsys)
        assert code == cli.EXIT_INPUT

    def test_missing_n(self, tmp_path, capsys):
        doc = {"dicke_coefficients": GHZ3["dicke_coefficients"]}
        code, _ = run_cli(tmp_path, ["synthesize"], doc, capsys)
        assert code == cli.EXIT_INPUT

    def test_wrong_length(self, tmp_path, capsys):
        doc = _coeff_doc(3, [1, 0, 0])
        code, _ = run_cli(tmp_path, ["synthesize"], doc, capsys)
        assert code == cli.EXIT_INPUT

    def test_zero_coefficients(self, tmp_path, capsys):
        doc = _coeff_doc(2, [0, 0, 0])
        code, _ = run_cli(tmp_path, ["synthesize"], doc, capsys)
        assert code == cli.EXIT_INPUT

    def test_unnormalized_param_rejected(self, tmp_path, capsys):
        doc = _param_doc([(1.1, 0)])
        code, _ = run_cli(tmp_path, ["simulate"], doc, capsys)
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("magnitude", [1e308, 1e200])
    @pytest.mark.parametrize("command", ["simulate", "classify", "rates"])
    def test_param_norm_overflow_is_input_error(self, command, magnitude):
        # |alpha|^2 does not fit a float; the entry is far from unit norm
        code, out, err, caught = run_strict([command], {"params": [
            {"alpha": {"re": magnitude}, "beta": {}}]})
        assert_clean_exit(code, out, err, caught)
        assert code == cli.EXIT_INPUT
        assert err.splitlines() == ["error: params[0]: |alpha|^2+|beta|^2 overflows, not 1"]

    def test_slightly_off_param_warns(self, tmp_path, capsys):
        eps = 1e-8
        doc = _param_doc([(math.sqrt(1 + eps), 0)])
        code, payload = run_cli(tmp_path, ["simulate"], doc, capsys)
        assert code == cli.EXIT_OK
        assert any("renormalized" in w for w in payload["warnings"])

    def test_not_json(self, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text("not json")
        assert cli.main(["classify", str(path)]) == cli.EXIT_INPUT
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert cli.main(["classify", "/nonexistent/input.json"]) == cli.EXIT_INPUT
        capsys.readouterr()

    def test_stdin_input(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(HV)))
        code = cli.main(["classify", "-"])
        assert code == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["degeneracy_configuration"] == [1, 1]


class TestSynthesize:
    def test_ghz(self, tmp_path, capsys):
        code, payload = run_cli(tmp_path, ["synthesize"], GHZ3, capsys)
        assert code == cli.EXIT_OK
        assert payload["class"] == "GHZ"
        assert payload["degeneracy_configuration"] == [1, 1, 1]
        assert payload["round_trip_fidelity"] >= 1 - 1e-9
        roots = [complex(r["re"], r["im"]) for r in payload["majorana_roots"]]
        expected = sorted(np.exp(2j * np.pi * np.arange(3) / 3), key=lambda z: z.imag)
        for got, want in zip(sorted(roots, key=lambda z: z.imag), expected):
            assert abs(got - want) < 1e-8

    def test_w(self, tmp_path, capsys):
        code, payload = run_cli(tmp_path, ["synthesize"], W3, capsys)
        assert code == cli.EXIT_OK
        assert payload["class"] == "W"
        assert payload["degeneracy_configuration"] == [2, 1]

    def test_separable(self, tmp_path, capsys):
        code, payload = run_cli(tmp_path, ["synthesize"], SEP3, capsys)
        assert code == cli.EXIT_OK
        assert payload["class"] == "separable"
        betas = [complex(p["beta"]["re"], p["beta"]["im"]) for p in payload["params"]]
        assert all(abs(b) < 1e-12 for b in betas)

    def test_requires_coefficient_form(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, ["synthesize"], HV, capsys)
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("partition", [(3, 1), (2, 2), (4, 2, 1, 1), (6, 1, 1)], ids=str)
    def test_params_built_from_printed_roots(self, partition, tmp_path, capsys, rng):
        # repeated roots move by eps^(1/m) between solves, so the printed
        # roots must be the ones the printed params were built from
        params = [p for m in partition for p in random_params(1, rng) * m]
        c = coefficients_from_params(params).c
        code, payload = run_cli(tmp_path, ["synthesize"],
                                _coeff_doc(len(params), c / np.linalg.norm(c)), capsys)
        assert code == cli.EXIT_OK
        roots = [complex(r["re"], r["im"]) for r in payload["majorana_roots"]]
        assert len(roots) == len(params)
        for z, p in zip(roots, payload["params"]):
            scale = math.sqrt(1 + abs(z) ** 2)
            assert abs(complex(p["alpha"]["re"], p["alpha"]["im"]) - z / scale) <= 1e-10
            assert abs(complex(p["beta"]["re"], p["beta"]["im"]) - 1 / scale) <= 1e-10


class TestSimulate:
    def test_w_params(self, tmp_path, capsys):
        code, payload = run_cli(tmp_path, ["simulate"], W_PARAMS, capsys)
        assert code == cli.EXIT_OK
        assert payload["p_output"] == pytest.approx(6 / 27, abs=1e-10)
        amps = {
            label: complex(a["re"], a["im"])
            for label, a in zip(payload["basis_labels"], payload["amplitudes"])
        }
        for label in ("HHV", "HVH", "VHH"):
            assert abs(amps[label]) == pytest.approx(1 / math.sqrt(3), abs=1e-10)
        assert abs(amps["HHH"]) < 1e-12

    def test_hv_pair(self, tmp_path, capsys):
        code, payload = run_cli(tmp_path, ["simulate"], HV, capsys)
        assert code == cli.EXIT_OK
        assert payload["p_output"] == pytest.approx(0.5)
        assert payload["norm_squared"] == pytest.approx(1.0)
        assert payload["p_input"]["ncl"] == pytest.approx(1 / 6)
        assert payload["p_input"]["sps"] == pytest.approx(0.25)

    def test_single_photon(self, tmp_path, capsys):
        s = 1 / math.sqrt(2)
        doc = _param_doc([(s, s)])
        code, payload = run_cli(tmp_path, ["simulate"], doc, capsys)
        assert code == cli.EXIT_OK
        assert payload["p_output"] == pytest.approx(1.0)

    def test_requires_param_form(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, ["simulate"], GHZ3, capsys)
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("n", (8, 10, 12))
    def test_many_photons_closed_form(self, n, tmp_path, capsys, rng):
        # every one-per-mode string of weight w (w photons V) collects the
        # w!(N-w)! orderings of the product term f_w a_H^(N-w) a_V^w, each
        # with amplitude prod_j t_j
        params = [(p.alpha, p.beta) for p in random_params(n, rng)]
        f = [1.0]
        for a, b in params:
            f = [x * a + y * b for x, y in zip(f + [0], [0] + f)]
        expected = np.array([
            factorial(hamming_weight(i)) * factorial(n - hamming_weight(i)) * f[hamming_weight(i)]
            for i in range(2 ** n)
        ]) * np.prod(build_cascade(n).amplitudes)
        expected /= np.linalg.norm(expected)
        code, payload = run_cli(tmp_path, ["simulate"], _param_doc(params), capsys)
        assert code == cli.EXIT_OK
        amps = np.array([complex(a["re"], a["im"]) for a in payload["amplitudes"]])
        assert np.max(np.abs(amps - expected)) < 1e-9
        assert payload["p_output"] == float(f"{factorial(n) / n ** n:.12g}")

    def test_sector_only(self, tmp_path, capsys, monkeypatch, rng):
        # simulate builds neither Fock vectors nor a post-selection of one
        def refuse(*args, **kwargs):
            raise AssertionError("Fock kernel called")

        for owner, name in ((fock, "_create"), (multiport, "_create"),
                            (multiport, "postselect_one_per_mode")):
            monkeypatch.setattr(owner, name, refuse)
        n = 8
        params = [(p.alpha, p.beta) for p in random_params(n, rng)]
        code, payload = run_cli(tmp_path, ["simulate"], _param_doc(params), capsys)
        assert code == cli.EXIT_OK
        assert payload["p_output"] == float(f"{factorial(n) / n ** n:.12g}")


class TestClassify:
    def test_param_form(self, tmp_path, capsys):
        code, payload = run_cli(tmp_path, ["classify"], W_PARAMS, capsys)
        assert code == cli.EXIT_OK
        assert payload["class"] == "W"

    def test_coefficient_form(self, tmp_path, capsys):
        code, payload = run_cli(tmp_path, ["classify"], GHZ3, capsys)
        assert code == cli.EXIT_OK
        assert payload["class"] == "GHZ"

    def test_cluster_tolerance_flag(self, tmp_path, capsys):
        near = _param_doc([(1, 0), (math.sqrt(1 - 1e-8), 1e-4)])
        code, payload = run_cli(
            tmp_path, ["--tol-cluster", "1e-3", "classify"], near, capsys
        )
        assert code == cli.EXIT_OK
        assert payload["degeneracy_configuration"] == [2]
        code, payload = run_cli(
            tmp_path, ["--tol-cluster", "1e-6", "classify"], near, capsys
        )
        assert payload["degeneracy_configuration"] == [1, 1]

    def test_cluster_tolerance_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_TOL_CLUSTER, "1e-3")
        near = _param_doc([(1, 0), (math.sqrt(1 - 1e-8), 1e-4)])
        code, payload = run_cli(tmp_path, ["classify"], near, capsys)
        assert payload["degeneracy_configuration"] == [2]

    def test_tolerance_env_read_on_every_call(self, tmp_path, capsys, monkeypatch):
        near = _param_doc([(1, 0), (math.sqrt(1 - 1e-8), 1e-4)])
        for value, configuration in (("1e-3", [2]), ("1e-6", [1, 1]), ("1e-3", [2])):
            monkeypatch.setenv(cli.ENV_TOL_CLUSTER, value)
            code, payload = run_cli(tmp_path, ["classify"], near, capsys)
            assert payload["degeneracy_configuration"] == configuration
        monkeypatch.delenv(cli.ENV_TOL_CLUSTER)
        code, payload = run_cli(tmp_path, ["classify"], near, capsys)
        assert payload["degeneracy_configuration"] == [1, 1]

    @pytest.mark.parametrize("name", [cli.ENV_TOL_ROOT, cli.ENV_TOL_CLUSTER])
    @pytest.mark.parametrize("value", ["abc", "", "nan", "-1"])
    def test_bad_tolerance_env(self, name, value, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(name, value)
        code, _ = run_cli(tmp_path, ["classify"], W_PARAMS)
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")


class TestRates:
    def test_ghz_ratio(self, tmp_path, capsys):
        code, payload = run_cli(tmp_path, ["rates"], GHZ3, capsys)
        assert code == cli.EXIT_OK
        assert payload["ratios"]["ncl_over_sps"] == pytest.approx(3.375)

    def test_hv_ncl_rate(self, tmp_path, capsys):
        code, payload = run_cli(tmp_path, ["rates"], HV, capsys)
        assert code == cli.EXIT_OK
        assert payload["schemes"]["ncl"]["rate"] == pytest.approx(0.125)
        assert payload["ratios"]["cl_over_ncl"] == pytest.approx(0.5)

    def test_n4_ratio_flags_note(self, tmp_path, capsys):
        doc = _param_doc([(1, 0), (0, 1), (1, 0), (0, 1)])
        code, payload = run_cli(tmp_path, ["rates"], doc, capsys)
        assert code == cli.EXIT_OK
        assert payload["ratios"]["cl_over_ncl"] == pytest.approx(
            math.factorial(8) / (5 * 8 ** 4), rel=1e-10
        )
        assert payload["ratios"]["cl_over_ncl"] == pytest.approx(1.96875)
        assert any("exceeds 1" in w for w in payload["warnings"])

    def test_n_cross_check(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, ["rates", "--n", "3"], HV, capsys)
        assert code == cli.EXIT_INPUT

    def test_negative_rate_flag(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, ["rates", "--c-sps", "-1"], HV, capsys)
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--c-sps", "--c-ncl", "--c-cl"])
    def test_non_finite_rate_flag(self, flag, value, tmp_path, capsys):
        # NaN or Infinity would reach stdout, which is not strict JSON
        code, _ = run_cli(tmp_path, ["rates", f"{flag}={value}"], HV)
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "finite" in line


class TestIdentityCheck:
    def test_single_pair_dicke(self, capsys):
        code = cli.main(["identity-check", "1", cli.CHECK_BALANCED])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK
        assert payload["pass"] is True
        assert payload["max_deviation"] < 1e-12

    def test_single_pair_signed(self, capsys):
        code = cli.main(["identity-check", "1", cli.CHECK_SIGNED])
        capsys.readouterr()
        assert code == cli.EXIT_OK

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_projection_symmetry(self, n, capsys):
        code = cli.main(["identity-check", str(n), cli.CHECK_PERMUTATION])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK
        assert payload["max_deviation"] < 1e-9

    @pytest.mark.parametrize("which", [cli.CHECK_BALANCED, cli.CHECK_SIGNED])
    def test_multi_pair_deviation_reported(self, which, capsys):
        # the one-per-mode state of N >= 2 pair sources is neither the claimed
        # balanced Dicke state nor the claimed signed uniform form; the check
        # reports the deviation and signals an invariant violation
        code = cli.main(["identity-check", "2", which])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_INVARIANT
        assert payload["pass"] is False
        assert payload["max_deviation"] > 0.01

    def test_guard(self, capsys):
        code = cli.main(["identity-check", "5", cli.CHECK_BALANCED])
        capsys.readouterr()
        assert code == cli.EXIT_INPUT


class TestSelfTest:
    def test_passes(self, capsys):
        code = cli.main(["--max-n", "4", "--max-n-joint", "3", "self-test"])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK
        assert payload["pass"] is True
        assert payload["failed"] == []


class TestOutputContract:
    def test_deterministic_bytes(self, tmp_path, capsys):
        _, _ = run_cli(tmp_path, ["synthesize"], GHZ3, capsys)
        first = capsys.readouterr().out if False else None
        path = tmp_path / "input.json"
        path.write_text(json.dumps(GHZ3))
        cli.main(["synthesize", str(path)])
        first = capsys.readouterr().out
        cli.main(["synthesize", str(path)])
        second = capsys.readouterr().out
        assert first == second

    def test_sorted_keys(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, ["simulate"], HV, capsys=None)
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert list(payload) == sorted(payload)

    def test_table_format(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, ["--format", "table", "classify"], HV, capsys=None)
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "class:" in out

    def test_bad_tolerance(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, ["--tol-root", "0", "classify"], HV, capsys)
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("flag", ["--tol-root", "--tol-cluster"])
    def test_nan_tolerance(self, flag, tmp_path, capsys):
        code, _ = run_cli(tmp_path, [flag, "nan", "classify"], HV, capsys)
        assert code == cli.EXIT_INPUT


NON_FINITE = ["nan", "inf", "-inf", float("nan"), float("inf"), float("-inf")]


def _with_entry(doc, value, part="re"):
    """The document with the first complex entry's ``part`` replaced by ``value``."""
    doc = json.loads(json.dumps(doc))
    if "params" in doc:
        doc["params"][0]["alpha"][part] = value
    else:
        doc["dicke_coefficients"][0][part] = value
    return doc


#: Every command that reads a state document, on each document form it takes.
EVERY_DOCUMENT_COMMAND = pytest.mark.parametrize("command,doc", [
    ("synthesize", GHZ3),
    ("classify", GHZ3),
    ("classify", HV),
    ("rates", GHZ3),
    ("rates", HV),
    ("simulate", HV),
], ids=["synthesize", "classify-coefficients", "classify-params",
        "rates-coefficients", "rates-params", "simulate"])


class TestNonFiniteInput:
    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    @EVERY_DOCUMENT_COMMAND
    def test_rejected_with_exit_2(self, command, doc, value, tmp_path, capsys):
        # the float values reach the file as the JSON literals NaN, Infinity
        # and -Infinity, which json.loads accepts
        code, _ = run_cli(tmp_path, [command], _with_entry(doc, value))
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "finite" in line

    @pytest.mark.parametrize("value", ["nan", float("inf")], ids=repr)
    def test_imaginary_part_checked(self, value, tmp_path, capsys):
        doc = json.loads(json.dumps(HV))
        doc["params"][1]["beta"]["im"] = value
        code, _ = run_cli(tmp_path, ["simulate"], doc)
        assert code == cli.EXIT_INPUT
        assert capsys.readouterr().out == ""


class TestBooleanInput:
    # float(True) is 1.0; a JSON boolean must still not pass for a number
    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("value", [True, False], ids=repr)
    @EVERY_DOCUMENT_COMMAND
    def test_rejected_with_exit_2(self, command, doc, value, part, tmp_path, capsys):
        code, _ = run_cli(tmp_path, [command], _with_entry(doc, value, part))
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "boolean" in line

    @pytest.mark.parametrize("command", ["synthesize", "classify", "rates"])
    def test_boolean_n_rejected(self, command, tmp_path, capsys):
        # N = true would pass for N = 1 with two coefficients
        doc = {"N": True, "dicke_coefficients": [{"re": 1.0}, {"re": 1.0}]}
        code, _ = run_cli(tmp_path, [command], doc)
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "'N'" in line


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def run_strict(argv, doc):
    """Run the CLI on a document passed on stdin.

    Returns (code, stdout, stderr, warnings raised).  Unlike ``run_cli`` it
    needs no pytest fixture, so Hypothesis can call it once per example.
    """
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        saved, sys.stdin = sys.stdin, stdin
        try:
            code = cli.main(list(argv) + ["-"])
        finally:
            sys.stdin = saved
    return code, out.getvalue(), err.getvalue(), caught


def assert_clean_exit(code, out, err, caught):
    """The document contract: strict JSON on exit 0, else one error line."""
    assert caught == []
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_NUMERICAL, cli.EXIT_INVARIANT)
    if code == cli.EXIT_OK:
        assert err == ""
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ")


class TestExtremeMagnitudes:
    """The coefficient form is blind to scale, up to the float limits."""

    @pytest.mark.parametrize("scale", [2.0 ** 1000, 2.0 ** -1000], ids=["2^1000", "2^-1000"])
    @pytest.mark.parametrize("command", ["synthesize", "classify", "rates"])
    def test_power_of_two_scale_keeps_bytes(self, command, scale, rng):
        c = random_coefficients(4, rng)
        _, expected, _, _ = run_strict([command], _coeff_doc(4, c))
        result = run_strict([command], _coeff_doc(4, c * scale))
        assert_clean_exit(*result)
        assert result[1] == expected

    @pytest.mark.parametrize("values", [
        [1e308, 0, 0, -1e308],
        [1e-320, 0, 0, 1e-320],
        [1e300, 1e-300, 0, 1e300],
        [1.7e308 + 1.7e308j, 0, 0, 1.7e308 - 1.7e308j],
    ], ids=["huge", "subnormal", "mixed", "huge-complex"])
    @pytest.mark.parametrize("command", ["synthesize", "classify", "rates"])
    def test_float_limits(self, command, values):
        result = run_strict([command], _coeff_doc(3, [complex(v) for v in values]))
        assert_clean_exit(*result)
        assert result[0] == cli.EXIT_OK
        if command != "rates":
            assert json.loads(result[1])["class"] == "GHZ"


#: Finite floats, the float limits and subnormals among them.
_FUZZ_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e308, -1e308, 2.2e-308, 1e-320, -5e-324, 0.0, -0.0]),
)

#: Any 're' or 'im' value: numbers, booleans, null, numeric and other strings.
_FUZZ_ANY = st.one_of(
    _FUZZ_FLOATS, st.booleans(), st.none(), st.floats().map(repr), st.text(max_size=4),
)


def _fuzz_complex(numbers):
    return st.fixed_dictionaries({}, optional={"re": numbers, "im": numbers})


@st.composite
def _fuzz_entries(draw, length):
    """Complex entries; in half the documents every entry is well formed."""
    if draw(st.booleans()):
        entry = _fuzz_complex(_FUZZ_FLOATS)
    else:
        entry = st.one_of(_fuzz_complex(_FUZZ_ANY), _FUZZ_ANY)
    return draw(st.lists(entry, min_size=length, max_size=length))


@st.composite
def _fuzz_coefficient_docs(draw):
    n = draw(st.one_of(st.integers(0, 8), st.booleans()))
    length = max(0, int(n) + 1 + draw(st.sampled_from([0, 0, 0, -1, 1])))
    return {"N": n, "dicke_coefficients": draw(_fuzz_entries(length))}


@st.composite
def _fuzz_params_docs(draw):
    n = draw(st.integers(0, 8))
    if draw(st.booleans()):
        params = []
        for _ in range(n):
            theta = draw(st.floats(0.0, math.pi))
            phi = draw(st.floats(-math.pi, math.pi))
            beta = complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)
            params.append({"alpha": {"re": math.cos(theta / 2)},
                           "beta": {"re": beta.real, "im": beta.imag}})
    else:
        values = iter(draw(_fuzz_entries(2 * n)))
        params = [{"alpha": next(values), "beta": next(values)} for _ in range(n)]
    return {"params": params}


class TestDocumentFuzz:
    @given(
        command=st.sampled_from(["synthesize", "classify", "rates", "simulate"]),
        doc=st.one_of(_fuzz_coefficient_docs(), _fuzz_params_docs()),
    )
    @settings(max_examples=300)
    def test_any_document_exits_cleanly(self, command, doc):
        assert_clean_exit(*run_strict([command], doc))


#: The synthesis entry point each command calls.
_SYNTHESIS_CALL = {"synthesize": "symphot.cli.synthesize",
                   "classify": "symphot.cli.params_from_coefficients",
                   "rates": "symphot.cli.params_from_coefficients"}


class TestNumericalFailure:
    @pytest.mark.parametrize("command", ["synthesize", "classify", "rates"])
    def test_synthesis_error_exits_3(self, command, tmp_path, monkeypatch, capsys):
        def fail(coeffs, tol):
            raise SynthesisError("round trip failed")

        monkeypatch.setattr(_SYNTHESIS_CALL[command], fail)
        code, _ = run_cli(tmp_path, [command], GHZ3)
        captured = capsys.readouterr()
        assert code == cli.EXIT_NUMERICAL
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: round trip failed"]

    @pytest.mark.parametrize("exc", [OverflowError, MemoryError])
    @pytest.mark.parametrize("command", ["synthesize", "classify", "rates"])
    def test_overflow_and_memory_exit_3(self, command, exc, tmp_path, monkeypatch, capsys):
        def fail(coeffs, tol):
            raise exc()

        monkeypatch.setattr(_SYNTHESIS_CALL[command], fail)
        code, _ = run_cli(tmp_path, [command], GHZ3)
        captured = capsys.readouterr()
        assert code == cli.EXIT_NUMERICAL
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")

    @pytest.mark.parametrize("command", ["synthesize", "classify"])
    def test_binomial_overflow_exits_3(self, command, tmp_path, capsys):
        # sqrt(C(1100, k)) of the Majorana polynomial does not fit a float
        n = 1100
        code, _ = run_cli(tmp_path, [command], _coeff_doc(n, [1] + [0] * (n - 1) + [1]))
        captured = capsys.readouterr()
        assert code == cli.EXIT_NUMERICAL
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "overflow" in line


class TestSymmetricSubspaceOnly:
    """synthesize and classify work in the (N+1)-dim Dicke basis."""

    def test_no_dense_state_built(self, tmp_path, capsys, monkeypatch, rng):
        def dense(*args, **kwargs):
            raise AssertionError("a 2^N state vector was built")

        for name in ("output_state", "QubitStateVector"):
            monkeypatch.setattr(f"symphot.symmetric.{name}", dense)
            monkeypatch.setattr(f"symphot.cli.{name}", dense)
        doc = _coeff_doc(8, random_coefficients(8, rng))
        for command in ("synthesize", "classify"):
            code, payload = run_cli(tmp_path, [command], doc, capsys)
            assert code == cli.EXIT_OK
            assert payload["degeneracy_configuration"] == [1] * 8

    def test_thirty_photon_product_state(self, tmp_path, capsys, monkeypatch, rng):
        n = 30
        params = random_params(n, rng)
        c = coefficients_from_params(params).c
        doc = _coeff_doc(n, c / np.linalg.norm(c))
        code, payload = run_cli(tmp_path, ["classify"], doc, capsys)
        assert code == cli.EXIT_OK
        assert payload["degeneracy_configuration"] == [1] * n
        code, payload = run_cli(tmp_path, ["synthesize"], doc, capsys)
        assert code == cli.EXIT_OK
        assert payload["degeneracy_configuration"] == [1] * n
        assert payload["round_trip_fidelity"] >= 1 - 1e-9
        # the single-mode product state |{N-k}_H, k_V> amplitudes are
        # proportional to the Dicke coefficients; one mode holds N+1 terms, so
        # the oracle's multi-mode enumeration guard does not apply
        printed = [PolarizationAmplitude.from_unnormalized(
            complex(p["alpha"]["re"], p["alpha"]["im"]),
            complex(p["beta"]["re"], p["beta"]["im"])) for p in payload["params"]]
        monkeypatch.setattr(oracle, "MAX_PHOTONS", n)
        fock = oracle.expand_product(oracle.product_state_factors(printed), 1)
        achieved = np.array([fock.amplitude((n - k, k)) for k in range(n + 1)])
        fidelity = abs(np.vdot(c, achieved)) / (np.linalg.norm(c) * np.linalg.norm(achieved))
        assert 1 - fidelity <= 1e-9

    @pytest.mark.parametrize("command", ["synthesize", "classify"])
    def test_degree_200_document(self, command, tmp_path, capsys):
        n = 200
        rng = np.random.default_rng(200)
        code, _ = run_cli(tmp_path, [command], _coeff_doc(n, random_coefficients(n, rng)))
        captured = capsys.readouterr()
        assert code in (cli.EXIT_OK, cli.EXIT_NUMERICAL)
        if code == cli.EXIT_OK:
            assert json.loads(captured.out)["N"] == n
            assert captured.err == ""
        else:
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("error: ")


class TestEndToEnd:
    def test_synthesize_then_simulate(self, tmp_path, capsys, rng):
        from symphot.symmetric import SymmetricCoefficients, output_state
        from symphot.symmetric import QubitStateVector

        from conftest import random_coefficients

        for n in (2, 3, 4):
            c = random_coefficients(n, rng)
            doc = _coeff_doc(n, list(c))
            code, synth = run_cli(tmp_path, ["synthesize"], doc, capsys)
            assert code == cli.EXIT_OK
            code, sim = run_cli(tmp_path, ["simulate"], {"params": synth["params"]}, capsys)
            assert code == cli.EXIT_OK
            amps = np.array([complex(a["re"], a["im"]) for a in sim["amplitudes"]])
            achieved = QubitStateVector(n, amps)
            target = output_state(SymmetricCoefficients(n, c))
            assert achieved.fidelity(target) >= 1 - 1e-8
