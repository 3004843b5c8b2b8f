import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symphot import cli, fock, multiport, schemes
from symphot.fock import PolarizationAmplitude
from symphot.multiport import build_cascade
from symphot.symmetric import SynthesisError, coefficients_from_params, hamming_weights

import oracle
from conftest import (
    clear_cli_memos,
    hamming_weight,
    perturb_round_trip,
    random_coefficients,
    random_params,
    real_params,
    render_json_walk,
)


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
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_module(args, doc):
    """Run ``python -m symphot`` on a document given on stdin."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "symphot", *args], input=json.dumps(doc),
                          capture_output=True, text=True, env=env, timeout=120)


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

    def test_param_without_alpha_beta(self):
        code, out, err, caught = run_strict(["classify"], {"params": [{"alpha": {"re": 1.0}}]})
        assert_clean_exit(code, out, err, caught)
        assert code == cli.EXIT_INPUT
        assert err.splitlines() == ["error: params[0]: expected 'alpha' and 'beta' fields"]

    def test_document_not_an_object(self):
        code, out, err, caught = run_strict(["classify"], [GHZ3])
        assert_clean_exit(code, out, err, caught)
        assert code == cli.EXIT_INPUT
        assert err.splitlines() == ["error: input document must be a JSON object"]

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

        for owner, name in ((fock, "_create"), (multiport, "postselect_one_per_mode")):
            monkeypatch.setattr(owner, name, refuse)
        n = 8
        params = [(p.alpha, p.beta) for p in random_params(n, rng)]
        code, payload = run_cli(tmp_path, ["simulate"], _param_doc(params), capsys)
        assert code == cli.EXIT_OK
        assert payload["p_output"] == float(f"{factorial(n) / n ** n:.12g}")


def _unspliced_simulate(doc) -> str:
    """The simulate stdout built the way it was before the splice: each of
    the 2^N amplitudes rounded and encoded on its own, the labels from
    ``itertools.product``, the whole document rendered in one piece."""
    warnings = []
    _, params = cli.parse_state_document(json.loads(json.dumps(doc)), warnings.append)
    n = len(params)
    amplitudes, p_o = cli.postselected_state(params)
    report = schemes.rates(n, params)
    out = {
        "N": n,
        "amplitudes": [cli._complex_doc(z) for z in amplitudes[hamming_weights(n)].tolist()],
        "basis_labels": ["".join(label) for label in itertools.product("HV", repeat=n)],
        "norm_squared": cli._sig12(report.norm_squared),
        "p_input": {name: cli._sig12(getattr(report, name).p_input)
                    for name in ("cl", "ncl", "sps")},
        "p_output": cli._sig12(p_o),
        "warnings": warnings,
    }
    return cli._render_json(out) + "\n"


def _params_doc(params):
    return _param_doc([(p.alpha, p.beta) for p in params])


class TestSimulateSplice:
    """simulate writes its 2^N entries from the N+1 distinct amplitudes, in
    blocks; the bytes are those of the whole document rendered at once."""

    @staticmethod
    def _check(doc):
        code, out, err, caught = run_strict(["simulate"], doc)
        assert (code, err, caught) == (cli.EXIT_OK, "", [])
        assert out == _unspliced_simulate(doc)
        return out

    @pytest.mark.parametrize("n", range(1, 15))
    def test_random_params(self, n, rng):
        self._check(_params_doc(random_params(n, rng)))

    @pytest.mark.parametrize("n", range(1, 15))
    def test_repeated_and_all_h_params(self, n, rng):
        (p,) = random_params(1, rng)
        self._check(_params_doc([p] * n))
        self._check(_param_doc([(1, 0)] * n))

    @pytest.mark.parametrize("n", range(1, 15))
    def test_real_params_with_signed_zeros(self, n, rng, monkeypatch):
        # the closed form gives real params +0.0 imaginary parts; make those
        # of odd weight -0.0, which the document must print apart from 0.0
        exact = multiport.postselected_state

        def signed(params):
            amplitudes, p_o = exact(params)
            amplitudes.imag = np.where(np.arange(n + 1) % 2, -0.0, amplitudes.imag)
            return amplitudes, p_o

        monkeypatch.setattr(cli, "postselected_state", signed)
        out = self._check(_params_doc(real_params(n, rng)))
        assert '"im": -0.0, ' in out and '"im": 0.0, ' in out

    @pytest.mark.parametrize("n", range(1, 9))
    def test_small_blocks(self, n, rng, monkeypatch):
        # blocks of 4 entries: every N > 2 spans several blocks
        monkeypatch.setattr(cli, "_BLOCK_QUBITS", 2)
        self._check(_params_doc(random_params(n, rng)))
        self._check(_params_doc(real_params(n, rng)))

    def test_warnings_follow_the_arrays(self, rng):
        doc = _params_doc(random_params(13, rng))
        doc["params"][0]["alpha"] = {"re": 1.00000001, "im": 0.0}
        doc["params"][0]["beta"] = {"re": 0.0, "im": 0.0}
        out = self._check(doc)
        assert json.loads(out)["warnings"] == ["params[0] renormalized (deviation 2e-08)"]

    def test_basis_labels_cached_and_immutable(self):
        labels = cli._basis_labels(4)
        assert cli._basis_labels(4) is labels
        assert cli._basis_labels.cache_info().maxsize is not None
        assert isinstance(labels, tuple)
        assert labels == cli._basis_labels.__wrapped__(4)
        assert labels[:3] == ("HHHH", "HHHV", "HHVH") and len(labels) == 16


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
    @pytest.mark.parametrize("value", ["abc", "", "nan", "-1", "inf"])
    def test_bad_tolerance_env(self, name, value, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(name, value)
        code, _ = run_cli(tmp_path, ["classify"], W_PARAMS)
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")

    @pytest.mark.parametrize("value", ["1", "1e308"])
    def test_cluster_tolerance_env_from_one(self, value, tmp_path, capsys, monkeypatch):
        # projective distances never exceed 1, so every root would merge into one cluster
        monkeypatch.setenv(cli.ENV_TOL_CLUSTER, value)
        code, _ = run_cli(tmp_path, ["classify"], GHZ3)
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

    @pytest.mark.parametrize("which", [cli.CHECK_BALANCED, cli.CHECK_SIGNED, cli.CHECK_PERMUTATION])
    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_n_below_one(self, n, which, capsys):
        code = cli.main(["identity-check", str(n), which])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_INPUT
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ")


class TestSelfTest:
    def test_passes(self, capsys):
        code = cli.main(["--max-n-joint", "3", "self-test"])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK
        assert payload["pass"] is True
        assert payload["failed"] == []

    @pytest.mark.parametrize("guard", ["0", "-3"])
    def test_runs_fixed_battery(self, guard, capsys):
        # the identity-check guard does not shrink the battery
        cli.main(["self-test"])
        full = capsys.readouterr().out
        code = cli.main(["--max-n-joint", guard, "self-test"])
        assert capsys.readouterr().out == full
        assert code == cli.EXIT_OK

    def test_failure_exits_4(self, monkeypatch, capsys):
        exact = cli.postselection_probability
        monkeypatch.setattr(cli, "postselection_probability", lambda n: exact(n) + 1e-6)
        code = cli.main(["self-test"])
        out, err = capsys.readouterr()
        payload = json.loads(out, parse_constant=_reject_constant)
        assert code == cli.EXIT_INVARIANT
        assert err == ""
        assert payload["pass"] is False
        assert payload["failed"] == ["postselection_probability"]

    def test_no_single_register_guard(self, capsys):
        # --max-n is gone, and no prefix of --max-n-joint stands in for it
        code = cli.main(["--max-n", "4", "self-test"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_INPUT
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ")


class TestSeed:
    @pytest.mark.parametrize("argv", [
        ["self-test"],
        ["identity-check", "2", cli.CHECK_PERMUTATION],
        ["identity-check", "2", cli.CHECK_BALANCED],
        ["identity-check", "2", cli.CHECK_SIGNED],
    ], ids=["self-test", "identity-check", "identity-check-dicke-2n",
            "identity-check-schmidt-signs"])
    def test_negative_seed_rejected(self, argv, capsys):
        code = cli.main(["--seed", "-1", *argv])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_INPUT
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ")


class TestOutputContract:
    def test_deterministic_bytes(self, tmp_path, capsys):
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

    def test_complex_docs_rounds_each_distinct_value_once(self):
        # 0.0 and -0.0 compare equal but print differently, in either part
        values = np.array([
            complex(0.1, 0.2), complex(0.0, -0.0), complex(-0.0, 0.0), complex(0.1, 0.2),
            complex(-0.0, -0.0), complex(0.0, 0.0), complex(0.0, -0.0), complex(1 / 3, -2 / 3),
        ])
        docs = cli._complex_docs(values)
        unrounded = [{"im": z.imag, "re": z.real} for z in values.tolist()]
        assert cli._render_json(docs) == render_json_walk(unrounded)
        assert cli._render_json(docs).count("-0.0") == 5

    @pytest.mark.parametrize("argv", [
        [],
        ["--max-n", "4", "self-test"],
        ["--seed", "x", "self-test"],
        ["identity-check", "2", "nope"],
        ["rates", "--c-n", "2", "-"],
        ["--format", "table", "classify", "-"],
        ["self-test", "a\nb"],
    ], ids=["no-subcommand", "unknown-flag", "bad-int", "bad-choice", "flag-prefix",
            "format-removed", "newline-in-argument"])
    def test_argv_error_is_one_line(self, argv, monkeypatch, capsys):
        # a valid document on stdin, so only the arguments can be at fault
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(HV)))
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == cli.EXIT_INPUT
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ")

    def test_argv_error_through_module(self):
        proc = run_module(["rates", "--c-n", "2", "-"], HV)
        assert proc.returncode == cli.EXIT_INPUT
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: ")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: symphot")

    def test_bad_tolerance(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, ["--tol-root", "0", "classify"], HV, capsys)
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("flag", ["--tol-root", "--tol-cluster"])
    def test_nan_tolerance(self, flag, tmp_path, capsys):
        # a cluster tolerance from 1 up would merge every root of GHZ_3 into one
        values = ["nan", "inf"] + (["1", "1e308"] if flag == "--tol-cluster" else [])
        for value in values:
            code, _ = run_cli(tmp_path, [flag, value, "classify"], GHZ3)
            captured = capsys.readouterr()
            assert code == cli.EXIT_INPUT
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("error: ")


class TestParseMemo:
    """Each distinct argv is parsed once per process; nothing else of the
    command line is kept."""

    @staticmethod
    def _one_error_line(capsys):
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ")

    def test_env_tolerance_read_after_memo_hit(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(W_PARAMS))
        argv = ["classify", str(path)]
        monkeypatch.setenv(cli.ENV_TOL_CLUSTER, "1e-3")
        assert cli.main(argv) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["class"] == "W"
        monkeypatch.setenv(cli.ENV_TOL_CLUSTER, "x")
        assert cli.main(argv) == cli.EXIT_INPUT
        self._one_error_line(capsys)
        assert cli._parsed.cache_info().hits == 1

    def test_tolerances_do_not_leak_between_calls(self, monkeypatch, capsys):
        # main writes the resolved tolerances into its namespace; the next
        # call must see its own defaults, not the previous call's flags
        seen = []
        synthesize = cli.synthesize
        classify_params = cli.slocc.classify_params

        def spy_root(coeffs, tol):
            seen.append(("root", tol))
            return synthesize(coeffs, tol=tol)

        def spy_cluster(params, tol):
            seen.append(("cluster", tol))
            return classify_params(params, tol=tol)

        monkeypatch.setattr(cli, "synthesize", spy_root)
        monkeypatch.setattr(cli.slocc, "classify_params", spy_cluster)
        monkeypatch.delenv(cli.ENV_TOL_ROOT, raising=False)
        monkeypatch.delenv(cli.ENV_TOL_CLUSTER, raising=False)
        root, cluster = cli.SYNTHESIS_TOL, cli.slocc.CLUSTER_TOL
        for argv, expected in (
            (["--tol-root", "1e-3", "classify", "-"], [("root", 1e-3), ("cluster", cluster)]),
            (["classify", "-"], [("root", root), ("cluster", cluster)]),
            (["--tol-cluster", "1e-3", "classify", "-"], [("root", root), ("cluster", 1e-3)]),
            (["--tol-root", "1e-3", "classify", "-"], [("root", 1e-3), ("cluster", cluster)]),
            (["classify", "-"], [("root", root), ("cluster", cluster)]),
        ):
            seen.clear()
            # every call synthesizes, so the spy sees each call's tolerance
            cli._synthesis.cache_clear()
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(GHZ3)))
            assert cli.main(argv) == cli.EXIT_OK
            assert json.loads(capsys.readouterr().out)["class"] == "GHZ"
            assert seen == expected
        assert cli._parsed.cache_info().hits == 2

    @pytest.mark.parametrize("argv", [
        ["--max-n", "4", "self-test"],
        ["identity-check", "2", "nope"],
    ], ids=["unknown-flag", "bad-choice"])
    def test_argv_error_repeats(self, argv, capsys):
        for _ in range(2):
            assert cli.main(argv) == cli.EXIT_INPUT
            self._one_error_line(capsys)
        assert cli._parsed.cache_info().currsize == 0

    def test_help_repeats(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("usage: symphot")
        assert cli._parsed.cache_info().currsize == 0

    def test_sys_argv_is_the_same_key(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(GHZ3))
        monkeypatch.setattr("sys.argv", ["symphot", "classify", str(path)])
        assert cli.main() == cli.EXIT_OK
        first = capsys.readouterr().out
        assert cli.main(sys.argv[1:]) == cli.EXIT_OK
        assert capsys.readouterr().out == first
        info = cli._parsed.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestDocumentMemo:
    """The last document's parse and synthesis are kept, keyed on its text and
    the root tolerance; the document, the environment and the cluster
    tolerance are still read on every call, and errors repeat."""

    @pytest.fixture
    def synth_calls(self, monkeypatch):
        calls = []
        synthesize = cli.synthesize

        def spy(coeffs, tol):
            calls.append(tol)
            return synthesize(coeffs, tol=tol)

        monkeypatch.setattr(cli, "synthesize", spy)
        return calls

    @staticmethod
    def _run(argv, doc):
        code, out, err, caught = run_strict(argv, doc)
        assert_clean_exit(code, out, err, caught)
        return code, out, err

    def test_synthesize_then_classify_synthesizes_once(self, synth_calls):
        warm = [self._run([command], GHZ3) for command in ("synthesize", "classify", "rates")]
        assert synth_calls == [cli.SYNTHESIS_TOL]
        for command, result in zip(("synthesize", "classify", "rates"), warm):
            clear_cli_memos()
            assert self._run([command], GHZ3) == result
        assert len(synth_calls) == 4

    def test_root_tolerance_is_part_of_the_key(self, synth_calls, monkeypatch):
        monkeypatch.delenv(cli.ENV_TOL_ROOT, raising=False)
        self._run(["classify"], GHZ3)
        self._run(["--tol-root", "1e-6", "classify"], GHZ3)
        monkeypatch.setenv(cli.ENV_TOL_ROOT, "1e-7")
        self._run(["classify"], GHZ3)
        self._run(["synthesize"], GHZ3)
        assert synth_calls == [cli.SYNTHESIS_TOL, 1e-6, 1e-7]
        # the cluster tolerance is not part of the key
        self._run(["--tol-cluster", "1e-3", "classify"], GHZ3)
        assert len(synth_calls) == 3

    def test_only_the_last_document_is_kept(self, synth_calls):
        for doc in (GHZ3, W3, GHZ3):
            self._run(["classify"], doc)
        assert len(synth_calls) == 3

    @pytest.mark.parametrize("command", ["synthesize", "classify", "rates"])
    def test_failed_round_trip_repeats(self, command, monkeypatch):
        perturb_round_trip(monkeypatch)
        for _ in range(2):
            code, _, err = self._run([command], GHZ3)
            assert code == cli.EXIT_NUMERICAL
            assert err.startswith("error: synthesis round trip failed: residual ")
        assert cli._synthesis.cache_info().currsize == 0

    @pytest.mark.parametrize("command", ["synthesize", "classify", "rates"])
    def test_malformed_document_repeats(self, command):
        doc = {"N": 3, "dicke_coefficients": [{"re": 1.0}]}
        for _ in range(2):
            code, _, err = self._run([command], doc)
            assert code == cli.EXIT_INPUT
            assert err == "error: 'dicke_coefficients' must hold 4 entries\n"
        assert cli._parsed_document.cache_info().currsize == 0

    def test_rates_warning_stays_with_rates(self):
        doc = _coeff_doc(4, [0, 1, 0, 0, 0])
        for command in ("rates", "rates", "classify"):
            _, out, _ = self._run([command], doc)
            warnings = json.loads(out)["warnings"]
            if command == "rates":
                assert len(warnings) == 1 and "exceeds 1" in warnings[0]
            else:
                assert warnings == []
        assert cli._parsed_document.cache_info().misses == 1

    def test_renormalized_params_warn_on_every_command(self):
        doc = _param_doc([(math.sqrt(1 + 1e-8), 0), (0, 1), (1, 0), (0, 1)])
        for command in ("simulate", "rates", "classify"):
            _, out, _ = self._run([command], doc)
            warnings = json.loads(out)["warnings"]
            assert warnings[0] == "params[0] renormalized (deviation 1e-08)"
            assert len(warnings) == (2 if command == "rates" else 1)
        assert cli._parsed_document.cache_info().misses == 1

    def test_cached_arrays_are_read_only(self):
        self._run(["synthesize"], GHZ3)
        self._run(["classify"], HV)
        text = json.dumps(GHZ3)
        kind, coeffs, _ = cli._parsed_document(text)
        assert kind == "coefficients" and not coeffs.c.flags.writeable
        assert not cli._synthesis(text, cli.SYNTHESIS_TOL).roots.flags.writeable
        kind, params, _ = cli._parsed_document(json.dumps(HV))
        assert kind == "params" and isinstance(params, tuple)


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
                   "classify": "symphot.cli.synthesize",
                   "rates": "symphot.cli.synthesize"}

#: Each command's main numerical call and a document that reaches it.
_NUMERICAL_CALL = {**{command: (call, GHZ3) for command, call in _SYNTHESIS_CALL.items()},
                   "simulate": ("symphot.cli.postselected_state", HV)}


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

    @pytest.mark.parametrize("command", ["synthesize", "classify"])
    def test_failed_round_trip_exits_3(self, command, monkeypatch):
        # the real guard in symmetric.synthesize, not a faked exception
        perturb_round_trip(monkeypatch)
        code, out, err, caught = run_strict([command], GHZ3)
        assert_clean_exit(code, out, err, caught)
        assert code == cli.EXIT_NUMERICAL
        (line,) = err.splitlines()
        assert line.startswith("error: synthesis round trip failed: residual ")

    @pytest.mark.parametrize("exc", [OverflowError, MemoryError, FloatingPointError])
    @pytest.mark.parametrize("command", ["synthesize", "classify", "rates", "simulate"])
    def test_overflow_and_memory_exit_3(self, command, exc, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise exc()

        call, doc = _NUMERICAL_CALL[command]
        monkeypatch.setattr(call, fail)
        code, _ = run_cli(tmp_path, [command], doc)
        captured = capsys.readouterr()
        assert code == cli.EXIT_NUMERICAL
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")

    @pytest.mark.parametrize("exc", [FloatingPointError, MemoryError])
    @pytest.mark.parametrize("call", ["symphot.cli.postselected_state", "symphot.schemes.rates",
                                      "symphot.cli._complex_docs", "symphot.cli.hamming_weights",
                                      "symphot.cli._basis_labels"])
    def test_simulate_fails_before_its_first_byte(self, call, exc, rng, monkeypatch):
        # every step of simulate that computes runs before the document is
        # written, at N = 13 in two blocks as at N = 3 in one
        def fail(*args, **kwargs):
            raise exc()

        monkeypatch.setattr(call, fail)
        for n in (3, 13):
            code, out, err, caught = run_strict(["simulate"], _params_doc(random_params(n, rng)))
            assert_clean_exit(code, out, err, caught)
            assert code == cli.EXIT_NUMERICAL

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


class TestLargeNThroughModule:
    """Through ``python -m symphot``, where pytest's RuntimeWarning filter does
    not reach: a large document exits 0 with an empty stderr, or exits 3 with
    exactly one ``error:`` line and no numpy warning before it."""

    @pytest.mark.parametrize("n", (100, 106, 150, 171, 200, 1000))
    @pytest.mark.parametrize("command", ["synthesize", "classify", "rates"])
    def test_exit_0_or_one_error_line(self, command, n):
        rng = np.random.default_rng(n)
        if command == "rates":
            doc = _param_doc([(p.alpha, p.beta) for p in random_params(n, rng)])
        else:
            doc = _coeff_doc(n, random_coefficients(n, rng))
        proc = run_module([command, "-"], doc)
        assert proc.returncode in (cli.EXIT_OK, cli.EXIT_NUMERICAL)
        if proc.returncode == cli.EXIT_OK:
            assert json.loads(proc.stdout)["N"] == n
            assert proc.stderr == ""
        else:
            assert proc.stdout == ""
            (line,) = proc.stderr.splitlines()
            assert line.startswith("error: ")


class TestLargeNSynthesis:
    """Gaussian Dicke coefficients through ``python -m symphot synthesize`` at
    the default tolerance.  The degree cutoff is judged on |c_k|, so real
    leading coefficients are not cut at N = 100, 150 and 200."""

    @pytest.mark.parametrize("n", (100, 150, 200))
    def test_exit_0(self, n):
        doc = _coeff_doc(n, random_coefficients(n, np.random.default_rng(n)))
        proc = run_module(["synthesize", "-"], doc)
        assert proc.stderr == ""
        assert proc.returncode == cli.EXIT_OK
        payload = json.loads(proc.stdout)
        assert payload["N"] == n
        assert payload["round_trip_fidelity"] >= 1 - 1e-9


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
