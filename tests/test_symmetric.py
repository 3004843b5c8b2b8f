import json
import os
import subprocess
import sys
from math import comb, factorial, sqrt
from pathlib import Path

import numpy as np
import pytest

from symphot.fock import FockVector, PolarizationAmplitude, product_state
from symphot.symmetric import (
    DEGREE_TOL,
    SYNTHESIS_TOL,
    MajoranaPolynomial,
    QubitStateVector,
    SymmetricCoefficients,
    SynthesisError,
    _expansion_weights,
    _majorana_weights,
    _product_polynomial,
    _sqrt_binomials,
    amplitudes_by_weight,
    coefficients_from_params,
    dicke_state,
    hamming_weights,
    majorana_polynomial,
    normalization_squared,
    output_state,
    params_from_coefficients,
    project_qubits,
    scaled_coefficients_from_params,
    synthesize,
)

import oracle
from conftest import (
    hamming_weight,
    numpy_complex_multiply_matches_python,
    partitions,
    perturb_round_trip,
    product_polynomial_numpy,
    random_coefficients,
    random_params,
    real_params,
)

HPOL = PolarizationAmplitude.horizontal()
VPOL = PolarizationAmplitude.vertical()


def test_sqrt_binomials_match_math_sqrt_comb():
    # bit for bit: every Dicke-basis conversion reads these scales; the exact
    # C(n,k) come from Pascal's rule, which is faster than one comb per entry
    row = [1]
    for n in range(1, 1001):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
        want = np.array([sqrt(c) for c in row])
        assert _sqrt_binomials(n).tobytes() == want.tobytes()
    assert row == [comb(1000, k) for k in range(1001)]


class TestDickeState:
    def test_two_qubit(self):
        d = dicke_state(2, 1)
        assert d.amplitudes[0b01] == pytest.approx(1 / sqrt(2))
        assert d.amplitudes[0b10] == pytest.approx(1 / sqrt(2))
        assert d.amplitudes[0b00] == d.amplitudes[0b11] == 0

    def test_three_qubit_single_excitation(self):
        d = dicke_state(3, 1)
        for idx in (0b001, 0b010, 0b100):
            assert d.amplitudes[idx] == pytest.approx(1 / sqrt(3))

    def test_zero_excitation(self):
        d = dicke_state(3, 0)
        assert d.amplitudes[0] == pytest.approx(1.0)
        assert np.count_nonzero(d.amplitudes) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            dicke_state(3, 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_orthonormal_family(self, n):
        states = [dicke_state(n, k).amplitudes for k in range(n + 1)]
        gram = np.array([[np.vdot(a, b) for b in states] for a in states])
        assert np.max(np.abs(gram - np.eye(n + 1))) < 1e-12


def _mixed_params(n, rng, draw):
    """N photons in random order, each |H>, |V> or one photon from ``draw(1, rng)``."""
    return [draw(1, rng)[0] if i == 2 else (HPOL, VPOL)[i] for i in rng.integers(3, size=n)]


class TestProductPolynomial:
    """The scalar recursion against ``conftest.product_polynomial_numpy``."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_real_params_byte_equal(self, n, rng):
        # real factors leave FMA nothing to fuse, so the bytes, signed zeros
        # included, match under either numpy dispatch
        for _ in range(5):
            params = _mixed_params(n, rng, real_params)
            assert _product_polynomial(params).tobytes() == product_polynomial_numpy(params).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 40, 100, 200])
    def test_complex_params_within_rounding(self, n, rng):
        # byte-equal where numpy's complex multiply rounds as Python's does;
        # under its FMA dispatch, within 2N ulps of the modulus recursion m_k
        exact = numpy_complex_multiply_matches_python()
        for _ in range(3):
            params = _mixed_params(n, rng, random_params)
            got, want = _product_polynomial(params), product_polynomial_numpy(params)
            m = product_polynomial_numpy(
                [PolarizationAmplitude(abs(p.alpha), abs(p.beta)) for p in params]).real
            assert np.all(abs(got - want) <= 2 * n * np.finfo(float).eps * m)
            if exact:
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_tuple_sum(self, n, rng):
        params = _mixed_params(n, rng, random_params)
        c = coefficients_from_params(params).c
        # the oracle sums N! tuples in mpmath per k: every k to N = 7, the middle one at 8
        for k in range(n + 1) if n < 8 else [n // 2]:
            want = complex(oracle.tuple_sum_ck(params, k))
            assert c[k] == pytest.approx(want, abs=1e-12 * abs(c).max())

    def test_empty(self):
        with pytest.raises(ValueError):
            _product_polynomial([])


class TestCoefficients:
    def test_orthogonal_pair(self):
        c = coefficients_from_params([HPOL, VPOL]).c
        assert np.allclose(c, [0, sqrt(2), 0])

    def test_identical_pair(self):
        c = coefficients_from_params([HPOL, HPOL]).c
        assert np.allclose(c, [2, 0, 0])
        assert np.sum(np.abs(c) ** 2) / 2 == pytest.approx(2.0)

    def test_w_configuration(self):
        c = coefficients_from_params([VPOL, HPOL, HPOL]).c
        assert abs(c[1]) > 0
        assert np.allclose(np.delete(c, 1), 0)

    def test_empty(self):
        with pytest.raises(ValueError):
            coefficients_from_params([])

    def test_matches_fock_expansion(self, rng):
        # c_k determines the product-state amplitude on |{N-k}_H, k_V>
        for n in range(1, 6):
            params = random_params(n, rng)
            coeffs = coefficients_from_params(params)
            direct = product_state(params)
            rebuilt = {}
            for k in range(n + 1):
                amp = coeffs.c[k] * sqrt(comb(n, k)) * sqrt(
                    factorial(k) * factorial(n - k)
                ) / factorial(n)
                rebuilt[(n - k, k)] = amp
            expected = FockVector(1, rebuilt)
            for key, amp in direct.items():
                assert expected.amplitude(key) == pytest.approx(amp, abs=1e-10)


def _normalization_bits():
    """``normalization_squared`` of 300 seeded random params at N = 1..30, as hex."""
    rng = np.random.default_rng(900)
    return [normalization_squared(random_params(n, rng)).hex()
            for n in range(1, 31) for _ in range(10)]


#: The child process of ``test_bits_independent_of_cpu_dispatch``.
_NORMALIZATION_BITS = """
import json
from conftest import numpy_complex_multiply_matches_python
from test_symmetric import _normalization_bits
print(json.dumps({"probe": numpy_complex_multiply_matches_python(), "bits": _normalization_bits()}))
"""


class TestNormalization:
    def test_identical_triple(self):
        assert normalization_squared([HPOL] * 3) == pytest.approx(6.0)

    def test_orthogonal_pair(self):
        assert normalization_squared([HPOL, VPOL]) == pytest.approx(1.0)

    def test_diagonal_mix(self):
        diag = PolarizationAmplitude(1 / sqrt(2), 1 / sqrt(2))
        assert normalization_squared([HPOL, diag]) == pytest.approx(1.5)

    def test_bits_independent_of_cpu_dispatch(self):
        # squares of the (re, im) parts, not complex abs: no hypot, so the bits
        # are the same with numpy's X86_V3/X86_V4 kernels turned off
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4",
                   PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
        child = subprocess.run([sys.executable, "-c", _NORMALIZATION_BITS], env=env,
                               capture_output=True, text=True, timeout=120, check=True)
        got = json.loads(child.stdout)
        if not got["probe"]:
            pytest.skip("NPY_DISABLE_CPU_FEATURES left numpy's FMA dispatch on")
        assert got["bits"] == _normalization_bits()

    def test_matches_product_state_norm(self, rng):
        # the closed form vs the explicit ladder expansion
        for n in range(2, 7):
            for _ in range(200):
                params = random_params(n, rng)
                assert normalization_squared(params) == pytest.approx(
                    product_state(params).norm_squared(), abs=1e-10
                )

    @pytest.mark.parametrize("n", range(1, 31))
    def test_equals_sum_over_coefficients(self, n, rng):
        # normalization_squared skips SymmetricCoefficients; the bits stay those of c_k
        p, q = random_params(2, rng)
        h_and_v = [(HPOL, VPOL)[i] for i in rng.integers(2, size=n)]
        for params in (random_params(n, rng), h_and_v,
                       [p] * n, [p] * (n // 2) + [q] * (n - n // 2), [HPOL] * n, [VPOL] * n):
            c = coefficients_from_params(params).c
            want = float(np.square(c.view(float)).sum() / factorial(n))
            assert normalization_squared(params).hex() == want.hex()


class TestScaledCoefficients:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_expansion_over_n_factorial(self, n, rng):
        for params in (random_params(n, rng), [random_params(1, rng)[0]] * n, [HPOL] * n):
            scaled = scaled_coefficients_from_params(params).c
            full = coefficients_from_params(params).c
            assert np.max(np.abs(scaled * factorial(n) - full)) <= 1e-14 * np.max(np.abs(full))

    def test_finite_past_factorial_overflow(self, rng):
        # 200! does not fit a float; the scaled expansion never forms it
        params = random_params(200, rng)
        coeffs = scaled_coefficients_from_params(params)
        assert np.all(np.isfinite(coeffs.c))
        assert coeffs.fidelity(coeffs) == pytest.approx(1.0, abs=1e-14)


def _dicke_vector(c):
    return SymmetricCoefficients(len(c) - 1, np.asarray(c, dtype=complex))


class TestCoefficientFidelity:
    """SymmetricCoefficients.fidelity against the dense 2^N output states."""

    @staticmethod
    def _dense(a, b):
        return output_state(a).fidelity(output_state(b))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_random_pairs_match_dense(self, n, rng):
        for _ in range(3):
            a = _dicke_vector(random_coefficients(n, rng))
            b = _dicke_vector(random_coefficients(n, rng) * complex(*rng.normal(size=2)))
            assert abs(a.fidelity(b) - self._dense(a, b)) <= 1e-14
            # a state against a rescaled, rephased copy of itself
            c = _dicke_vector(a.c * 3.7e-5 * np.exp(0.9j))
            assert abs(a.fidelity(c) - self._dense(a, c)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 4, 9, 12])
    def test_degenerate_and_zero_leading_match_dense(self, n, rng):
        ghz = np.zeros(n + 1)
        ghz[0] = ghz[n] = 1.0
        w = np.zeros(n + 1)
        w[1] = 1.0
        all_v = np.zeros(n + 1)
        all_v[n] = 1.0
        zero_leading = random_coefficients(n, rng)
        zero_leading[: (n + 1) // 2] = 0.0
        repeated = coefficients_from_params([random_params(1, rng)[0]] * n).c
        vectors = [ghz, w, all_v, zero_leading, repeated]
        for x in vectors:
            for y in vectors:
                a, b = _dicke_vector(x), _dicke_vector(y)
                assert abs(a.fidelity(b) - self._dense(a, b)) <= 1e-14

    def test_orthogonal_and_identical(self):
        a = _dicke_vector([1, 0, 0, 0])
        assert a.fidelity(_dicke_vector([0, 0, 2j, 0])) == 0.0
        assert a.fidelity(_dicke_vector([-5, 0, 0, 0])) == pytest.approx(1.0, abs=1e-15)

    def test_photon_number_mismatch(self):
        with pytest.raises(ValueError):
            _dicke_vector([1, 0]).fidelity(_dicke_vector([1, 0, 0]))

    def test_tiny_vector_does_not_underflow(self, rng):
        # squared, 1e-200 underflows to 0; without the divide-by-max this is 0/0
        a = _dicke_vector(1e-200 * random_coefficients(3, rng))
        assert a.fidelity(a) == pytest.approx(1.0, abs=1e-15)


class TestOutputState:
    def test_all_horizontal(self):
        out = output_state(SymmetricCoefficients(3, np.array([1, 0, 0, 0], complex)))
        assert out.amplitudes[0] == pytest.approx(1.0)

    def test_ghz(self):
        c = np.array([1, 0, 0, 1], complex) / sqrt(2)
        out = output_state(SymmetricCoefficients(3, c))
        assert out.amplitudes[0b000] == pytest.approx(1 / sqrt(2))
        assert out.amplitudes[0b111] == pytest.approx(1 / sqrt(2))

    def test_chains_with_coefficients(self):
        out = output_state(coefficients_from_params([HPOL, VPOL]))
        assert out.amplitudes[0b01] == pytest.approx(1 / sqrt(2))
        assert out.amplitudes[0b10] == pytest.approx(1 / sqrt(2))

    def test_permutation_symmetric(self, rng):
        n = 4
        out = output_state(SymmetricCoefficients(n, random_coefficients(n, rng)))
        for idx in range(2 ** n):
            # all strings of equal weight share one amplitude
            ref = out.amplitudes[(1 << hamming_weight(idx)) - 1]
            assert out.amplitudes[idx] == pytest.approx(ref)


class TestAmplitudesByWeight:
    """The N+1 amplitudes against the 2^N-vector formula, rebuilt here, bit for bit."""

    @staticmethod
    def _dense_reference(coeffs):
        n = coeffs.n
        per_string = coeffs.c / np.sqrt([float(comb(n, k)) for k in range(n + 1)])
        return QubitStateVector(n, per_string[hamming_weights(n)]).normalized()

    @staticmethod
    def _cases(n, rng):
        real = np.empty(n + 1, dtype=complex)
        real.real = rng.normal(size=n + 1)
        # signed zeros: -0.0 on the odd entries, +0.0 on the even ones
        real.imag = np.where(np.arange(n + 1) % 2, -0.0, 0.0)
        (p,) = random_params(1, rng)
        return (random_coefficients(n, rng), real, scaled_coefficients_from_params([p] * n).c)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_matches_dense_normalization(self, n, rng):
        for c in self._cases(n, rng):
            for scale in (1.0, 2.0 ** 500, 2.0 ** -500):
                # scaled through the float view, which keeps the signed zeros
                coeffs = SymmetricCoefficients(n, (scale * c.view(float)).view(complex))
                want = self._dense_reference(coeffs).amplitudes.tobytes()
                got = amplitudes_by_weight(coeffs)
                assert got.shape == (n + 1,)
                assert got[hamming_weights(n)].tobytes() == want
                assert output_state(coeffs).amplitudes.tobytes() == want

    def test_underflowing_norm_rejected(self):
        coeffs = SymmetricCoefficients(2, np.array([1e-300, 0, 0], dtype=complex))
        with pytest.raises(ValueError, match="zero state"):
            self._dense_reference(coeffs)
        with pytest.raises(ValueError, match="zero state"):
            amplitudes_by_weight(coeffs)


@pytest.mark.parametrize("n", range(0, 11))
def test_hamming_weight_table(n):
    assert hamming_weights(n).tolist() == [hamming_weight(i) for i in range(2 ** n)]


@pytest.mark.parametrize("table, n", [
    (_sqrt_binomials, 40), (hamming_weights, 10), (_majorana_weights, 40),
    (_expansion_weights, 40), (_expansion_weights, 170),
])
def test_per_n_tables_cached_and_read_only(table, n):
    got = table(n)
    assert table(n) is got
    assert table.cache_info().maxsize is not None
    with pytest.raises(ValueError):
        got[0] = 0
    fresh = table.__wrapped__(n)
    assert fresh is not got
    assert (got.dtype, got.tobytes()) == (fresh.dtype, fresh.tobytes())


class TestMajoranaPolynomial:
    def test_ghz_roots_are_cube_roots_of_unity(self):
        c = np.array([1, 0, 0, 1], complex) / sqrt(2)
        poly = majorana_polynomial(SymmetricCoefficients(3, c))
        roots = np.sort_complex(poly.roots())
        expected = np.sort_complex(np.exp(2j * np.pi * np.arange(3) / 3))
        assert np.max(np.abs(roots - expected)) < 1e-9

    def test_w_state_single_zero_root(self):
        poly = majorana_polynomial(SymmetricCoefficients(3, np.array([0, 1, 0, 0], complex)))
        assert poly.degree == 1
        assert abs(poly.coefficients[1] + sqrt(3)) < 1e-12
        assert np.allclose(poly.roots(), [0])

    def test_constant_polynomial(self):
        poly = majorana_polynomial(SymmetricCoefficients(3, np.array([1, 0, 0, 0], complex)))
        assert poly.degree == 0
        assert poly.roots().size == 0

    def test_root_set_scale_invariant(self, rng):
        for n in (2, 3, 4):
            c = random_coefficients(n, rng)
            r1 = np.sort_complex(majorana_polynomial(SymmetricCoefficients(n, c)).roots())
            r2 = np.sort_complex(
                majorana_polynomial(SymmetricCoefficients(n, (2.5 - 1.3j) * c)).roots()
            )
            assert np.max(np.abs(r1 - r2)) < 1e-9


def _partition_coefficients(partition, rng):
    """Product of distinct random polarizations with the given multiplicities."""
    params = [p for m in partition for p in random_params(1, rng) * m]
    return coefficients_from_params(params)


def _assert_roots_match_np(poly):
    k = poly.degree
    want = np.roots(poly.coefficients[: k + 1][::-1]).astype(complex)
    got = poly.roots()
    assert got.dtype == want.dtype == complex
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _random_polynomial(n, rng):
    return MajoranaPolynomial(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))


class TestCompanionEigensolve:
    """``roots`` builds the companion matrix of ``np.roots``: the same roots, bit for bit."""

    def test_random(self, rng):
        for n in range(1, 41):
            for _ in range(5):
                _assert_roots_match_np(_random_polynomial(n, rng))

    def test_random_states(self, rng):
        for n in range(1, 41):
            for _ in range(5):
                coeffs = SymmetricCoefficients(n, random_coefficients(n, rng))
                _assert_roots_match_np(majorana_polynomial(coeffs))

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 40])
    def test_roots_at_zero(self, n, rng):
        # p_0 = p_1 = 0: two exact roots at 0 after the eigenvalues
        p = _random_polynomial(n, rng).coefficients
        p[:2] = 0
        _assert_roots_match_np(MajoranaPolynomial(p))
        # only p_N left: every root is an exact zero and no eigensolve runs
        _assert_roots_match_np(MajoranaPolynomial(np.eye(n + 1)[n]))

    @pytest.mark.parametrize("n", [2, 3, 6, 12])
    def test_degree_drop(self, n, rng):
        for drop in (0.0, DEGREE_TOL * 1e-3):
            p = _random_polynomial(n, rng).coefficients
            p[-2:] *= drop
            poly = MajoranaPolynomial(p)
            assert poly.degree == n - 2
            _assert_roots_match_np(poly)

    def test_degree_one(self, rng):
        for n in (1, 2, 5):
            p = np.zeros(n + 1, dtype=complex)
            p[:2] = rng.normal(size=2) + 1j * rng.normal(size=2)
            poly = MajoranaPolynomial(p)
            assert poly.degree == 1
            _assert_roots_match_np(poly)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_repeated_roots(self, n, rng):
        for partition in partitions(n):
            _assert_roots_match_np(majorana_polynomial(_partition_coefficients(partition, rng)))

    @pytest.mark.parametrize("partition", [
        (2,), (3,), (2, 1), (3, 1), (2, 2), (4, 2, 1, 1), (5, 3), (6, 1, 1),
        (6, 6), (6, 5, 4), (3, 3, 3, 1), (2, 2, 2, 2, 2),
    ], ids=lambda partition: "-".join(map(str, partition)))
    def test_repeated_root_partitions(self, partition, rng):
        for _ in range(5):
            _assert_roots_match_np(majorana_polynomial(_partition_coefficients(partition, rng)))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_dicke_roots_at_zero(self, n):
        # W_N has one root at 0; D_N^k has k; a V photon adds one
        for k in range(1, n + 1):
            _assert_roots_match_np(majorana_polynomial(SymmetricCoefficients(n, np.eye(n + 1)[k])))
        _assert_roots_match_np(majorana_polynomial(coefficients_from_params([VPOL, VPOL] + [HPOL] * n)))

    @pytest.mark.parametrize("n", [2, 3, 10, 50, 100, 140])
    def test_ghz(self, n):
        c = np.zeros(n + 1)
        c[0] = c[n] = 1 / sqrt(2)
        _assert_roots_match_np(majorana_polynomial(SymmetricCoefficients(n, c)))


class TestSynthesizeRecord:
    def test_fields(self, rng):
        for n in (1, 3, 7):
            coeffs = SymmetricCoefficients(n, 3.0 * random_coefficients(n, rng))
            result = synthesize(coeffs)
            unit = SymmetricCoefficients(n, coeffs.c / np.linalg.norm(coeffs.c))
            assert result.roots.tobytes() == majorana_polynomial(unit).roots().tobytes()
            for z, p in zip(result.roots, result.params):
                scale = sqrt(1.0 + abs(z) ** 2)
                assert (p.alpha, p.beta) == (z / scale, 1.0 / scale)
            assert result.fidelity == unit.fidelity(
                scaled_coefficients_from_params(result.params))
            assert params_from_coefficients(coeffs) == list(result.params)

    def test_degree_deficit_is_horizontal(self):
        result = synthesize(SymmetricCoefficients(3, np.array([0, 1, 0, 0], complex)))
        assert len(result.roots) == 1
        assert result.params[1:] == (HPOL, HPOL)

    @pytest.mark.parametrize("eps, degree", [(1e-11, 4), (1e-13, 3)])
    def test_degree_cutoff(self, eps, degree):
        # a leading |c_N| counts as zero below DEGREE_TOL = 1e-12 of the largest
        result = synthesize(SymmetricCoefficients(4, np.array([1, 0.5, 0.3, 0.2, eps], complex)))
        assert len(result.roots) == degree


class TestRoundTripGuard:
    def test_failed_round_trip_raises(self, monkeypatch, rng):
        perturb_round_trip(monkeypatch)
        for n in (1, 3, 7):
            with pytest.raises(SynthesisError, match="synthesis round trip failed") as info:
                synthesize(SymmetricCoefficients(n, random_coefficients(n, rng)))
            assert info.value.residual > SYNTHESIS_TOL


class TestSynthesis:
    def test_w_state(self):
        params = params_from_coefficients(
            SymmetricCoefficients(3, np.array([0, 1, 0, 0], complex))
        )
        overlaps = sorted(abs(p.overlap(VPOL)) for p in params)
        assert overlaps == pytest.approx([0, 0, 1], abs=1e-9)

    def test_ghz_distinct_ratios(self):
        c = np.array([1, 0, 0, 1], complex) / sqrt(2)
        params = params_from_coefficients(SymmetricCoefficients(3, c))
        ratios = sorted(
            np.angle(p.alpha / p.beta) for p in params
        )
        assert np.allclose(ratios, [-2 * np.pi / 3, 0, 2 * np.pi / 3], atol=1e-8)

    def test_all_vertical(self):
        n = 4
        c = np.zeros(n + 1, complex)
        c[n] = 1.0
        params = params_from_coefficients(SymmetricCoefficients(n, c))
        for p in params:
            assert abs(p.beta) == pytest.approx(1.0)

    def test_phase_convention(self, rng):
        for n in (2, 3, 4):
            params = params_from_coefficients(
                SymmetricCoefficients(n, random_coefficients(n, rng))
            )
            for p in params:
                if abs(p.beta) > 0:
                    assert p.beta.imag == pytest.approx(0.0, abs=1e-15)
                    assert p.beta.real >= 0
                else:
                    assert p.alpha == pytest.approx(1.0)

    def test_round_trip_fidelity(self, rng):
        for n in range(2, 7):
            for _ in range(20):
                coeffs = SymmetricCoefficients(n, random_coefficients(n, rng))
                params = params_from_coefficients(coeffs)
                achieved = output_state(coefficients_from_params(params))
                assert output_state(coeffs).fidelity(achieved) >= 1 - 1e-9

    def test_params_round_trip_recovers_multiset(self, rng):
        # params -> coeffs -> params gives the same states up to phases
        for n in (2, 3, 4, 5):
            params = random_params(n, rng)
            recovered = params_from_coefficients(coefficients_from_params(params), tol=1e-6)
            overlap = np.array(
                [[abs(p.overlap(q)) for q in recovered] for p in params]
            )
            # greedy perfect matching on the overlap matrix
            taken = set()
            for i in range(n):
                j = int(np.argmax(np.where([c in taken for c in range(n)], -1, overlap[i])))
                assert overlap[i][j] >= 1 - 1e-8
                taken.add(j)

    def test_bad_tolerance(self):
        coeffs = SymmetricCoefficients(2, np.array([1, 0, 0], complex))
        for tol in (0, float("nan")):
            with pytest.raises(ValueError):
                params_from_coefficients(coeffs, tol=tol)


class TestProjectQubits:
    def test_projects_single_qubit(self):
        d = dicke_state(2, 1)
        res = project_qubits(d, [0], [VPOL])
        assert res.amplitudes[0] == pytest.approx(1 / sqrt(2))  # <V|D_2^1> = |H>/sqrt2

    def test_projection_reduces_ghz(self):
        c = np.array([1, 0, 0, 1], complex) / sqrt(2)
        ghz = output_state(SymmetricCoefficients(3, c))
        diag = PolarizationAmplitude(1 / sqrt(2), 1 / sqrt(2))
        res = project_qubits(ghz, [2], [diag]).normalized()
        # <+|GHZ> = (|HH> + |VV>)/sqrt(2)
        assert abs(res.amplitudes[0b00]) == pytest.approx(1 / sqrt(2))
        assert abs(res.amplitudes[0b11]) == pytest.approx(1 / sqrt(2))

    @pytest.mark.parametrize("positions", ([3, 0], [1, 3], [2], [0, 1, 2, 3], []))
    def test_matches_kron_reference(self, positions, rng):
        # <s_1...s_m| (x) 1 on the kept qubits, one Kronecker factor per qubit
        n = 4
        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        state = QubitStateVector(n, amps)
        onto = random_params(len(positions), rng)
        bras = dict(zip(positions, onto))
        op = np.ones((1, 1))
        for q in range(n):
            if q in bras:
                factor = np.conj([[bras[q].alpha, bras[q].beta]])
            else:
                factor = np.eye(2)
            op = np.kron(op, factor)
        res = project_qubits(state, positions, onto)
        assert res.n == n - len(positions)
        assert np.max(np.abs(res.amplitudes - op @ amps)) < 1e-12

    @pytest.mark.parametrize("position", (-1, 3))
    def test_position_out_of_range(self, position):
        with pytest.raises(ValueError):
            project_qubits(dicke_state(3, 1), [position], [VPOL])


def test_symmetric_coefficients_validation():
    with pytest.raises(ValueError):
        SymmetricCoefficients(2, np.zeros(3, complex))
    with pytest.raises(ValueError):
        SymmetricCoefficients(2, np.ones(2, complex))
