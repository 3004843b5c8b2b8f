from math import sqrt

import numpy as np
import pytest

from symphot.fock import PolarizationAmplitude
from symphot.slocc import (
    DegeneracyConfiguration,
    _cluster,
    classify_coefficients,
    classify_params,
    projective_distances,
)
from symphot.symmetric import SymmetricCoefficients

from conftest import cluster_pairwise, partitions, random_params

HPOL = PolarizationAmplitude.horizontal()
VPOL = PolarizationAmplitude.vertical()
DIAG = PolarizationAmplitude(1 / sqrt(2), 1 / sqrt(2))


def projective_distance(a, b):
    return float(projective_distances([a, b])[0, 1])


def _phase_shifted(p, phi):
    z = np.exp(1j * phi)
    return PolarizationAmplitude(p.alpha * z, p.beta * z)


class TestProjectiveDistance:
    def test_identical(self):
        assert projective_distance(HPOL, HPOL) == 0.0

    def test_orthogonal(self):
        assert projective_distance(HPOL, VPOL) == pytest.approx(1.0)

    def test_phase_blind(self, rng):
        for p in random_params(5, rng):
            shifted = _phase_shifted(p, 1.234)
            assert projective_distance(p, shifted) < 1e-7

    def test_symmetric(self, rng):
        a, b = random_params(2, rng)
        assert projective_distance(a, b) == pytest.approx(projective_distance(b, a))


class TestConfiguration:
    def test_string_form(self):
        assert str(DegeneracyConfiguration((2, 1))) == "(2,1)"

    def test_diversity_degree(self):
        cfg = DegeneracyConfiguration((3, 2, 2, 1))
        assert cfg.n == 8
        assert cfg.diversity_degree == 4

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            DegeneracyConfiguration((1, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DegeneracyConfiguration(())


class TestDegeneracyConfiguration:
    def test_all_identical(self):
        cfg = classify_params([HPOL, HPOL, HPOL]).configuration
        assert cfg.multiplicities == (3,)

    def test_w_pattern(self):
        cfg = classify_params([VPOL, HPOL, HPOL]).configuration
        assert cfg.multiplicities == (2, 1)

    def test_all_distinct(self):
        cfg = classify_params([HPOL, VPOL, DIAG]).configuration
        assert cfg.multiplicities == (1, 1, 1)

    def test_phase_only_copies_merge(self, rng):
        p = random_params(1, rng)[0]
        cfg = classify_params([p, _phase_shifted(p, 0.7), _phase_shifted(p, -2.0)]).configuration
        assert cfg.multiplicities == (3,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify_params([])

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            classify_params([HPOL], tol=0.0)
        with pytest.raises(ValueError):
            classify_params([HPOL], tol=float("nan"))

    def test_tolerance_controls_merging(self):
        near = PolarizationAmplitude.from_unnormalized(1.0, 1e-4)
        assert classify_params([HPOL, near], tol=1e-6).configuration.multiplicities == (1, 1)
        assert classify_params([HPOL, near], tol=1e-3).configuration.multiplicities == (2,)

    def test_transitive_chain_merges(self):
        # a-b and b-c within tol but a-c outside: one chained cluster of 3
        step = 7e-7
        a = HPOL
        b = PolarizationAmplitude.from_unnormalized(1.0, step)
        c = PolarizationAmplitude.from_unnormalized(1.0, 2 * step)
        assert projective_distance(a, c) > 1e-6
        cfg = classify_params([a, b, c], tol=1e-6).configuration
        assert cfg.multiplicities == (3,)


def _at_distance(p, d, rng):
    """A polarization at projective distance d from p, with a random phase."""
    perp = PolarizationAmplitude(-p.beta.conjugate(), p.alpha.conjugate())
    phase, twist = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
    cos, sin = sqrt(1 - d * d), d
    return PolarizationAmplitude(phase * (cos * p.alpha + sin * twist * perp.alpha),
                                 phase * (cos * p.beta + sin * twist * perp.beta))


class TestClusterMatchesPairwise:
    """The (n, n) distance array gives the pairwise loop's sizes and flag."""

    def test_random_sets(self, rng):
        for n in range(1, 15):
            for tol in (1e-6, 0.3):
                params = random_params(n, rng)
                assert _cluster(params, tol) == cluster_pairwise(params, tol)

    @pytest.mark.parametrize("tol", [1e-6, 1e-3])
    def test_near_degenerate_sets(self, tol, rng):
        seen_borderline = seen_merge = False
        for _ in range(40):
            params = []
            for base in random_params(int(rng.integers(1, 4)), rng):
                params.append(base)
                for _ in range(int(rng.integers(0, 4))):
                    scale = rng.choice([tol, tol / 10])
                    params.append(_at_distance(base, scale * rng.uniform(0.8, 1.2), rng))
            order = rng.permutation(len(params))
            params = [params[i] for i in order]
            got = _cluster(params, tol)
            assert got == cluster_pairwise(params, tol)
            seen_borderline |= got[1]
            seen_merge |= len(got[0]) < len(params)
        assert seen_borderline and seen_merge


class TestClassify:
    def test_nan_tolerance(self):
        # a NaN tolerance merges nothing and would call three equal photons GHZ
        with pytest.raises(ValueError):
            classify_params([HPOL] * 3, tol=float("nan"))

    def test_three_qubit_names(self):
        assert classify_params([HPOL, HPOL, HPOL]).name == "separable"
        assert classify_params([VPOL, HPOL, HPOL]).name == "W"
        assert classify_params([HPOL, VPOL, DIAG]).name == "GHZ"

    def test_other_sizes_use_configuration_string(self):
        assert classify_params([HPOL, VPOL]).name == "(1,1)"
        assert classify_params([HPOL] * 4 + [VPOL]).name == "(4,1)"

    def test_borderline_warning(self):
        near = PolarizationAmplitude.from_unnormalized(1.0, 5e-7)
        label = classify_params([HPOL, near], tol=1e-6)
        assert label.warning is not None
        clean = classify_params([HPOL, VPOL], tol=1e-6)
        assert clean.warning is None

    def test_from_coefficients_ghz(self):
        c = np.array([1, 0, 0, 1], complex) / sqrt(2)
        label = classify_coefficients(SymmetricCoefficients(3, c))
        assert label.name == "GHZ"
        assert label.configuration.multiplicities == (1, 1, 1)

    def test_from_coefficients_w(self):
        label = classify_coefficients(
            SymmetricCoefficients(3, np.array([0, 1, 0, 0], complex))
        )
        assert label.name == "W"

    def test_from_coefficients_separable(self):
        label = classify_coefficients(
            SymmetricCoefficients(3, np.array([0, 0, 0, 1], complex))
        )
        assert label.name == "separable"

    def test_deficient_degree_fills_with_one_state(self):
        # degree-1 numerator with N = 3: two synthesis slots coincide
        label = classify_coefficients(
            SymmetricCoefficients(3, np.array([0, 1, 0, 0], complex))
        )
        assert label.configuration.n == 3


class TestSameClass:
    def test_configuration_stable_under_permutation(self, rng):
        params = random_params(5, rng)
        base = classify_params(params).configuration
        shuffled = classify_params(params[::-1]).configuration
        assert base == shuffled

    @pytest.mark.parametrize("n", range(1, 9))
    def test_partition_invariant_under_slocc(self, n, rng):
        # every partition of n, realised 10 times: distinct polarizations at
        # projective distance > 1e-2, each repeated with a random phase.  An
        # invertible A shrinks a projective distance by at most its condition
        # number, so with cond(A) <= 1e3 the distinct ones stay above 1e-5,
        # clear of the 1e-6 tolerance and its [1e-7, 1e-6] warning band.
        for partition in partitions(n):
            for _ in range(10):
                states = []
                while len(states) < len(partition):
                    p = random_params(1, rng)[0]
                    if all(projective_distance(p, q) > 1e-2 for q in states):
                        states.append(p)
                params = [_phase_shifted(p, rng.uniform(0, 2 * np.pi))
                          for p, m in zip(states, partition) for _ in range(m)]
                params = [params[i] for i in rng.permutation(n)]
                a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                while np.linalg.cond(a) > 1e3:
                    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                moved = [PolarizationAmplitude.from_unnormalized(*(a @ (p.alpha, p.beta)))
                         for p in params]
                for ps in (params, moved):
                    label = classify_params(ps)
                    assert label.configuration.multiplicities == partition
                    assert label.warning is None
