"""Cross-checks of the optimized modules against the literal brute-force
reference implementations."""

from math import factorial, sqrt

import pytest

from symphot.fock import (
    H,
    V,
    PolarizationAmplitude,
    apply_operator,
    inner_product,
    product_state,
    vacuum,
)
from symphot.multiport import build_cascade, distribute, postselection_probability
from symphot.schemes import (
    PSI_MINUS,
    PSI_PLUS,
    cl_input_state,
    ncl_joint_state,
)
from symphot.symmetric import coefficients_from_params

import oracle
from conftest import items_bytes, random_params

HPOL = PolarizationAmplitude.horizontal()
VPOL = PolarizationAmplitude.vertical()


def applied(factors, modes):
    """The same operator words applied factor by factor with fock.apply_operator."""
    state = vacuum(modes)
    for word in factors:
        state = apply_operator(state, word)
    return state


def assert_same_state(slow, fast, tol=1e-12):
    keys = set(slow.keys()) | set(fast.keys())
    assert max(abs(slow.amplitude(k) - fast.amplitude(k)) for k in keys) <= tol


def random_coeff(rng):
    return complex(*rng.normal(size=2))


class TestOnePassProduct:
    """``apply_operator(state, *words)`` against the factor-by-factor loop."""

    def word_lists(self, n, rng):
        """Random ncl, projector, collinear and product word lists, with their mode counts."""
        ncl = [[(random_coeff(rng), ((0, H), (i, V))), (random_coeff(rng), ((0, V), (i, H)))]
               for i in range(1, n + 1)]
        projector = [[(p.alpha.conjugate(), ((i, V),)), (-p.beta.conjugate(), ((i, H),))]
                     for i, p in enumerate(random_params(n, rng))]
        collinear = [[(random_coeff(rng), ((0, H), (0, V)))] for _ in range(n)]
        product = oracle.product_state_factors(random_params(n, rng))
        return [(ncl, n + 1), (projector, n), (collinear, 1), (product, 1)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_factor_by_factor(self, n, rng):
        for _ in range(3):
            for words, modes in self.word_lists(n, rng):
                one_pass = apply_operator(vacuum(modes), *words)
                assert items_bytes(one_pass) == items_bytes(applied(words, modes))


class TestTupleSum:
    def test_known_pair(self):
        # [H, V]: c_1 = sqrt(2) * (beta_1 alpha_2 + beta_2 alpha_1) = sqrt(2)
        assert complex(oracle.tuple_sum_ck([HPOL, VPOL], 1)) == pytest.approx(sqrt(2))
        assert complex(oracle.tuple_sum_ck([HPOL, VPOL], 0)) == pytest.approx(0)

    def test_matches_recursion(self, rng):
        for n in range(1, 7):
            for _ in range(5):
                params = random_params(n, rng)
                fast = coefficients_from_params(params).c
                for k in range(n + 1):
                    slow = complex(oracle.tuple_sum_ck(params, k))
                    assert fast[k] == pytest.approx(slow, abs=1e-10)

    def test_guard(self, rng):
        with pytest.raises(ValueError):
            oracle.tuple_sum_ck(random_params(9, rng), 0)
        with pytest.raises(ValueError):
            oracle.tuple_sum_ck(random_params(2, rng), 3)


class TestExpandProduct:
    def test_single_creation(self):
        out = oracle.expand_product([[(1.0, ((0, H),))]], modes=1)
        assert out.amplitude((1, 0)) == pytest.approx(1.0)

    def test_bosonic_factor(self):
        word = [[(1.0, ((0, H),))], [(1.0, ((0, H),))]]
        out = oracle.expand_product(word, modes=1)
        assert out.amplitude((2, 0)) == pytest.approx(sqrt(2))

    def test_product_state_agrees(self, rng):
        for n in (1, 2, 3, 4):
            params = random_params(n, rng)
            factors = oracle.product_state_factors(params)
            slow = oracle.expand_product(factors, modes=1)
            fast = product_state(params)
            for key, amp in fast.items():
                assert slow.amplitude(key) == pytest.approx(amp, abs=1e-12)
            assert_same_state(slow, applied(factors, modes=1))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind,sign", [(PSI_MINUS, -1), (PSI_PLUS, 1)])
    def test_ncl_joint_state_agrees(self, n, kind, sign):
        factors = oracle.ncl_factors(n, sign)
        slow = oracle.expand_product(factors, modes=n + 1)
        fast = ncl_joint_state(n, kind).scaled(sqrt(factorial(n + 1)))
        overlap = inner_product(slow, fast)
        assert overlap.real == pytest.approx(factorial(n + 1), rel=1e-10)
        assert slow.norm_squared() == pytest.approx(factorial(n + 1), rel=1e-10)
        assert_same_state(slow, applied(factors, modes=n + 1))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cl_input_state_agrees(self, n):
        factors = oracle.cl_factors(n)
        slow = oracle.expand_product(factors, modes=1)
        fast = cl_input_state(n).scaled(float(factorial(n)))
        assert slow.amplitude((n, n)) == pytest.approx(fast.amplitude((n, n)), rel=1e-12)
        assert_same_state(slow, applied(factors, modes=1))

    def test_random_linear_word_agrees(self, rng):
        # four photons, each a random superposition over every (mode, pol)
        # slot of three modes
        slots = [(mode, pol) for mode in range(3) for pol in (H, V)]
        factors = [
            [(complex(*rng.normal(size=2)), (slot,)) for slot in slots] for _ in range(4)
        ]
        assert_same_state(oracle.expand_product(factors, modes=3), applied(factors, modes=3))

    def test_photon_guard(self):
        word = [[(1.0, ((0, H),))]] * (oracle.MAX_PHOTONS + 1)
        with pytest.raises(ValueError):
            oracle.expand_product(word, modes=1)

    def test_bad_operator(self):
        for op in ((5, H), (0, 2)):  # out-of-range mode, bad polarization
            with pytest.raises(ValueError):
                oracle.expand_product([[(1.0, (op,))]], modes=1)
            with pytest.raises(ValueError):
                apply_operator(vacuum(1), [(1.0, (op,))])


class TestBrutePostselect:
    def test_matches_pipeline(self, rng):
        for n in (1, 2, 3, 4):
            params = random_params(n, rng)
            out = distribute(product_state(params), build_cascade(n))
            assert oracle.brute_postselect(out, n) == pytest.approx(
                postselection_probability(n), abs=1e-10
            )

    def test_rejects_zero_vector(self):
        from symphot.fock import vacuum

        with pytest.raises(ValueError):
            oracle.brute_postselect(vacuum(2).scaled(0.0), 2)

    def test_rejects_mixed_photon_number(self):
        from symphot.fock import FockVector

        mixed = FockVector(1, {(1, 0): 0.5, (2, 0): 0.5})
        with pytest.raises(ValueError):
            oracle.brute_postselect(mixed, 1)
