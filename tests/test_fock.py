import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symphot.fock import (
    PRUNE_TOL,
    FockVector,
    PolarizationAmplitude,
    apply_creation,
    basis_state,
    inner_product,
    one_per_mode_keys,
    product_state,
    vacuum,
    H,
    V,
)

from symphot.multiport import postselect_one_per_mode
from symphot.schemes import PSI_MINUS, PSI_PLUS, dicke_2n_construction

from conftest import items_bytes, projector_state_direct, random_params


def tensor(x, y):
    """Join two mode registers; amplitudes multiply."""
    out = {}
    for kx, ax in x.items():
        for ky, ay in y.items():
            out[kx + ky] = ax * ay
    return FockVector(x.modes + y.modes, out)


HPOL = PolarizationAmplitude.horizontal()
VPOL = PolarizationAmplitude.vertical()


class TestCreation:
    def test_on_vacuum(self):
        out = apply_creation(vacuum(1), 0, H)
        assert out.amplitude((1, 0)) == pytest.approx(1.0)
        assert len(out) == 1

    def test_bosonic_enhancement(self):
        one = apply_creation(vacuum(1), 0, H)
        two = apply_creation(one, 0, H)
        assert two.amplitude((2, 0)) == pytest.approx(math.sqrt(2))

    def test_independent_polarizations(self):
        one_h = apply_creation(vacuum(1), 0, H)
        hv = apply_creation(one_h, 0, V)
        assert hv.amplitude((1, 1)) == pytest.approx(1.0)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            apply_creation(vacuum(1), 1, H)

    def test_distinct_slots_commute(self):
        a = apply_creation(apply_creation(vacuum(2), 0, H), 1, V)
        b = apply_creation(apply_creation(vacuum(2), 1, V), 0, H)
        assert dict(a.items()) == dict(b.items())


class TestProductState:
    def test_two_identical(self):
        st_ = product_state([HPOL, HPOL])
        assert st_.amplitude((2, 0)) == pytest.approx(math.sqrt(2))
        assert st_.norm_squared() == pytest.approx(2.0)  # = N!

    def test_orthogonal_pair(self):
        st_ = product_state([HPOL, VPOL])
        assert st_.amplitude((1, 1)) == pytest.approx(1.0)
        assert st_.norm_squared() == pytest.approx(1.0)  # = ((N/2)!)^2

    def test_diagonal_antidiagonal(self):
        s = 1 / math.sqrt(2)
        plus = PolarizationAmplitude(s, s)
        minus = PolarizationAmplitude(s, -s)
        st_ = product_state([plus, minus])
        # (a_H^2 - a_V^2)/2 |0> = (|2H> - |2V>)/sqrt(2)
        assert st_.amplitude((2, 0)) == pytest.approx(s)
        assert st_.amplitude((0, 2)) == pytest.approx(-s)
        assert abs(st_.amplitude((1, 1))) < 1e-14
        assert st_.norm_squared() == pytest.approx(1.0)

    def test_empty_params(self):
        with pytest.raises(ValueError):
            product_state([])

    def test_keeps_a_tiny_intermediate_term(self):
        # the first photon's H amplitude, 1e-15, is below PRUNE_TOL, but
        # seven V photons lift the (1, 7) term to 1e-15 * sqrt(7!); the
        # product is pruned once, at the end, so the term survives
        tiny = PolarizationAmplitude.from_unnormalized(1e-15, 1)
        state = product_state([tiny] + [VPOL] * 7)
        assert state.amplitude((1, 7)) == pytest.approx(
            1e-15 * math.sqrt(math.factorial(7)), rel=1e-12, abs=0)
        assert state.amplitude((0, 8)) == pytest.approx(math.sqrt(math.factorial(8)))

    def test_permutation_invariance(self, rng):
        params = random_params(4, rng)
        base = product_state(params)
        shuffled = product_state(params[::-1])
        for key, amp in base.items():
            assert shuffled.amplitude(key) == pytest.approx(amp)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_norm_bounds_attained(self, n):
        assert product_state([HPOL] * n).norm_squared() == pytest.approx(math.factorial(n))
        half = [HPOL] * (n // 2) + [VPOL] * (n // 2)
        assert product_state(half).norm_squared() == pytest.approx(
            math.factorial(n // 2) ** 2
        )

    def test_norm_upper_bound(self, rng):
        # N! bounds the squared norm from above (identical photons); the
        # half-H/half-V value ((N/2)!)^2 is attained but is not a global
        # minimum over polarization configurations, so only positivity is
        # asserted below it
        for n in (2, 4, 6):
            hi = math.factorial(n)
            for _ in range(20):
                nsq = product_state(random_params(n, rng)).norm_squared()
                assert 0 < nsq <= hi + 1e-9


class TestInnerProduct:
    def test_vacuum(self):
        assert inner_product(vacuum(1), vacuum(1)) == pytest.approx(1.0)

    def test_orthogonal(self):
        h = basis_state(1, (1, 0))
        v = basis_state(1, (0, 1))
        assert inner_product(h, v) == 0

    def test_matches_norm(self):
        st_ = product_state([HPOL, HPOL])
        assert inner_product(st_, st_) == pytest.approx(2.0)

    def test_conjugate_linear_first_argument(self, rng):
        x = product_state(random_params(2, rng))
        y = product_state(random_params(2, rng))
        assert inner_product(x, y) == pytest.approx(np.conj(inner_product(y, x)))

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(vacuum(1), vacuum(2))


class TestTensor:
    def test_vacuum(self):
        out = tensor(vacuum(1), vacuum(1))
        assert out.modes == 2
        assert out.amplitude((0, 0, 0, 0)) == pytest.approx(1.0)

    def test_single_photons(self):
        out = tensor(basis_state(1, (1, 0)), basis_state(1, (0, 1)))
        assert out.amplitude((1, 0, 0, 1)) == pytest.approx(1.0)

    def test_bilinearity(self):
        s = 1 / math.sqrt(2)
        sup = FockVector(1, {(1, 0): s, (0, 1): s})
        out = tensor(sup, basis_state(1, (1, 0)))
        assert out.amplitude((1, 0, 1, 0)) == pytest.approx(s)
        assert out.amplitude((0, 1, 1, 0)) == pytest.approx(s)

    def test_norm_multiplies(self, rng):
        x = product_state(random_params(3, rng))
        y = product_state(random_params(2, rng))
        assert tensor(x, y).norm_squared() == pytest.approx(
            x.norm_squared() * y.norm_squared()
        )


class TestPolarizationAmplitude:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PolarizationAmplitude(1.0, 1.0)

    def test_from_unnormalized(self):
        p = PolarizationAmplitude.from_unnormalized(3.0, 4.0)
        assert abs(p.alpha) ** 2 + abs(p.beta) ** 2 == pytest.approx(1.0)

    @pytest.mark.parametrize("value", (float("nan"), float("inf"), complex(0.0, float("nan"))))
    @pytest.mark.parametrize("slot", ("alpha", "beta"))
    def test_rejects_non_finite(self, value, slot):
        # a NaN norm compares False against every tolerance
        args = {"alpha": 0.0, "beta": 0.0, slot: value}
        with pytest.raises(ValueError):
            PolarizationAmplitude(**args)
        args = {"alpha": 1.0, "beta": 1.0, slot: value}
        with pytest.raises(ValueError):
            PolarizationAmplitude.from_unnormalized(**args)

    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=50)
    def test_overlap_hermitian(self, ar, ai, br, bi):
        za, zb = complex(ar, ai), complex(br, bi)
        if abs(za) < 1e-6 and abs(zb) < 1e-6:
            return
        p = PolarizationAmplitude.from_unnormalized(za, zb)
        q = PolarizationAmplitude.from_unnormalized(zb, za)
        assert p.overlap(q) == pytest.approx(np.conj(q.overlap(p)))


def test_fock_vector_prunes_tiny_amplitudes():
    st_ = FockVector(1, {(1, 0): 1e-16, (0, 1): 0.5})
    assert st_.amplitude((1, 0)) == 0
    assert len(st_) == 1


class TestFockVectorInit:
    def test_wrong_width_message(self):
        with pytest.raises(ValueError) as err:
            FockVector(2, dict.fromkeys([(1, 0, 0, 1), (1, 0, 1)], 1.0))
        assert str(err.value) == "key (1, 0, 1) does not match 2 modes"

    def test_prunes_below_tolerance(self):
        state = FockVector(1, {(1, 0): 0.5, (0, 1): PRUNE_TOL / 2, (2, 0): -PRUNE_TOL * 2j})
        assert list(state.keys()) == [(1, 0), (2, 0)]
        assert state.amplitude((0, 1)) == 0
        assert state.amplitude((2, 0)) == -PRUNE_TOL * 2j

    def test_values_stored_as_python_complex(self):
        state = FockVector(1, {(1, 0): np.complex128(0.6), (0, 1): np.complex128(0.8j)})
        assert [type(a) for _, a in state.items()] == [complex, complex]
        assert type(state.amplitude((0, 1))) is complex
        assert state.amplitude((0, 1)) == 0.8j

    def test_empty_input_is_the_zero_vector(self):
        for state in (FockVector(3), FockVector(3, {})):
            assert len(state) == 0 and state.modes == 3
            assert state.norm_squared() == 0.0
            with pytest.raises(ValueError):
                postselect_one_per_mode(state)

    def test_both_constructors_prune_alike(self):
        # abs and np.abs can differ by one ulp at the boundary, so both
        # constructors must prune by one rule: abs(z) is exactly 1e-14 for
        # this z, and np.abs(z) one ulp above it
        edges = [PRUNE_TOL, np.nextafter(PRUNE_TOL, 0.0), np.nextafter(PRUNE_TOL, 1.0), 5e-324, 0.0]
        edges += [-t for t in edges]
        # +0.0 on the other axis, which the product with 1 + 0j keeps
        axes = [complex(t, 0.0) for t in edges] + [complex(0.0, t) for t in edges]
        rng = np.random.default_rng(33)
        # magnitudes within a few ulps of PRUNE_TOL, at every phase
        phases = np.exp(2j * np.pi * rng.random(3000)) * rng.uniform(1 - 1e-15, 1 + 1e-15, 3000)
        zs = [7.071067811865476e-15 * (1 + 1j)] + axes + (PRUNE_TOL * phases).tolist()
        for z in zs:
            direct = FockVector(1, {(1, 0): z})
            scaled = FockVector(1, {(1, 0): 1.0}).scaled(z)
            assert list(direct.items()) == list(scaled.items()), z
            assert (np.array([a for _, a in direct.items()], dtype=complex).tobytes()
                    == np.array([a for _, a in scaled.items()], dtype=complex).tobytes()), z

    def test_value_count_must_match_index(self):
        with pytest.raises(ValueError):
            FockVector._from_index(1, {(1, 0): 0, (0, 1): 1}, np.ones(3, dtype=complex))


def test_fock_vector_immutable():
    st_ = vacuum(1)
    with pytest.raises(AttributeError):
        st_.modes = 2
    # isometry outputs share their plan's key index; nothing derived from
    # them may write into it or into their values
    for kind in (PSI_PLUS, PSI_MINUS):
        want = items_bytes(dicke_2n_construction(4, kind))
        x, y = dicke_2n_construction(4, kind), dicke_2n_construction(4, kind)
        x.scaled(2.0 - 1.0j)
        x.normalized()
        x + y
        values = np.array([a for _, a in y.items()])
        values[::2] = 0.0
        pruned = FockVector._from_index(y.modes, y._index, values)
        assert len(pruned) == len(y) // 2
        postselect_one_per_mode(x)
        postselect_one_per_mode(pruned)
        assert items_bytes(x) == items_bytes(y) == want
        assert items_bytes(dicke_2n_construction(4, kind)) == want
        with pytest.raises(ValueError):
            x._values[0] = 1.0


@pytest.mark.parametrize("n", range(11))
def test_one_per_mode_keys(n, rng):
    keys = one_per_mode_keys(n)
    assert list(keys) == [sum(p, ()) for p in itertools.product(((1, 0), (0, 1)), repeat=n)]
    assert one_per_mode_keys(n) is keys
    assert one_per_mode_keys.cache_info().maxsize is not None
    if 1 <= n <= 6:
        # reversed, they are the V-before-H term order of apply_operator
        for kind in (PSI_PLUS, PSI_MINUS):
            direct = projector_state_direct(random_params(n, rng), kind)
            assert list(direct.keys()) == list(keys[::-1])
