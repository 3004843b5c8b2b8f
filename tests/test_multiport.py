from math import factorial, sqrt

import numpy as np
import pytest

from symphot import fock, multiport
from symphot.fock import (
    FockVector,
    PolarizationAmplitude,
    apply_creation,
    product_state,
    vacuum,
    H,
    V,
)
from symphot.multiport import (
    CascadeSpec,
    apply_mode_isometry,
    build_cascade,
    distribute,
    postselect_one_per_mode,
    postselection_probability,
    run_pipeline,
)
from symphot.symmetric import (
    coefficients_from_params,
    dicke_state,
    output_state,
)

from conftest import postselect_one_per_mode_scan, random_params


def with_output_phases(spec, phases):
    """The cascade with per-output phases t_j -> t_j e^{i phi_j}."""
    ph = np.exp(1j * np.asarray(phases, dtype=float))
    return CascadeSpec(spec.n, spec.reflectivities, spec.amplitudes * ph,
                       np.diag(ph) @ spec.unitary)


HPOL = PolarizationAmplitude.horizontal()
VPOL = PolarizationAmplitude.vertical()


class TestCascade:
    def test_single_mode(self):
        spec = build_cascade(1)
        assert np.allclose(spec.amplitudes, [1.0])

    def test_two_modes(self):
        spec = build_cascade(2)
        assert np.allclose(np.abs(spec.amplitudes), 1 / sqrt(2))

    def test_four_modes(self):
        spec = build_cascade(4)
        assert np.allclose(np.abs(spec.amplitudes), 0.5)
        assert spec.reflectivities == (1 / 2, 1 / 3, 1 / 4)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_unitary(self, n):
        u = build_cascade(n).unitary
        assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-12

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            build_cascade(0)


class TestDistribute:
    def test_single_photon(self):
        out = distribute(apply_creation(vacuum(1), 0, H), build_cascade(2))
        assert abs(out.amplitude((1, 0, 0, 0))) == pytest.approx(1 / sqrt(2))
        assert abs(out.amplitude((0, 0, 1, 0))) == pytest.approx(1 / sqrt(2))

    def test_two_identical_photons(self):
        two_h = apply_creation(apply_creation(vacuum(1), 0, H), 0, H).scaled(1 / sqrt(2))
        out = distribute(two_h, build_cascade(2))
        assert abs(out.amplitude((2, 0, 0, 0))) == pytest.approx(0.5)
        assert abs(out.amplitude((1, 0, 1, 0))) == pytest.approx(1 / sqrt(2))
        assert abs(out.amplitude((0, 0, 2, 0))) == pytest.approx(0.5)

    def test_hv_pair(self):
        hv = apply_creation(apply_creation(vacuum(1), 0, H), 0, V)
        out = distribute(hv, build_cascade(2))
        # one-per-mode components carry amplitude 1/2 each
        assert abs(out.amplitude((1, 0, 0, 1))) == pytest.approx(0.5)
        assert abs(out.amplitude((0, 1, 1, 0))) == pytest.approx(0.5)
        assert abs(out.amplitude((1, 1, 0, 0))) == pytest.approx(0.5)

    def test_rejects_multimode_input(self):
        with pytest.raises(ValueError):
            distribute(vacuum(2), build_cascade(2))

    def test_preserves_norm_and_photons(self, rng):
        for n in (2, 3, 4):
            psi = product_state(random_params(n, rng))
            out = distribute(psi, build_cascade(n))
            assert out.norm_squared() == pytest.approx(psi.norm_squared(), rel=1e-12)
            for key in out.keys():
                assert sum(key) == n


class TestPostselect:
    def test_identical_photons(self):
        two_h = product_state([HPOL, HPOL]).normalized()
        state, p = postselect_one_per_mode(distribute(two_h, build_cascade(2)))
        assert p == pytest.approx(0.5)  # 2!/2^2
        assert abs(state.amplitudes[0b00]) == pytest.approx(1.0)

    def test_hv_pair_gives_balanced_dicke(self):
        hv = product_state([HPOL, VPOL])
        state, p = postselect_one_per_mode(distribute(hv, build_cascade(2)))
        assert p == pytest.approx(0.5)
        assert state.fidelity(dicke_state(2, 1)) == pytest.approx(1.0)

    def test_single_mode_trivial(self):
        one = apply_creation(vacuum(1), 0, V)
        state, p = postselect_one_per_mode(distribute(one, build_cascade(1)))
        assert p == pytest.approx(1.0)
        assert abs(state.amplitudes[1]) == pytest.approx(1.0)

    def test_zero_projection(self):
        two_in_one = apply_creation(apply_creation(vacuum(2), 0, H), 0, H)
        state, p = postselect_one_per_mode(two_in_one)
        assert p == 0.0
        assert state.norm_squared() == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            postselect_one_per_mode(vacuum(1).scaled(0.0))

    def test_probability_is_polarization_independent(self, rng):
        for n in range(1, 7):
            expected = postselection_probability(n)
            for _ in range(10):
                _, p = run_pipeline(random_params(n, rng))
                assert abs(p - expected) < 1e-10

    @pytest.mark.parametrize("modes", range(7))
    def test_lookup_matches_scan(self, modes, rng):
        # doubly occupied and empty modes, photon numbers other than the mode
        # count, and amplitudes on either side of PRUNE_TOL
        scales = [1.0, 1e3, 0.9 * fock.PRUNE_TOL, 2 * fock.PRUNE_TOL, 10 * fock.PRUNE_TOL]
        for _ in range(20):
            terms = {}
            for _ in range(int(rng.integers(1, 40))):
                if rng.random() < 0.5:
                    key = sum(([(1, 0), (0, 1)][rng.integers(2)] for _ in range(modes)), ())
                else:
                    key = tuple(int(x) for x in rng.integers(0, 3, size=2 * modes))
                terms[key] = rng.choice(scales) * complex(rng.normal(), rng.normal())
            state = FockVector(modes, terms)
            if state.norm_squared() == 0.0:
                with pytest.raises(ValueError):
                    postselect_one_per_mode(state)
                continue
            got, p = postselect_one_per_mode(state)
            ref, p_ref = postselect_one_per_mode_scan(state)
            assert got.n == ref.n == modes
            assert got.amplitudes.tobytes() == ref.amplitudes.tobytes()
            assert p == p_ref


class TestApplyModeIsometry:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mixing_isometry_matches_per_term_accumulation(self, n, rng):
        # one photon per mode, then the full cascade unitary twice: the
        # expansions of different input keys share output keys
        state = vacuum(n)
        for mode, p in enumerate(random_params(n, rng)):
            state = fock.apply_operator(state, [(p.alpha, ((mode, H),)), (p.beta, ((mode, V),))])
        u = build_cascade(n).unitary.T
        for _ in range(2):
            merged, expanded = {}, 0
            for key, amp in state.items():
                terms = multiport._expand_basis_state(key, n, u)
                expanded += len(terms)
                for out_key, coeff in terms.items():
                    merged[out_key] = merged.get(out_key, 0.0) + amp * coeff
            assert len(merged) < expanded
            out = apply_mode_isometry(state, u)
            assert list(out.items()) == list(FockVector(n, merged).items())
            state = out


class TestDickeMonomialMap:
    @pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3, 4) for k in range(n + 1)])
    def test_monomial_maps_to_dicke(self, n, k):
        # normalized (a_V^dag)^k (a_H^dag)^(N-k)|0> post-selects onto |D_N^(k)>
        state = vacuum(1)
        for _ in range(k):
            state = apply_creation(state, 0, V)
        for _ in range(n - k):
            state = apply_creation(state, 0, H)
        state = state.normalized()
        out, p = postselect_one_per_mode(distribute(state, build_cascade(n)))
        assert p == pytest.approx(postselection_probability(n), abs=1e-12)
        assert out.fidelity(dicke_state(n, k)) == pytest.approx(1.0)


class TestOnePerModeSector:
    """run_pipeline builds only the post-selected sector; distribute is the
    full expansion it is checked against."""

    @staticmethod
    def _check_against_full_expansion(params):
        n = len(params)
        state, p = run_pipeline(params)
        psi = product_state(params)
        full = distribute(psi, build_cascade(n))
        ref_state, p_full = postselect_one_per_mode(full)
        assert np.max(np.abs(state.amplitudes - ref_state.amplitudes)) < 1e-12
        # the full expansion's own norm drifts by up to ~5e-13 relative at
        # N = 7 over its C(3N-1, N) terms, so the reference probability is
        # taken relative to the input norm, as run_pipeline does
        ref_p = p_full * full.norm_squared() / psi.norm_squared()
        assert p == pytest.approx(ref_p, rel=1e-13, abs=0)
        assert p == pytest.approx(factorial(n) / n ** n, rel=1e-13, abs=0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_random_params_match_full_expansion(self, n, rng):
        for _ in range(3):
            self._check_against_full_expansion(random_params(n, rng))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_horizontal_matches_full_expansion(self, n):
        self._check_against_full_expansion([HPOL] * n)

    @pytest.mark.parametrize("n", (3, 5, 7))
    def test_repeated_polarization_matches_full_expansion(self, n, rng):
        params = random_params(n - 2, rng)
        self._check_against_full_expansion(params[:1] * 3 + params[1:])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_no_fock_kernel(self, n, monkeypatch, rng):
        # the sector array alone gives the state: no Fock vector is built and
        # nothing is post-selected
        def refuse(*args, **kwargs):
            raise AssertionError("Fock kernel called")

        for owner, name in ((fock, "_create"), (multiport, "_create"),
                            (multiport, "postselect_one_per_mode")):
            monkeypatch.setattr(owner, name, refuse)
        params = random_params(n, rng)
        state, p = run_pipeline(params)
        assert p == pytest.approx(factorial(n) / n ** n, rel=1e-13, abs=0)
        algebraic = output_state(coefficients_from_params(params))
        assert state.fidelity(algebraic) == pytest.approx(1.0, abs=1e-12)


class TestRunPipeline:
    def test_w_state(self):
        state, p = run_pipeline([VPOL, HPOL, HPOL])
        assert p == pytest.approx(6 / 27)
        assert state.fidelity(dicke_state(3, 1)) == pytest.approx(1.0)

    def test_hv_pair(self):
        state, p = run_pipeline([HPOL, VPOL])
        assert p == pytest.approx(0.5)
        assert state.fidelity(dicke_state(2, 1)) == pytest.approx(1.0)

    def test_single_photon(self):
        diag = PolarizationAmplitude(1 / sqrt(2), 1 / sqrt(2))
        state, p = run_pipeline([diag])
        assert p == pytest.approx(1.0)
        assert np.allclose(state.amplitudes, [1 / sqrt(2), 1 / sqrt(2)])

    def test_consistency_with_symmetric_algebra(self, rng):
        # output equals the Dicke superposition built from the c_k expansion
        for n in range(1, 7):
            for _ in range(5):
                params = random_params(n, rng)
                simulated, _ = run_pipeline(params)
                algebraic = output_state(coefficients_from_params(params))
                assert simulated.fidelity(algebraic) >= 1 - 1e-9


def test_output_phases_only_change_global_phase(rng):
    # per-output phases on the cascade amplitudes factor out of the
    # one-per-mode component
    for n in (2, 3, 4):
        params = random_params(n, rng)
        psi = product_state(params)
        base, p_base = postselect_one_per_mode(distribute(psi, build_cascade(n)))
        phases = rng.uniform(0, 2 * np.pi, size=n)
        spec = with_output_phases(build_cascade(n), phases)
        shifted, p_shift = postselect_one_per_mode(distribute(psi, spec))
        assert p_shift == pytest.approx(p_base, abs=1e-12)
        assert base.fidelity(shifted) == pytest.approx(1.0, abs=1e-12)
