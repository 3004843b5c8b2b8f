from itertools import permutations
from math import comb, factorial, sqrt

import numpy as np
import pytest

from symphot import fock, multiport, schemes
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
    postselected_state,
    postselection_probability,
    run_pipeline,
)
from symphot.symmetric import (
    QubitStateVector,
    coefficients_from_params,
    dicke_state,
    hamming_weights,
    output_state,
    scaled_coefficients_from_params,
)

from conftest import (
    apply_mode_isometry_merge,
    glynn_permanent,
    ncl_joint_state_direct,
    postselect_one_per_mode_scan,
    random_params,
    real_params,
)


def expanded(result):
    """``postselected_state``'s (amplitudes, p), its N+1 amplitudes spread over the 2^N strings."""
    amplitudes, p = result
    n = len(amplitudes) - 1
    return QubitStateVector(n, amplitudes[hamming_weights(n)]), p


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

    def test_cached_and_read_only(self):
        spec = build_cascade(5)
        assert build_cascade(5) is spec
        assert build_cascade.cache_info().maxsize is not None
        for array in (spec.amplitudes, spec.unitary):
            with pytest.raises(ValueError):
                array[0] = 0.0
        fresh = build_cascade.__wrapped__(5)
        assert spec.amplitudes.tobytes() == fresh.amplitudes.tobytes()
        assert spec.unitary.tobytes() == fresh.unitary.tobytes()

    def test_phase_cached(self):
        # the phase is part of the cached cascade, computed once per N
        phase = build_cascade(5).phase
        assert build_cascade(5).phase is phase
        # a numpy scalar: immutable
        with pytest.raises(TypeError):
            phase[()] = 0
        fresh = build_cascade.__wrapped__(5).phase
        assert np.array(phase).tobytes() == np.array(fresh).tobytes()

    @pytest.mark.parametrize("n", range(1, 65))
    def test_phase_is_the_product_of_unit_factors(self, n):
        t = build_cascade(n).amplitudes
        want = np.prod(t / abs(t))
        assert np.array(build_cascade(n).phase).tobytes() == np.array(want).tobytes()

    def test_phased_spec_has_its_own_phase(self, rng):
        n = 5
        phases = rng.uniform(0, 2 * np.pi, n)
        spec = with_output_phases(build_cascade(n), phases)
        want = np.prod(spec.amplitudes / abs(spec.amplitudes))
        assert np.array(spec.phase).tobytes() == np.array(want).tobytes()
        assert abs(spec.phase - build_cascade(n).phase * np.exp(1j * phases.sum())) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 6))
    def test_cache_keeps_outputs(self, n, rng, monkeypatch):
        # the cached cascade gives what a fresh one per call gives, bit for bit
        params = random_params(n, rng)

        def outputs():
            return (schemes.dicke_2n_construction(n, schemes.PSI_MINUS),
                    expanded(postselected_state(params)), run_pipeline(params))

        # build the pair-source state on every call, so that both halves use their cascade
        monkeypatch.setattr(schemes, "_dicke_2n_pair", schemes._dicke_2n_pair.__wrapped__)
        cached = outputs()
        for module in (multiport, schemes):
            monkeypatch.setattr(module, "build_cascade", build_cascade.__wrapped__)
        fresh = outputs()
        assert_same_items(cached[0], fresh[0])
        for (got, p_got), (want, p_want) in zip(cached[1:], fresh[1:]):
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
            assert p_got == p_want


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

    def test_memo_follows_each_transient_state(self, rng):
        # each state is dropped before the next is post-selected, so ids
        # recur; H and V photons, and copies whose pruning builds a new index,
        # give states at one N different terms, so a memo keyed on id() or
        # on N alone reads the wrong positions
        n = 3
        spec = build_cascade(n)
        for _ in range(150):
            params = [(HPOL, VPOL, random_params(1, rng)[0])[rng.integers(3)] for _ in range(n)]
            state = distribute(product_state(params), spec)
            keep = rng.random(len(state)) < 0.5
            keep[rng.integers(len(state))] = True
            copy = state.scaled(keep * complex(*rng.normal(size=2)))
            for x in (state, copy):
                got, p = postselect_one_per_mode(x)
                ref, p_ref = postselect_one_per_mode_scan(x)
                assert got.amplitudes.tobytes() == ref.amplitudes.tobytes()
                assert p == p_ref

    def test_result_kept_per_state_and_read_only(self, rng):
        state = distribute(product_state(random_params(3, rng)), build_cascade(3))
        result = postselect_one_per_mode(state)
        assert postselect_one_per_mode(state) is result
        qubits, p = result
        assert not qubits.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            qubits.amplitudes[0] = 0.0
        # equal terms in a distinct state: a separate result, equal bytes
        twin_qubits, twin_p = postselect_one_per_mode(FockVector(state.modes, dict(state.items())))
        assert twin_qubits is not qubits
        assert twin_qubits.amplitudes.tobytes() == qubits.amplitudes.tobytes() and twin_p == p
        zero = state.scaled(0.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="^cannot post-select the zero vector$"):
                postselect_one_per_mode(zero)


def assert_same_items(got, ref):
    """Same keys in the same order, and bit-identical amplitudes."""
    assert got.modes == ref.modes
    assert list(got.keys()) == list(ref.keys())
    assert (np.array([a for _, a in got.items()], dtype=complex).tobytes()
            == np.array([a for _, a in ref.items()], dtype=complex).tobytes())


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
            out = apply_mode_isometry(state, u)
            assert len(out) < sum(len(multiport._expand_basis_state(key, n, u))
                                  for key, _ in state.items())
            assert_same_items(out, apply_mode_isometry_merge(state, u))
            state = out


class TestIsometryPlan:
    """The per-key merge and the cached pair-source state against references
    built outside them, bit for bit."""

    @pytest.mark.parametrize("kind", [schemes.PSI_PLUS, schemes.PSI_MINUS])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_dicke_2n_construction(self, n, kind):
        # psi- comes from psi+ by the sign rule; the reference runs the psi-
        # pair factors themselves through the isometry
        iso = np.zeros((2 * n, n + 1), dtype=complex)
        iso[:n, 0] = build_cascade(n).amplitudes
        iso[n:, 1:] = np.eye(n)
        want = apply_mode_isometry_merge(ncl_joint_state_direct(n, kind), iso)
        assert_same_items(schemes.dicke_2n_construction(n, kind), want)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_pair_state_cached_and_read_only(self, n):
        plus = schemes.dicke_2n_construction(n, schemes.PSI_PLUS)
        minus = schemes.dicke_2n_construction(n, schemes.PSI_MINUS)
        assert schemes.dicke_2n_construction(n, schemes.PSI_PLUS) is plus
        assert schemes.dicke_2n_construction(n, schemes.PSI_MINUS) is minus
        assert minus._index is plus._index
        for state in (plus, minus):
            with pytest.raises(ValueError):
                state._values[0] = 0.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_distribute_product_state(self, n, rng):
        # complex output phases too: the merge multiplies with Python's
        # complex arithmetic, as the reference does
        spec = build_cascade(n)
        for _ in range(3):
            state = product_state(random_params(n, rng))
            phased = with_output_phases(spec, rng.uniform(0, 2 * np.pi, n))
            for cascade in (spec, phased):
                want = apply_mode_isometry_merge(state, cascade.amplitudes.reshape(n, 1))
                assert_same_items(distribute(state, cascade), want)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_distribute_collinear_input(self, n):
        state, spec = schemes.cl_input_state(n), build_cascade(2 * n)
        assert_same_items(distribute(state, spec),
                          apply_mode_isometry_merge(state, spec.amplitudes.reshape(2 * n, 1)))


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

        for owner, name in ((fock, "_create"), (multiport, "postselect_one_per_mode")):
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


def _orthogonal(p):
    return PolarizationAmplitude(-p.beta.conjugate(), p.alpha.conjugate())


def _degenerate_params(n, rng):
    """Repeated, all-H, all-V and orthogonal-pair parameter sets of size n."""
    p, q = random_params(2, rng)
    return {
        "repeated": [p] * n,
        "two-repeated": [p] * ((n + 1) // 2) + [q] * (n // 2),
        "all-H": [HPOL] * n,
        "all-V": [VPOL] * n,
        "orthogonal-pairs": [p] * (n // 2) + [_orthogonal(p)] * (n - n // 2),
        "orthogonal-pairs-HV": [HPOL, VPOL] * (n // 2) + [HPOL] * (n % 2),
    }


class TestPostselectedState:
    """The closed form reproduces the sector loop of run_pipeline exactly."""

    @staticmethod
    def _check_against_sector_loop(params):
        closed, p_closed = expanded(postselected_state(params))
        loop, p_loop = run_pipeline(params)
        assert np.max(np.abs(closed.amplitudes - loop.amplitudes)) <= 1e-12
        assert abs(p_closed - p_loop) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 11))
    def test_random_params(self, n, rng):
        for _ in range(5):
            self._check_against_sector_loop(random_params(n, rng))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_degenerate_params(self, n, rng):
        for params in _degenerate_params(n, rng).values():
            self._check_against_sector_loop(params)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            postselected_state([])

    @pytest.mark.parametrize("n", range(1, 15))
    def test_equal_weight_amplitudes_are_bit_identical(self, n, rng):
        # simulate writes amplitude k for every bitstring of weight k; the
        # dense closed form, normalized over all 2^N entries and phased,
        # must hold exactly those N+1 bit patterns
        t = build_cascade(n).amplitudes
        for params in (random_params(n, rng), real_params(n, rng),
                       *_degenerate_params(n, rng).values()):
            c = scaled_coefficients_from_params(params).c
            per_string = c / np.sqrt([float(comb(n, k)) for k in range(n + 1)])
            dense = QubitStateVector(n, per_string[hamming_weights(n)]).normalized()
            want = np.prod(t / abs(t)) * dense.amplitudes
            amplitudes, _ = postselected_state(params)
            assert want.tobytes() == amplitudes[hamming_weights(n)].tobytes()


class TestPostselectedStatePermanents:
    """Above N = 10 the closed form is checked against the multiport permanents.

    The one-per-mode pattern s has amplitude perm(M_s), where row i of M_s
    is photon i and column j holds t_j alpha_i if mode j is H and t_j beta_i
    if it is V.  The input norm is perm of the Gram matrix <p_i|p_k>, so the
    post-selected qubit amplitude is perm(M_s) / sqrt(p perm(G)).  Each
    permanent costs O(N^2 2^N), so the patterns are sampled: for every weight k
    the one with the last k modes V, which ``simulate`` prints, and random
    ones, since the claim includes the symmetry under permuting the modes.
    """

    @staticmethod
    def _check_against_permanents(params, state, p, rng, tol=1e-12):
        n = len(params)
        t = build_cascade(n).amplitudes
        pol = np.array([[q.alpha, q.beta] for q in params])
        scale = sqrt(p * glynn_permanent(pol.conj() @ pol.T).real)
        place = 1 << np.arange(n - 1, -1, -1)
        for k in range(n + 1):
            last_k = np.arange(n) >= n - k
            for pattern in (last_k, *(rng.permutation(last_k) for _ in range(2))):
                want = glynn_permanent(t * pol[:, pattern.astype(int)]) / scale
                assert abs(state.amplitudes[place @ pattern] - want) <= tol

    @pytest.mark.parametrize("n", range(11, 15))
    def test_patterns_match_permanents(self, n, rng):
        for params in (random_params(n, rng), [random_params(1, rng)[0]] * n):
            state, p = expanded(postselected_state(params))
            self._check_against_permanents(params, state, p, rng)

    def test_sign_flip_of_one_weight_fails(self, rng):
        n = 11
        params = random_params(n, rng)
        state, p = expanded(postselected_state(params))
        flipped = np.where(hamming_weights(n) == n // 2, -1.0, 1.0) * state.amplitudes
        with pytest.raises(AssertionError):
            self._check_against_permanents(params, QubitStateVector(n, flipped), p, rng)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_glynn_matches_permutation_sum(self, n, rng):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        want = sum(np.prod(a[np.arange(n), perm]) for perm in permutations(range(n)))
        assert abs(glynn_permanent(a) - want) <= 1e-13 * abs(want)


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
