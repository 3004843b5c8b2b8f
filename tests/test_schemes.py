from math import factorial, sqrt

import numpy as np
import pytest

from symphot.fock import (
    H,
    PRUNE_TOL,
    V,
    FockVector,
    PolarizationAmplitude,
    apply_operator,
    inner_product,
    product_state,
    vacuum,
)
from symphot.multiport import apply_mode_isometry, postselect_one_per_mode, postselection_probability
from symphot.schemes import (
    PSI_MINUS,
    PSI_PLUS,
    SourceRates,
    cl_input_state,
    dicke_2n_construction,
    ncl_joint_state,
    project_onto,
    projector_state,
    rates,
)
from symphot.multiport import build_cascade, distribute
from symphot.symmetric import dicke_state, normalization_squared

from conftest import (
    closed_form_rates,
    items_bytes,
    ncl_joint_state_direct,
    pair_source_schmidt_amplitudes,
    project_onto_loop,
    projector_state_direct,
    random_params,
)

HPOL = PolarizationAmplitude.horizontal()
VPOL = PolarizationAmplitude.vertical()


def sps_combine_simulated(params):
    """Explicit input-cascade simulation of the single-photon-source merge.

    Puts one photon in each input mode, applies the reversed cascade unitary,
    and projects on all photons sharing mode a.  Independent of the closed-form
    probability ``rates(...).sps.p_input``.
    """
    n = len(params)
    state = vacuum(n)
    for i, p in enumerate(params):
        state = apply_operator(state, [(p.alpha, ((i, H),)), (p.beta, ((i, V),))])
    # the input multiport is the output cascade run backwards: e_i -> a with
    # amplitude t_i, i.e. the transpose of the cascade unitary
    mixed = apply_mode_isometry(state, build_cascade(n).unitary.T)
    # keep only the all-photons-in-mode-0 component
    merged = FockVector(1, {key[:2]: amp for key, amp in mixed.items() if sum(key[2:]) == 0})
    prob = merged.norm_squared()  # input was normalized
    return merged.scaled(1.0 / sqrt(prob)), prob


def apply_polarization_phase(state, mode, phase_h, phase_v):
    """Multiply each basis amplitude by phase_h**n_H * phase_v**n_V for one mode."""
    idx = 2 * mode
    return FockVector(state.modes, {
        key: amp * phase_h ** key[idx] * phase_v ** key[idx + 1] for key, amp in state.items()
    })


class TestSpsCombine:
    """The single-photon-source merge: closed form in ``rates`` vs simulation."""

    def test_orthogonal_pair(self):
        assert rates(2, [HPOL, VPOL]).sps.p_input == pytest.approx(0.25)

    def test_identical_pair(self):
        assert rates(2, [HPOL, HPOL]).sps.p_input == pytest.approx(0.5)

    def test_single_photon(self):
        assert rates(1, [HPOL]).sps.p_input == pytest.approx(1.0)

    def test_matches_cascade_simulation(self, rng):
        for n in (1, 2, 3):
            params = random_params(n, rng)
            state = product_state(params).normalized()
            p = rates(n, params).sps.p_input
            sim_state, sim_p = sps_combine_simulated(params)
            assert sim_p == pytest.approx(p, abs=1e-12)
            assert abs(inner_product(state, sim_state)) == pytest.approx(1.0, abs=1e-10)


class TestBellPair:
    """One pair source, ``ncl_joint_state(1, kind)``, is a Bell pair on modes (a, b)."""

    def test_antisymmetric(self):
        b = ncl_joint_state(1, PSI_MINUS)
        assert b.amplitude((1, 0, 0, 1)) == pytest.approx(1 / sqrt(2))
        assert b.amplitude((0, 1, 1, 0)) == pytest.approx(-1 / sqrt(2))

    def test_symmetric(self):
        b = ncl_joint_state(1, PSI_PLUS)
        assert b.amplitude((1, 0, 0, 1)) == pytest.approx(1 / sqrt(2))
        assert b.amplitude((0, 1, 1, 0)) == pytest.approx(1 / sqrt(2))

    def test_orthogonal_kinds(self):
        minus, plus = ncl_joint_state(1, PSI_MINUS), ncl_joint_state(1, PSI_PLUS)
        assert inner_product(minus, plus) == pytest.approx(0)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ncl_joint_state(1, "phi+")


class TestJointState:
    def test_single_pair_is_bell(self):
        s = 1 / sqrt(2)
        bell = {(1, 0, 0, 1): s, (0, 1, 1, 0): -s}
        assert dict(ncl_joint_state(1).items()) == pytest.approx(bell)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", [PSI_MINUS, PSI_PLUS])
    def test_unit_norm(self, n, kind):
        joint = ncl_joint_state(n, kind)
        assert joint.norm_squared() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bare_operator_product_norm(self, n):
        # prod_i (a_H b_iV - a_V b_iH) applied without any scaling has
        # squared norm (N+1)!
        from symphot.fock import apply_creation, vacuum

        bare = vacuum(n + 1)
        for i in range(1, n + 1):
            first = apply_creation(apply_creation(bare, 0, H), i, V)
            second = apply_creation(apply_creation(bare, 0, V), i, H)
            bare = first + second.scaled(-1.0)
        assert bare.norm_squared() == pytest.approx(factorial(n + 1), rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cached_pair_matches_direct_build(self, n):
        # psi- is psi+ with the sign rule, on psi+'s key index; both equal
        # the pair factors of their kind run through apply_operator
        plus, minus = ncl_joint_state(n, PSI_PLUS), ncl_joint_state(n, PSI_MINUS)
        assert ncl_joint_state(n, PSI_PLUS) is plus
        assert ncl_joint_state(n, PSI_MINUS) is minus
        assert minus._index is plus._index
        for state, kind in ((plus, PSI_PLUS), (minus, PSI_MINUS)):
            with pytest.raises(ValueError):
                state._values[0] = 0.0
            want = ncl_joint_state_direct(n, kind)
            assert items_bytes(state) == items_bytes(want)
            assert state.norm_squared() == want.norm_squared()


def projector_params(n, rng):
    """Random, H, V and below-PRUNE_TOL polarizations, one drawn per photon."""
    tiny = 0.3 * PRUNE_TOL
    choices = [
        lambda: random_params(1, rng)[0],
        PolarizationAmplitude.horizontal,
        PolarizationAmplitude.vertical,
        lambda: PolarizationAmplitude.from_unnormalized(tiny * complex(*rng.normal(size=2)), 1.0),
        lambda: PolarizationAmplitude.from_unnormalized(1.0, tiny * complex(*rng.normal(size=2))),
        # a purely imaginary alpha gives products with a zero real part
        lambda: PolarizationAmplitude.from_unnormalized(1j * rng.normal(), rng.normal()),
    ]
    return [choices[rng.integers(len(choices))]() for _ in range(n)]


class TestProjector:
    @pytest.mark.parametrize("kind", [PSI_MINUS, PSI_PLUS])
    @pytest.mark.parametrize("n", range(9))
    def test_matches_apply_operator(self, n, kind, rng):
        # items, their order and bytes, the norm and the heralding against
        # the cached joint state: all as the apply_operator builds give them
        for _ in range(6):
            params = projector_params(n, rng)
            got, want = projector_state(params, kind), projector_state_direct(params, kind)
            assert items_bytes(got) == items_bytes(want)
            assert got.norm_squared() == want.norm_squared()
            if n == 0:
                continue
            residual, p = project_onto(ncl_joint_state(n, kind), got)
            ref, p_ref = project_onto(ncl_joint_state_direct(n, kind), want)
            assert items_bytes(residual) == items_bytes(ref)
            assert p == p_ref

    def test_h_param(self):
        proj = projector_state([HPOL])
        assert proj.amplitude((0, 1)) == pytest.approx(1.0)

    def test_v_param(self):
        proj = projector_state([VPOL])
        assert proj.amplitude((1, 0)) == pytest.approx(-1.0)

    def test_product_form(self):
        proj = projector_state([HPOL, VPOL])
        assert proj.amplitude((0, 1, 1, 0)) == pytest.approx(-1.0)
        assert proj.norm_squared() == pytest.approx(1.0)


def herald_record(residual, p):
    """The residual's keys in term order and its bytes, and the bits of p."""
    items = list(residual.items())
    return [k for k, _ in items], np.array([a for _, a in items], dtype=complex).tobytes(), p.hex()


class TestProjection:
    @pytest.mark.parametrize("kind", [PSI_MINUS, PSI_PLUS])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_dict_loop(self, n, kind, rng):
        # the cached joint state, a direct build with its own index, and a
        # copy with one term pruned, whose index differs from the cached one;
        # projectors on every b mode and on all but the first
        cached = ncl_joint_state(n, kind)
        mask = np.ones(len(cached))
        mask[rng.integers(len(cached))] = 0.0
        joints = [cached, ncl_joint_state_direct(n, kind), cached.scaled(mask)]
        assert len(joints[2]) == len(cached) - 1
        for m in sorted({n, max(n - 1, 1)}):
            for _ in range(8):
                projector = projector_state(projector_params(m, rng), kind)
                for joint in joints:
                    assert (herald_record(*project_onto(joint, projector))
                            == herald_record(*project_onto_loop(joint, projector)))

    def test_memo_follows_each_transient_state(self, rng):
        # each joint state is dropped before the next is heralded, so ids
        # recur; pruned and reordered copies of a cached state give states at
        # one N different terms or term orders, so a memo keyed on id() alone
        # pairs a state with another's terms
        n = 3
        for _ in range(300):
            kind = (PSI_MINUS, PSI_PLUS)[rng.integers(2)]
            items = list(ncl_joint_state(n, kind).items())
            keep = rng.random(len(items)) < 0.7
            keep[rng.integers(len(items))] = True
            joint = FockVector(n + 1, dict(items[i] for i in rng.permutation(len(items))
                                           if keep[i]))
            projector = projector_state(random_params(n, rng), kind)
            assert (herald_record(*project_onto(joint, projector))
                    == herald_record(*project_onto_loop(joint, projector)))

    def test_single_pair(self):
        residual, p = project_onto(ncl_joint_state(1), projector_state([HPOL]))
        assert p == pytest.approx(0.5)
        assert abs(residual.amplitude((1, 0))) == pytest.approx(1 / sqrt(2))

    def test_orthogonal_pair_probability(self):
        _, p = project_onto(ncl_joint_state(2), projector_state([HPOL, VPOL]))
        assert p == pytest.approx(1 / 6)

    def test_identical_pair_probability(self):
        _, p = project_onto(ncl_joint_state(2), projector_state([HPOL, HPOL]))
        assert p == pytest.approx(1 / 3)

    def test_register_mismatch(self):
        with pytest.raises(ValueError):
            project_onto(ncl_joint_state(1), projector_state([HPOL, VPOL]))

    def test_residual_reproduces_product_state(self, rng):
        for n in range(1, 5):
            for _ in range(5):
                params = random_params(n, rng)
                residual, p = project_onto(
                    ncl_joint_state(n), projector_state(params)
                )
                expected_p = normalization_squared(params) / factorial(n + 1)
                assert p == pytest.approx(expected_p, abs=1e-10)
                target = product_state(params).normalized()
                fid = abs(inner_product(target, residual.normalized()))
                assert fid >= 1 - 1e-10


class TestDicke2N:
    def test_smallest_case(self):
        state = dicke_2n_construction(1, PSI_PLUS)
        qubits, _ = postselect_one_per_mode(state)
        assert qubits.fidelity(dicke_state(2, 1)) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_true_schmidt_structure(self, n):
        # The post-selected state is (N+1)^(-1/2) sum_k (+-1)^k |D^k>|D^(N-k)>:
        # every weight-N bitstring carries 1/(sqrt(N+1) * C(N, weight of A half)).
        for kind, sign in ((PSI_PLUS, 1), (PSI_MINUS, -1)):
            qubits, p = postselect_one_per_mode(dicke_2n_construction(n, kind))
            assert p == pytest.approx(postselection_probability(n), abs=1e-12)
            expected = pair_source_schmidt_amplitudes(n, sign)
            ref = int(np.argmax(np.abs(expected)))
            phase = qubits.amplitudes[ref] / expected[ref]
            assert abs(abs(phase) - 1.0) < 1e-10
            assert np.max(np.abs(qubits.amplitudes - phase * expected)) < 1e-10

    def test_phase_map_turns_minus_into_plus(self):
        # b_H -> i b_H, b_V -> -i b_V on every partner mode maps the psi-
        # joint state to the psi+ one up to a global phase
        for n in (1, 2, 3):
            minus = ncl_joint_state(n, PSI_MINUS)
            plus = ncl_joint_state(n, PSI_PLUS)
            mapped = minus
            for mode in range(1, n + 1):
                mapped = apply_polarization_phase(mapped, mode, 1j, -1j)
            overlap = inner_product(plus, mapped)
            assert abs(overlap) == pytest.approx(1.0, abs=1e-12)

    def test_projection_side_symmetry(self, rng):
        # projecting the A half or the B half onto the same product state
        # yields the same residual family (the state is A<->B symmetric)
        from symphot.symmetric import project_qubits

        n = 2
        qubits, _ = postselect_one_per_mode(dicke_2n_construction(n, PSI_PLUS))
        for _ in range(10):
            onto = random_params(n, rng)
            first = project_qubits(qubits, list(range(n)), onto).normalized()
            second = project_qubits(qubits, list(range(n, 2 * n)), onto).normalized()
            assert first.fidelity(second) >= 1 - 1e-12


class TestCollinear:
    def test_first_order(self):
        state = cl_input_state(1)
        assert state.amplitude((1, 1)) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_single_basis_state(self, n):
        state = cl_input_state(n)
        assert state.amplitude((n, n)) == pytest.approx(1.0)
        assert len(state) == 1

    def test_probability_formula(self):
        # the 2N collinear photons split one per mode with (2N)!/(2N)^(2N)
        assert postselection_probability(2 * 1) == pytest.approx(0.5)
        assert postselection_probability(2 * 2) == pytest.approx(24 / 256)
        assert postselection_probability(2 * 3) == pytest.approx(720 / 46656)

    @pytest.mark.parametrize("n", [1, 2])
    def test_distribution_matches_simulation(self, n):
        out = distribute(cl_input_state(n), build_cascade(2 * n))
        qubits, p = postselect_one_per_mode(out)
        assert p == pytest.approx(postselection_probability(2 * n), abs=1e-10)
        assert np.max(
            np.abs(qubits.amplitudes - dicke_state(2 * n, n).amplitudes)
        ) < 1e-10


class TestRates:
    def test_closed_forms_match_composition(self, rng):
        src = SourceRates(1.3, 0.7, 2.1)
        for n in range(1, 5):
            params = random_params(n, rng)
            report = rates(n, params, src)
            closed = closed_form_rates(n, report.norm_squared, src)
            assert report.sps.rate == pytest.approx(closed["sps"], rel=1e-10)
            assert report.ncl.rate == pytest.approx(closed["ncl"], rel=1e-10)
            assert report.cl.rate == pytest.approx(closed["cl"], rel=1e-10)

    def test_ncl_vs_sps_ratio(self, rng):
        # R_ncl / R_sps = (N/2)^N at equal source rates; > 1 exactly for N > 2
        for n in range(1, 6):
            report = rates(n, random_params(n, rng), SourceRates())
            ratio = report.ncl.rate / report.sps.rate
            assert ratio == pytest.approx((n / 2) ** n, rel=1e-10)
            assert (ratio > 1) == (n > 2)

    def test_cl_vs_ncl_ratio(self, rng):
        r2 = rates(2, random_params(2, rng), SourceRates())
        assert r2.cl.rate / r2.ncl.rate == pytest.approx(0.5, rel=1e-10)
        r3 = rates(3, random_params(3, rng), SourceRates())
        assert r3.cl.rate / r3.ncl.rate == pytest.approx(5 / 6, rel=1e-10)

    def test_spot_value(self):
        report = rates(2, [HPOL, VPOL], SourceRates())
        assert report.ncl.rate == pytest.approx(0.125)

    def test_stage_probabilities_match_simulation(self, rng):
        for n in (1, 2, 3):
            params = random_params(n, rng)
            report = rates(n, params, SourceRates())
            _, p_sps = sps_combine_simulated(params)
            assert report.sps.p_input == pytest.approx(p_sps, abs=1e-12)
            _, p_ncl = project_onto(ncl_joint_state(n), projector_state(params))
            assert report.ncl.p_input == pytest.approx(p_ncl, abs=1e-10)
            out = distribute(cl_input_state(n), build_cascade(2 * n))
            _, p_cl = postselect_one_per_mode(out)
            assert report.cl.p_input == pytest.approx(p_cl, abs=1e-10)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            rates(3, random_params(2, rng), SourceRates())

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            SourceRates(c_sps=-1.0)
