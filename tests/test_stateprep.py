import math

import numpy as np
import pytest

from qptycho import (
    ghz_state,
    named_state,
    random_arbitrary,
    random_separable,
    table_states,
    w_state,
)

from oracles import reduced_single_qubit


class TestNamedStates:
    def test_ghz_two_qubits_is_bell(self):
        np.testing.assert_allclose(
            named_state("ghz", 2).amps, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-15
        )
        np.testing.assert_allclose(named_state("psi5", 2).amps, ghz_state(2).amps)

    def test_w_three_qubits(self):
        amps = named_state("w", 3).amps
        expected = np.zeros(8, dtype=complex)
        expected[[1, 2, 4]] = 1 / math.sqrt(3)
        np.testing.assert_allclose(amps, expected, atol=1e-15)

    def test_phase_product_state(self):
        amps = named_state("psi1_n", 2).amps
        phase = np.exp(1j * math.pi / 4)
        np.testing.assert_allclose(
            amps, 0.5 * np.array([1, phase, phase, phase**2]), atol=1e-15
        )

    def test_two_qubit_set_explicit_forms(self):
        sqrt2 = math.sqrt(2)
        phase = np.exp(1j * math.pi / 4)
        expected = {
            "psi1": np.array([1, 1, 1, 1]) / 2,
            "psi2": np.array([1, -1, -1, 1]) / 2,
            "psi3": np.array([1, phase, phase, phase**2]) / 2,
            "psi4": np.array([1, -phase, -phase, phase**2]) / 2,
            "psi5": np.array([1, 0, 0, 1]) / sqrt2,
            "psi6": np.array([1, 0, 0, -1]) / sqrt2,
            "psi7": np.array([0, 1, 1, 0]) / sqrt2,
            "psi8": np.array([0, 1, -1, 0]) / sqrt2,
        }
        for tag, amps in expected.items():
            np.testing.assert_allclose(named_state(tag, 2).amps, amps, atol=1e-15)

    def test_bell_states_are_orthonormal(self):
        bells = [named_state(f"psi{i}", 2) for i in (5, 6, 7, 8)]
        for i, a in enumerate(bells):
            for j, b in enumerate(bells):
                assert abs(np.vdot(a.amps, b.amps) - (i == j)) < 1e-14

    def test_random_table_entries_are_pinned(self):
        np.testing.assert_array_equal(
            named_state("psi9", 2).amps, named_state("psi9", 2).amps
        )
        assert (
            abs(np.vdot(named_state("psi9", 2).amps, named_state("psi10", 2).amps)) < 0.999
        )

    def test_unknown_tag_and_mismatched_n(self):
        with pytest.raises(KeyError):
            named_state("psi11", 2)
        with pytest.raises(ValueError):
            named_state("psi3", 3)
        with pytest.raises(ValueError):
            named_state("ghz", 1)

    @pytest.mark.parametrize("n", [2.0, 2.5, True, "3", 1])
    def test_qubit_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="named states need an integer n >= 2"):
            named_state("ghz", n)

    def test_numpy_integer_qubit_count_accepted(self):
        np.testing.assert_array_equal(
            named_state("ghz", np.int64(3)).amps, named_state("ghz", 3).amps
        )

    def test_all_normalized(self):
        for n in (2, 3, 5):
            for tag, state in table_states(n):
                assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12, tag

    def test_table_sizes(self):
        assert len(table_states(2)) == 10
        assert len(table_states(4)) == 5


class TestRandomSeparable:
    def test_norm_across_draws(self):
        rng = np.random.default_rng(50)
        for _ in range(1000):
            assert abs(np.linalg.norm(random_separable(3, rng).amps) - 1.0) < 1e-12

    def test_product_structure(self):
        # every single-qubit reduction of a product state is pure
        rng = np.random.default_rng(51)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            state = random_separable(n, rng)
            for q in range(n):
                rho = reduced_single_qubit(state.amps, q, n)
                purity = np.real(np.trace(rho @ rho))
                assert abs(purity - 1.0) < 1e-10

    def test_seed_determinism(self):
        a = random_separable(4, 123)
        b = random_separable(4, 123)
        c = random_separable(4, 124)
        np.testing.assert_array_equal(a.amps, b.amps)
        assert np.abs(a.amps - c.amps).max() > 1e-3


class TestRandomArbitrary:
    def test_norm_across_draws(self):
        rng = np.random.default_rng(52)
        for _ in range(1000):
            assert abs(np.linalg.norm(random_arbitrary(3, rng).amps) - 1.0) < 1e-12

    def test_mean_reduced_purity_matches_haar_value(self):
        # Monte-Carlo oracle (10^5 draws) gives mean Tr(rho_q^2) = 0.7989,
        # matching the closed form (d_A + d_B)/(d_A d_B + 1) = 4/5 for a
        # Haar-uniform two-qubit pure state.
        rng = np.random.default_rng(53)
        draws = 20_000
        total = 0.0
        for _ in range(draws):
            amps = random_arbitrary(2, rng).amps
            rho = reduced_single_qubit(amps, 0, 2)
            total += np.real(np.trace(rho @ rho))
        assert total / draws == pytest.approx(0.8, abs=0.01)

    def test_seed_determinism(self):
        a = random_arbitrary(3, 7)
        b = random_arbitrary(3, 7)
        c = random_arbitrary(3, 8)
        np.testing.assert_array_equal(a.amps, b.amps)
        assert np.abs(a.amps - c.amps).max() > 1e-3


    @pytest.mark.parametrize("n", [2.5, 2.0, True, 0])
    def test_qubit_count_must_be_an_integer(self, n):
        for make in (random_arbitrary, random_separable, ghz_state, w_state):
            with pytest.raises(ValueError, match="qubit count must be an integer >= 1"):
                make(n)

    def test_numpy_integer_qubit_count_accepted(self):
        np.testing.assert_array_equal(random_arbitrary(np.int64(3), 7).amps, random_arbitrary(3, 7).amps)


class TestRandomStreamsPinned:
    # Literals captured before random_separable shared its angle draw with
    # UnitarySpec.random_separable and before random_estimate (the engine's
    # starting guess) was merged into random_arbitrary.
    def test_random_separable_amps(self):
        expected = [
            (0.2870190773739293 + 0j),
            (0.20764612090518578 - 0.5449502344493208j),
            (0.1712408792025603 + 0.060354005523410484j),
            (0.23847694861610116 - 0.28146380679591254j),
            (0.228923586729815 + 0.06693790712348345j),
            (0.29270849769747126 - 0.38622020012722047j),
            (0.12250441945276284 + 0.08807415073946921j),
            (0.2558491834737419 - 0.1688757304645784j),
        ]
        assert np.array_equal(random_separable(3, 5).amps, np.array(expected))

    def test_random_arbitrary_amps(self):
        expected = [
            (-0.19919327750466118 + 0.18598239125401536j),
            (-0.3289600589583796 + 0.4060668806351438j),
            (-0.0616910174032539 + 0.06775355691326403j),
            (0.10443519526003102 - 0.30634886112748505j),
            (0.2821847667746634 - 0.2380253235856982j),
            (0.027250181943224913 + 0.39743179575114806j),
            (-0.13727312288203405 + 0.0503943566749262j),
            (-0.19493309051069319 - 0.43024827994053916j),
        ]
        assert np.array_equal(random_arbitrary(3, 5).amps, np.array(expected))
