"""Property tests over random sizes, unitaries and states (n <= 6): each
unitary kind is unitary with an inverting adjoint, the per-qubit kinds
round bit for bit as the in-place reference loop (n <= 8), the two Pauli
eigenprojectors of a qubit sum to the identity, and exact data is a fixed
point of every circuit's correction."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qptycho import (
    StateVector,
    UnitarySpec,
    circuit_settings,
    generate_dataset,
    normalize_dataset,
    u3_matrix,
)
from qptycho.states import PAULI_AXES, _project_amps

from conftest import circuit_correction
from oracles import gates_in_place, haar_state

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def specs(draw, max_n=6):
    """(n, spec) for every kind, with aqft degrees 1..n."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(("qft", "aqft", "hadamard", "separable")))
    if kind == "aqft":
        return n, UnitarySpec.aqft(draw(st.integers(1, n)))
    if kind == "separable":
        return n, UnitarySpec.random_separable(n, draw(SEEDS))
    return n, UnitarySpec(kind)


@settings(max_examples=40, deadline=None)
@given(case=specs())
def test_every_unitary_is_unitary_and_its_adjoint_inverts_it(case):
    n, spec = case
    eye = np.eye(1 << n, dtype=np.complex128)
    # Kernels act row by row, so row j of the result is U applied to e_j.
    rows = spec.apply_amps(eye, n)
    np.testing.assert_allclose(rows @ rows.conj().T, eye, rtol=0, atol=1e-12)
    np.testing.assert_allclose(spec.apply_amps(rows, n, adjoint=True), eye, rtol=0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 8),
    kind=st.sampled_from(("hadamard", "separable")),
    adjoint=st.booleans(),
    batch=st.sampled_from(((), (3,), (2, 3))),
    strided=st.booleans(),
    seed=SEEDS,
)
def test_per_qubit_kinds_round_as_the_in_place_loop(n, kind, adjoint, batch, strided, seed):
    rng = np.random.default_rng(seed)
    if kind == "hadamard":
        spec = UnitarySpec.hadamard()
        gates = [np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)] * n
    else:
        spec = UnitarySpec.random_separable(n, rng)
        gates = [u3_matrix(*triple) for triple in spec.angles]
        if adjoint:
            gates = [g.conj().T for g in gates]
    width = (2 if strided else 1) << n
    buffer = rng.standard_normal(batch + (width,)) + 1j * rng.standard_normal(batch + (width,))
    before = buffer.copy()
    amps = buffer[..., ::2] if strided else buffer
    out = spec.apply_amps(amps, n, adjoint=adjoint)
    expected = gates_in_place(amps, gates)
    assert out.shape == amps.shape
    assert np.array_equal(out.view(np.float64), expected.view(np.float64))
    assert np.array_equal(buffer.view(np.float64), before.view(np.float64))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), axis=st.sampled_from(PAULI_AXES), data=st.data(), seed=SEEDS)
def test_the_two_projectors_of_a_qubit_sum_to_the_identity(n, axis, data, seed):
    qubit = data.draw(st.integers(0, n - 1))
    amps = haar_state(n, np.random.default_rng(seed))
    plus, minus = _project_amps(amps, axis, qubit)
    total = plus + minus
    np.testing.assert_allclose(total, amps, rtol=0, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(case=specs(), seed=SEEDS, beta=st.floats(0.05, 2.0))
def test_exact_data_is_a_fixed_point_of_every_correction(case, seed, beta):
    n, spec = case
    state = StateVector(n, haar_state(n, np.random.default_rng(seed)))
    targets = normalize_dataset(generate_dataset(state, spec, 0))
    for circuit, pair in zip(circuit_settings(n), targets.reshape(3 * n, 2, 1 << n)):
        out = circuit_correction(state.amps, n, circuit, pair, spec, beta)
        np.testing.assert_allclose(out, state.amps, rtol=0, atol=1e-12)
