"""Tests for the gate library: unitarity, derivatives, aliases."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantum import gates
from repro.quantum.gates import (
    GATES,
    batched_gate_gradients,
    batched_gate_matrix,
    canonical_name,
    controlled,
    gate_gradients,
    gate_matrix,
    gate_num_params,
    gate_num_qubits,
    gate_spec,
    is_parameterized,
)

ANGLES = st.floats(min_value=-2 * np.pi, max_value=2 * np.pi,
                   allow_nan=False, allow_infinity=False)


def _random_params(name, rng):
    return rng.uniform(-np.pi, np.pi, size=gate_num_params(name))


@pytest.mark.parametrize("name", sorted(GATES))
def test_every_gate_matrix_is_unitary(name):
    rng = np.random.default_rng(0)
    params = _random_params(name, rng)
    matrix = gate_matrix(name, params)
    dim = 2 ** gate_num_qubits(name)
    assert matrix.shape == (dim, dim)
    assert np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=1e-10)


@pytest.mark.parametrize("name", sorted(GATES))
def test_gate_gradients_match_finite_differences(name):
    if not is_parameterized(name):
        assert gate_gradients(name, ()) == ()
        return
    rng = np.random.default_rng(1)
    params = _random_params(name, rng)
    grads = gate_gradients(name, params)
    assert len(grads) == gate_num_params(name)
    eps = 1e-6
    for index, grad in enumerate(grads):
        plus = np.array(params)
        minus = np.array(params)
        plus[index] += eps
        minus[index] -= eps
        numeric = (gate_matrix(name, plus) - gate_matrix(name, minus)) / (2 * eps)
        assert np.allclose(grad, numeric, atol=1e-6), name


def test_alias_resolution():
    assert canonical_name("CNOT") == "cx"
    assert canonical_name("ZZ") == "rzz"
    assert canonical_name("zx") == "rzx"
    assert canonical_name("XX") == "rxx"
    assert canonical_name("p") == "u1"


def test_unknown_gate_raises():
    with pytest.raises(KeyError):
        gate_spec("definitely_not_a_gate")


def test_registry_names_and_aliases_resolve_to_the_same_spec():
    assert gate_spec("cx") is GATES["cx"]
    assert gate_spec("CNOT") is GATES["cx"]
    assert gate_spec("Phase") is GATES["u1"]


def test_wrong_param_count_raises():
    with pytest.raises(ValueError):
        gate_matrix("rx", ())
    with pytest.raises(ValueError):
        gate_matrix("u3", (0.1,))


@pytest.mark.parametrize(
    "name,params", [("rx", (0.1, 0.2)), ("u3", (0.1,)), ("cx", (0.3,))]
)
@pytest.mark.parametrize(
    "constructor",
    ["gate_matrix", "gate_gradients", "batched_gate_matrix",
     "batched_gate_gradients"],
)
def test_every_constructor_checks_the_parameter_count(constructor, name, params):
    message = (
        f"gate '{name}' expects {GATES[name].num_params} parameters, "
        f"got {len(params)}"
    )
    if constructor.startswith("batched"):
        params = np.array([params, params])
    with pytest.raises(ValueError, match=re.escape(message)):
        getattr(gates, constructor)(name, params)


@pytest.mark.parametrize("shape", [(), (3,), (2, 1, 1)])
@pytest.mark.parametrize(
    "constructor", [batched_gate_matrix, batched_gate_gradients]
)
def test_batched_constructors_take_2d_parameter_arrays(constructor, shape):
    with pytest.raises(ValueError, match="2-D"):
        constructor("rx", np.zeros(shape))


def test_batched_fixed_gates_broadcast_their_matrix():
    matrices = batched_gate_matrix("cx", np.zeros((3, 0)))
    assert matrices.shape == (3, 4, 4)
    assert not matrices.flags.writeable
    for matrix in matrices:
        np.testing.assert_array_equal(matrix, gate_matrix("cx"))
    assert batched_gate_gradients("cx", np.zeros((3, 0))) == ()


def test_controlled_structure():
    u = gate_matrix("u3", (0.3, 0.2, 0.1))
    cu = controlled(u)
    assert np.allclose(cu[:2, :2], np.eye(2))
    assert np.allclose(cu[2:, 2:], u)
    assert np.allclose(cu[:2, 2:], 0)


@settings(max_examples=25, deadline=None)
@given(theta=ANGLES, phi=ANGLES, lam=ANGLES)
def test_u3_decomposes_into_rz_ry_rz(theta, phi, lam):
    """U3(t, p, l) equals RZ(p) RY(t) RZ(l) up to a global phase."""
    u3 = gate_matrix("u3", (theta, phi, lam))
    composed = gate_matrix("rz", (phi,)) @ gate_matrix("ry", (theta,)) @ gate_matrix(
        "rz", (lam,)
    )
    # strip global phase via the largest-magnitude entry
    index = np.unravel_index(np.argmax(np.abs(u3)), u3.shape)
    if abs(composed[index]) < 1e-12:
        return
    phase = u3[index] / composed[index]
    assert np.allclose(u3, phase * composed, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(theta=ANGLES)
def test_rotation_periodicity(theta):
    """R(theta + 4*pi) == R(theta) for all standard rotations."""
    for name in ("rx", "ry", "rz", "rzz"):
        a = gate_matrix(name, (theta,))
        b = gate_matrix(name, (theta + 4 * np.pi,))
        assert np.allclose(a, b, atol=1e-8)


def test_sh_is_square_root_of_h():
    sh = gate_matrix("sh")
    h = gate_matrix("h")
    assert np.allclose(sh @ sh, h, atol=1e-10)


def test_sqswap_is_square_root_of_swap():
    sqswap = gate_matrix("sqswap")
    swap = gate_matrix("swap")
    assert np.allclose(sqswap @ sqswap, swap, atol=1e-10)


def test_cz_symmetry():
    cz = gate_matrix("cz")
    swap = gate_matrix("swap")
    assert np.allclose(swap @ cz @ swap, cz)
