"""Shared fixtures: standard small operators and conforming-scheme builders."""

import numpy as np
import pytest

from wayaudit import ConservedQuantity, MeasurementModel, linalg
from wayaudit.linalg import dagger, haar_unitary, random_hermitian

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
LA_DIAG = np.diag([1.0, 2.0]).astype(complex)


def block_bases(d):
    """The orthonormal basis of each eigenvalue block of a ``BlockDecomposition``, in block order."""
    starts = np.cumsum((0, *d.dims))
    return [d.vectors[:, a:b] for a, b in zip(starts, starts[1:])]


def sweep_stack(kind, n1, n2):
    """The shape of the largest per-trial stack a sweep of ``kind`` forms, which sizes its chunks: the
    bound audit's standard normals, as complex entries, the counterexample sweep's (n1, n1, n2) pointer
    blocks."""
    return (2 * n1 * n1 + 2 * n2 * n2 + n1 + n2,) if kind == "bound-audit" else (n1, n1, n2)


def chunk_sizes(count, stack):
    """The trials of each chunk of a sweep of ``count`` trials whose largest per-trial stack has
    the shape ``stack`` (``linalg.sweep_chunks``)."""
    return [len(trials) for trials, _ in linalg.sweep_chunks(0, count, stack)]


def chunk_size(stack):
    """The trials of a full sweep chunk for the per-trial stack ``stack``: the first chunk of a long sweep."""
    return len(next(linalg.sweep_chunks(0, 1 << 40, stack))[0])


@pytest.fixture
def cnot_model():
    return MeasurementModel(2, 2, I2.copy(), E0.copy(), CNOT.copy())


@pytest.fixture
def identity_model():
    return MeasurementModel(2, 2, I2.copy(), E0.copy(), np.eye(4, dtype=complex))


@pytest.fixture
def cnot_quantity():
    return ConservedQuantity("multiplicative", LA_DIAG.copy(), I2.copy())


def make_conforming_model(n1, n2, rng):
    """Exact nondestructive conserving scheme for an observable commuting with
    the system factor.

    The system factor is diagonal in a Haar-random measured basis; the block
    unitaries are functions of the apparatus factor (so they commute with it)
    with discrete-Fourier phases, which makes the pointer states orthonormal
    for any n1 <= n2.
    """
    assert n1 <= n2
    w = haar_unitary(n1, rng)
    basis = w.T.copy()
    avals = rng.uniform(0.5, 2.0, n1)
    la = (w * avals) @ dagger(w)
    la = (la + dagger(la)) / 2.0
    lb = random_hermitian(n2, rng)
    _, bvecs = np.linalg.eigh(lb)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n2))
    ready = (bvecs @ phases) / np.sqrt(n2)
    omega = np.exp(2j * np.pi / n2)
    u = np.zeros((n1 * n2, n1 * n2), dtype=complex)
    for i in range(n1):
        vi = (bvecs * omega ** (i * np.arange(n2))) @ dagger(bvecs)
        u += np.kron(np.outer(basis[i], basis[i].conj()), vi)
    model = MeasurementModel(n1, n2, basis, ready, u)
    quantity = ConservedQuantity("multiplicative", la, lb)
    return model, quantity
