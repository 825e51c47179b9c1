"""Write tests/fixtures/geometric_5x9.json, the D = 45 model of the large goldens.

The model conserves LA (x) LB with LA = diag(2^k) on 5 levels and LB = diag(2^k)
on 9: its unitary is Haar on each eigenspace of the product, so it commutes with
it. The ready state is a random unit vector and the observable and probe are
random Hermitian matrices. Everything is drawn with numpy from one seed.

    python tests/make_geometric_fixture.py
"""

import json
from pathlib import Path

import numpy as np

N1, N2, SEED = 5, 9, 45
PATH = Path(__file__).resolve().parent / "fixtures" / f"geometric_{N1}x{N2}.json"


def haar(dim, rng):
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def hermitian(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2.0


def block_unitary(la, lb, rng):
    """Haar unitary on each eigenspace of the diagonal product LA (x) LB."""
    joint = np.kron(la, lb)
    u = np.zeros((joint.size, joint.size), dtype=complex)
    for value in np.unique(joint):
        idx = np.flatnonzero(joint == value)
        u[np.ix_(idx, idx)] = haar(idx.size, rng)
    return u


def pairs(a):
    """A complex array as nested [re, im] pairs of Python floats."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def main():
    rng = np.random.default_rng(SEED)
    la, lb = 2.0 ** np.arange(N1), 2.0 ** np.arange(N2)
    ready = rng.standard_normal(N2) + 1j * rng.standard_normal(N2)
    doc = {
        "n1": N1,
        "n2": N2,
        "ready_state": pairs(ready / np.linalg.norm(ready)),
        "unitary": pairs(block_unitary(la, lb, rng)),
        "conserved": {"kind": "multiplicative", "LA": pairs(np.diag(la)), "LB": pairs(np.diag(lb))},
        "observable": pairs(hermitian(N1, rng)),
        "probe": pairs(hermitian(N2, rng)),
    }
    PATH.write_text(json.dumps(doc) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
