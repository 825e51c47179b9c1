"""Write tests/fixtures/rotated_2x3.json, the model of the rotated epsilon golden.

The model conserves LA (x) LB with LA of spectrum (1, 2) and LB of spectrum
(1, 2, 4), each in a Haar-random eigenbasis drawn from a fresh seed-8 stream
(the factors of ``ROTATED_2X3`` in tests/test_commutant.py): the product's
eigenspaces have sizes (1, 2, 2, 1) and complex eigenvectors, so the
optimizer's eigenvector coordinates are no permutation of the joint basis. The unitary is the
identity, the ready state a random unit vector, and the observable and probe
random Hermitian matrices, drawn from seed 9. Everything is drawn with numpy.

    python tests/make_rotated_fixture.py
"""

import json
from pathlib import Path

import numpy as np

from make_geometric_fixture import haar, hermitian, pairs

N1, N2, FACTOR_SEED, SEED = 2, 3, 8, 9
PATH = Path(__file__).resolve().parent / "fixtures" / f"rotated_{N1}x{N2}.json"


def rotated(spectrum, rng):
    """A Hermitian matrix with the given spectrum in a Haar-random eigenbasis."""
    w = haar(len(spectrum), rng)
    h = (w * spectrum) @ w.conj().T
    return (h + h.conj().T) / 2.0


def main():
    la, lb = (rotated(spectrum, np.random.default_rng(FACTOR_SEED)) for spectrum in ([1.0, 2.0], [1.0, 2.0, 4.0]))
    rng = np.random.default_rng(SEED)
    ready = rng.standard_normal(N2) + 1j * rng.standard_normal(N2)
    doc = {
        "n1": N1,
        "n2": N2,
        "ready_state": pairs(ready / np.linalg.norm(ready)),
        "unitary": pairs(np.eye(N1 * N2)),
        "conserved": {"kind": "multiplicative", "LA": pairs(la), "LB": pairs(lb)},
        "observable": pairs(hermitian(N1, rng)),
        "probe": pairs(hermitian(N2, rng)),
    }
    PATH.write_text(json.dumps(doc) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
