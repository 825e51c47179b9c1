import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import I2, LA_DIAG, X, Z, E0, block_bases
from wayaudit import commutant, linalg, noise, theorem
from wayaudit.cli import load_model
from wayaudit.commutant import (
    STOP_REASONS,
    BlockDecomposition,
    SearchConfig,
    SearchResult,
    commutant_unitary,
    conserved_eigenspaces,
    default_probe_states,
    feasibility_search,
    minimize_epsilon,
)
from wayaudit.errors import PreconditionError
from wayaudit.linalg import (
    anti_hermitian_exp_stack,
    commutator,
    dagger,
    haar_from_ginibre,
    haar_unitary,
    random_hermitian,
    random_state_vector,
    random_state_vector_stack,
    tensor_product_stack,
)
from wayaudit.model import ConservedQuantity, conservation_residual_stack, conserved_operator
from wayaudit.theorem import CounterexampleConfig, counterexample_sweep

seeds = st.integers(min_value=0, max_value=2**32 - 1)
GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def quantity(la, lb, kind="multiplicative"):
    return ConservedQuantity(kind, np.asarray(la, dtype=complex), np.asarray(lb, dtype=complex))


def joint_eigensystem(la, lb):
    """Joint eigenvalues and eigenvector columns of stacked factor eigensystems, as the package
    builds them: ``_joint_spectrum``, then ``_joint_vectors``."""
    (la_values, la_vectors), (lb_values, lb_vectors) = la, lb
    values, order = commutant._joint_spectrum(la_values, lb_values)
    return values, commutant._joint_vectors(la_vectors, lb_vectors, order)


def rotated(spectrum, rng):
    """A Hermitian matrix with the given spectrum in a Haar-random eigenbasis."""
    w = haar_unitary(len(spectrum), rng)
    h = (w * spectrum) @ w.conj().T
    return (h + h.conj().T) / 2.0


# 2x3 factor spectra whose products repeat, by the block sizes of their product
REPEATED_SPECTRA = {
    (1, 2, 2, 1): ([1.0, 2.0], [1.0, 2.0, 4.0]),
    (2, 2, 2): ([1.0, 1.0], [1.0, 2.0, 3.0]),
    (1,) * 6: ([1.0, 3.0], [1.0, 1.5, 2.0]),
}


def _factor_cases():
    """Quantities on four kinds of factor spectra: Haar-rotated generic ones, Haar-rotated
    repeated ones, geometric diagonal ones at 5x9, and the cnot quantity (LB = 1);
    and one additive quantity."""
    rng = np.random.default_rng(23)
    cases = {
        f"generic_{n1}x{n2}": quantity(*(rotated(rng.uniform(0.5, 2.0, n), rng) for n in (n1, n2)))
        for n1, n2 in ((2, 3), (3, 5), (5, 9))
    }
    for dims, (a, b) in REPEATED_SPECTRA.items():
        cases[f"repeated_{'_'.join(map(str, dims))}"] = quantity(rotated(a, rng), rotated(b, rng))
    cases["geometric_5x9"] = quantity(np.diag(2.0 ** np.arange(5)), np.diag(2.0 ** np.arange(9)))
    cases["cnot"] = quantity(LA_DIAG, I2)
    # the optimizer also takes additive quantities: eigenvalue sums, blocks (1, 2, 2, 1)
    cases["additive_2x3"] = quantity(rotated([1.0, 2.0], rng), rotated([1.0, 2.0, 3.0], rng), kind="additive")
    return cases


FACTOR_CASES = _factor_cases()
# the generic, repeated and geometric cases one at a time, then the repeated ones as one stack
DIRECT_COLUMN_CASES = [[name] for name in FACTOR_CASES if name.startswith(("generic", "repeated", "geometric"))]
DIRECT_COLUMN_CASES.append([name for name in FACTOR_CASES if name.startswith("repeated")])


class TestConservedEigenspaces:
    def test_identity_factor_two_blocks(self):
        d = conserved_eigenspaces(quantity(LA_DIAG, I2))
        assert d.dims == (2, 2)
        assert d.values.tolist() == [1.0, 1.0, 2.0, 2.0]

    def test_distinct_product_spectrum(self):
        d = conserved_eigenspaces(quantity(LA_DIAG, np.diag([1.0, 2.0])))
        # joint spectrum 1, 2, 2, 4 groups into dims 1, 2, 1
        assert d.dims == (1, 2, 1)

    def test_grouping_below_tolerance(self):
        d = conserved_eigenspaces(quantity(np.diag([1.0, 1.0 + 1e-12]), np.eye(1)))
        assert d.dims == (2,)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        q = quantity(random_hermitian(2, rng), random_hermitian(3, rng))
        d = conserved_eigenspaces(q)
        joint = conserved_operator(q)
        means = [block.mean() for block in np.split(d.values, np.cumsum(d.dims)[:-1])]
        rebuilt = sum(mean * (b @ b.conj().T) for mean, b in zip(means, block_bases(d)))
        assert np.linalg.norm(joint - rebuilt) <= 1e-9
        assert sum(d.dims) == len(d.values) == len(d.vectors)


class TestFactorEigensystem:
    """The decomposition built from the factors against ``eigh`` of LA (x) LB, and the
    joint V blockdiag(U_k) V^dag against the per-block sum of B_k U_k B_k^dag."""

    @pytest.mark.parametrize("q", FACTOR_CASES.values(), ids=FACTOR_CASES.keys())
    def test_matches_joint_eigh(self, q):
        joint = conserved_operator(q)
        scale = np.linalg.norm(joint, 2)
        values, vectors = np.linalg.eigh(joint)
        dims = tuple(commutant._blocks(values[None])[1].tolist())
        d = conserved_eigenspaces(q)
        assert np.abs(d.values - values).max() <= 1e-13 * scale
        assert d.dims == dims
        for ours, theirs in zip(block_bases(d), block_bases(BlockDecomposition(values, vectors, dims)), strict=True):
            assert np.linalg.norm(ours @ ours.conj().T - theirs @ theirs.conj().T) <= 1e-12

    @pytest.mark.parametrize("q", FACTOR_CASES.values(), ids=FACTOR_CASES.keys())
    def test_assembly_matches_per_block_sum(self, q):
        d = conserved_eigenspaces(q)
        point = _start(d, [np.random.default_rng(6)])
        assert not point.blocks[_off_block(d.dims)].any()
        per_block = sum(_reference_parts(d, _block_unitaries(point, d.dims)))
        assert np.abs(point.joint - per_block).max() <= 1e-14

    @pytest.mark.parametrize("names", DIRECT_COLUMN_CASES, ids=["+".join(names) for names in DIRECT_COLUMN_CASES])
    def test_direct_columns_match_sorted_kronecker(self, names):
        # the sorted columns of wa (x) wb, gathered from the full Kronecker stack, bit for bit
        la = np.stack([FACTOR_CASES[name].system_op for name in names])
        lb = np.stack([FACTOR_CASES[name].apparatus_op for name in names])
        vectors = joint_eigensystem(np.linalg.eigh(la), np.linalg.eigh(lb))[1]
        assert vectors.tobytes() == _reference_columns(la, lb).tobytes()

    def test_sampled_unitaries_conserve_at_5x9(self):
        qs = [FACTOR_CASES["generic_5x9"], FACTOR_CASES["geometric_5x9"]]
        la, lb = np.stack([q.system_op for q in qs]), np.stack([q.apparatus_op for q in qs])
        rngs = [np.random.default_rng((4, i)) for i in range(len(qs))]
        u = commutant.FactoredCommutant(np.linalg.eigh(la), np.linalg.eigh(lb), rngs).assembled()
        for ui, q in zip(u, qs):
            joint = conserved_operator(q)
            assert np.linalg.norm(commutator(ui, joint)) <= 1e-12 * np.linalg.norm(joint, 2)


class TestAssembly:
    """``_assembled``, the one assembly of V blockdiag(U_k) V^dag, against the dense product
    V M V^dag with the block unitaries on the diagonal of a zero-filled M."""

    @staticmethod
    def pair(vectors, dims, rng):
        """(assembled, dense) for one draw of block unitaries."""
        blocks = commutant._block_unitaries(*_layout([dims]), [rng])
        m = np.zeros(vectors.shape, dtype=complex)
        for at, unitaries in blocks.values():
            m[at[:, :, None], at[:, None, :]] = unitaries
        return commutant._assembled(vectors[None], blocks)[0], vectors @ m @ dagger(vectors)

    def test_one_block_kernel(self, monkeypatch):
        # every U is moved by its blocks in ``_moved``: once per assembly, and once per images call
        calls = []
        moved = commutant._moved

        def counted(*args):
            calls.append(args)
            return moved(*args)

        monkeypatch.setattr(commutant, "_moved", counted)
        rng = np.random.default_rng(33)
        d = conserved_eigenspaces(quantity(*(rotated(spectrum, rng) for spectrum in REPEATED_SPECTRA[(2, 2, 2)])))
        commutant_unitary(d, rng)
        assert len(calls) == 1
        la, lb = (np.linalg.eigh(rotated(spectrum, rng)[None]) for spectrum in REPEATED_SPECTRA[(2, 2, 2)])
        factored = commutant.FactoredCommutant(la, lb, [rng])
        factored.assembled()
        assert len(calls) == 2
        factored.images(np.eye(2)[None], np.eye(3)[None, :1])
        assert len(calls) == 3

    @pytest.mark.parametrize("dims", REPEATED_SPECTRA)
    def test_matches_dense_product_in_rotated_factors(self, dims):
        rng = np.random.default_rng(31)
        for _ in range(5):
            d = conserved_eigenspaces(quantity(*(rotated(spectrum, rng) for spectrum in REPEATED_SPECTRA[dims])))
            assert d.dims == dims
            assembled, dense = self.pair(d.vectors, d.dims, rng)
            assert np.abs(assembled - dense).max() <= 1e-14

    @pytest.mark.parametrize("dims", [(1, 2, 2, 1), (2, 2, 2), (1,) * 6, (3, 3), (3, 1, 1, 1, 1, 1, 1), (2, 3, 1, 4)])
    def test_bit_identical_for_permutations(self, dims):
        # every nonzero entry is a product of one 1 and one block entry in both; only the
        # sign of a zero entry, a sum of signed zero products, may differ (x + 0.0 clears it)
        rng = np.random.default_rng(32)
        for _ in range(50):
            vectors = np.eye(sum(dims), dtype=complex)[:, rng.permutation(sum(dims))]
            assembled, dense = self.pair(vectors, dims, rng)
            assert (assembled + 0.0).tobytes() == (dense + 0.0).tobytes()


class TestDrawnEigensystems:
    """The sweeps take each factor's eigensystem from its draw (``linalg.sorted_eigensystem``)
    and run no ``eigh``; each stream ends a chunk where a replay of its draws ends."""

    SIZES = [(2, 3), (3, 5), (5, 9)]

    @staticmethod
    def streams(count, seed=7):
        return [np.random.default_rng((seed, trial)) for trial in range(count)]

    @staticmethod
    def factors(n1, n2, rngs, zero=None):
        """A chunk's factors from the leading values of its first two stream calls, which both sweeps
        share: la, then lb (the audit's, traceless where ``zero`` holds), with their eigensystems."""
        (la_spectrum, lb_spectrum), (la_normals, lb_normals) = linalg.stream_draws(
            rngs, ((*linalg.FACTOR_SPECTRUM, n1), (*linalg.FACTOR_SPECTRUM, n2)), ((2, n1, n1), (2, n2, n2))
        )
        if zero is not None:
            lb_spectrum = noise._apparatus_spectra(lb_spectrum, zero)
        return (
            linalg.spectral_operator_stack(la_spectrum, la_normals),
            linalg.spectral_operator_stack(lb_spectrum, lb_normals),
        )

    @pytest.mark.parametrize("kind", ["counterexample", "bound-audit"])
    def test_chunk_calls_no_eigh(self, monkeypatch, kind):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh on the sweep path")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        if kind == "counterexample":
            report = counterexample_sweep(CounterexampleConfig(n1=3, n2=5, count=72, seed=7))  # one chunk at 3x5
            assert len(report.columns["trial"]) == 72
        else:
            report = noise.bound_audit_sweep(noise.AuditConfig(n1=2, n2=3, count=40, seed=7))
            assert report.summary.robertson_violations == 0

    # one chunk each, and two at 5x9 with 300 trials (291 and 9)
    @pytest.mark.parametrize("n1, n2, count", [(3, 5, 300), (5, 9, 40), (5, 9, 300)])
    def test_counterexample_chunk_forms_no_joint_stack(self, monkeypatch, n1, n2, count):
        # no eigenvector matrix V, no assembled U and so no U^dag U: the pointers are read in factor space
        def refuse(*args, **kwargs):
            raise AssertionError("a (chunk, D, D) stack on the counterexample path")

        monkeypatch.setattr(commutant, "_assembled", refuse)
        monkeypatch.setattr(commutant, "_joint_vectors", refuse)
        report = counterexample_sweep(CounterexampleConfig(n1=n1, n2=n2, count=count, seed=7))
        assert len(report.columns["trial"]) == count

    @pytest.mark.parametrize("n1, n2", SIZES)
    @pytest.mark.parametrize("mode", ["positive", "zero"])
    def test_drawn_eigensystem_diagonalizes_the_stored_factor(self, n1, n2, mode):
        zero = None if mode == "positive" else np.ones(40, dtype=bool)
        for op, (values, vectors) in self.factors(n1, n2, self.streams(40), zero):
            assert np.all(np.diff(values, axis=-1) >= 0.0)
            residual = linalg.frobenius_norm_stack(op @ vectors - vectors * values[:, None, :])
            assert np.all(residual <= 1e-13 * np.linalg.norm(op, 2, axis=(-2, -1)))

    @pytest.mark.parametrize("n1, n2", SIZES)
    @pytest.mark.parametrize("mode", ["positive", "zero"])
    def test_block_sizes_match_conserved_eigenspaces(self, n1, n2, mode):
        zero = None if mode == "positive" else np.ones(40, dtype=bool)
        (la, la_eigensystem), (lb, lb_eigensystem) = self.factors(n1, n2, self.streams(40), zero)
        values, _ = joint_eigensystem(la_eigensystem, lb_eigensystem)
        for i, dims in enumerate(_row_sizes(*commutant._blocks(values), values.shape)):
            assert dims == conserved_eigenspaces(quantity(la[i], lb[i])).dims

    @pytest.mark.parametrize("n1, n2", SIZES)
    @pytest.mark.parametrize("mode", ["positive", "zero"])
    def test_sampled_unitaries_conserve_the_stored_product(self, n1, n2, mode):
        zero = None if mode == "positive" else np.ones(40, dtype=bool)
        rngs = self.streams(40)
        (la, la_eigensystem), (lb, lb_eigensystem) = self.factors(n1, n2, rngs, zero)
        u = commutant.FactoredCommutant(la_eigensystem, lb_eigensystem, rngs).assembled()
        assert np.all(conservation_residual_stack(u, tensor_product_stack(la, lb)) <= 1e-12)

    @staticmethod
    def replayed(trial, n1, n2, dims, audit):
        """A trial's stream after its chunk, replayed as the three calls of a trial, whatever its regime."""
        rng = np.random.default_rng((7, trial))
        if audit:
            rng.random(n1 + n2 + 1 + n2)  # la's and lb's spectra, the ready state's phase, the Yanase probe's spectrum
            # la's and lb's Ginibre matrices, the ready state, the observable, the probe, psi
            rng.standard_normal(2 * n1 * n1 + 2 * n2 * n2 + 2 * n2 + 2 * n1 * n1 + 2 * n2 * n2 + 2 * n1)
        else:
            rng.random(n1 + n2)  # la's and lb's spectra
            rng.standard_normal(2 * n1 * n1 + 2 * n2 * n2 + 2 * n2)  # la's and lb's Ginibre matrices, the ready state
        rng.standard_normal(2 * sum(d * d for d in dims))  # the commutant blocks
        return rng

    @pytest.mark.parametrize("n1, n2", SIZES)
    @pytest.mark.parametrize("audit", [False, True], ids=["counterexample", "bound-audit"])
    def test_streams_end_where_a_per_draw_replay_ends(self, n1, n2, audit):
        count = 12
        trials = range(count)
        zero = np.asarray(trials) % 4 >= 2 if audit else None
        (la, _), (lb, _) = self.factors(n1, n2, self.streams(count), zero)
        rngs = self.streams(count)
        if audit:
            noise._audit_chunk(noise.AuditConfig(n1=n1, n2=n2, count=count, seed=7), trials, rngs)
        else:
            theorem._sweep_chunk(CounterexampleConfig(n1=n1, n2=n2, count=count, seed=7), trials, rngs)
        for trial, rng in zip(trials, rngs):
            dims = conserved_eigenspaces(quantity(la[trial], lb[trial])).dims
            expected = self.replayed(trial, n1, n2, dims, audit)
            assert rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("n1, n2", [(3, 5), (5, 9)])
    @pytest.mark.parametrize("audit", [False, True], ids=["counterexample", "bound-audit"])
    def test_mixed_block_structures_draw_their_remainder(self, monkeypatch, n1, n2, audit):
        # lattice spectra 2^k, k in {0, 1, 2}, patched over the drawn ones, give blocks above size 1, whose
        # normals past the first 2 D come from a third call: each stream ends where its three-call replay
        # ends, and each block unitary has the bits of that replay's third call, split block by block
        module, made = noise if audit else theorem, []
        drawn, lattice = module.stream_draws, np.random.default_rng(14)

        def patched(rngs, uniforms, normals):
            spectra, rest = drawn(rngs, uniforms, normals)
            for spectrum in spectra[:2]:  # la's, then lb's
                spectrum[:] = 2.0 ** lattice.integers(0, 3, spectrum.shape)
            return spectra, rest

        class Kept(commutant.FactoredCommutant):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(module, "stream_draws", patched)
        monkeypatch.setattr(module, "FactoredCommutant", Kept)
        count = 24
        trials, rngs = range(count), self.streams(count)
        if audit:
            noise._audit_chunk(noise.AuditConfig(n1=n1, n2=n2, count=count, seed=7), trials, rngs)
        else:
            theorem._sweep_chunk(CounterexampleConfig(n1=n1, n2=n2, count=count, seed=7), trials, rngs)
        (factored,) = made
        rows = _row_sizes(*commutant._blocks(factored.values), factored.values.shape)
        assert len(set(rows)) > 10 and max(max(dims) for dims in rows) > 2
        for trial, (rng, dims) in enumerate(zip(rngs, rows)):
            assert rng.bit_generator.state == self.replayed(trial, n1, n2, dims, audit).bit_generator.state
            replay = self.replayed(trial, n1, n2, (), audit)  # its first two calls; a third of no values draws none
            for size, stack in _reference_block_unitaries(dims, [replay]).items():
                positions, unitaries = factored.blocks[size]
                assert unitaries[positions[:, 0] // (n1 * n2) == trial].tobytes() == stack.tobytes()


def _reference_columns(la, lb):
    """The eigenvector columns of la (x) lb as a full Kronecker stack of the factors'
    eigenvectors, gathered in the stable ascending order of the eigenvalue products."""
    la_values, la_vectors = np.linalg.eigh(la)
    lb_values, lb_vectors = np.linalg.eigh(lb)
    order = np.argsort((la_values[:, :, None] * lb_values[:, None, :]).reshape(len(la), -1), axis=-1, kind="stable")
    return np.take_along_axis(tensor_product_stack(la_vectors, lb_vectors), order[:, None, :], axis=-1)


def _reference_block_unitaries(dims, rngs):
    """Haar block unitaries per size, split from each stream's draw one block at a time."""
    raw = np.stack([rng.standard_normal(2 * sum(d * d for d in dims)) for rng in rngs])
    ginibres, start = [], 0
    for d in dims:
        block = raw[:, start : start + 2 * d * d].reshape(len(rngs), 2, d, d)
        ginibres.append((block[:, 0] + 1j * block[:, 1]) / np.sqrt(2.0))
        start += 2 * d * d
    return {
        size: haar_from_ginibre(np.stack([z for z, d in zip(ginibres, dims) if d == size], axis=1))
        for size in sorted(set(dims))
    }


def _reference_positions(dims, size):
    """The (m, size) positions of the m blocks of size ``size`` in one row of block sizes ``dims``."""
    return np.array([range(start, start + d) for start, d in zip(np.cumsum((0, *dims)), dims) if d == size])


def _layout(rows):
    """The layout ``_blocks`` gives a stack whose rows have the block sizes ``rows``, one tuple per row."""
    sizes = np.array([size for dims in rows for size in dims])
    return np.cumsum(sizes) - sizes, sizes


def _row_sizes(first, sizes, shape):
    """The block sizes of each row of a (k, D) stack, as tuples, from its layout (``_blocks``)."""
    row = first // shape[1]
    return [tuple(sizes[row == i].tolist()) for i in range(shape[0])]


class TestBlockDraws:
    """One gather per block size splits each stream's draw as a per-block loop does, whatever the
    block structure of each stream's row."""

    @pytest.mark.parametrize("dims", [(1, 2, 2, 1), (2, 2, 2), (3, 1, 1, 1, 1, 1, 1), (1,) * 15])
    @pytest.mark.parametrize("streams", [1, 4])
    def test_gather_matches_per_block_split(self, dims, streams):
        rngs = [np.random.default_rng((12, i)) for i in range(streams)]
        ours = commutant._block_unitaries(*_layout([dims] * streams), rngs)
        reference = _reference_block_unitaries(dims, [np.random.default_rng((12, i)) for i in range(streams)])
        assert list(ours) == list(reference)
        for size, stack in reference.items():
            positions, unitaries = ours[size]
            assert unitaries.shape == (streams * dims.count(size), size, size) and stack.shape[0] == streams
            assert unitaries.tobytes() == stack.tobytes()
            expected = [at + i * sum(dims) for i in range(streams) for at in _reference_positions(dims, size)]
            assert positions.tolist() == np.array(expected).tolist()

    def test_mixed_structures_match_each_streams_own_split(self):
        # each stream draws its own row's blocks, as a chunk of that stream alone would
        rows = [(1, 2, 2, 1), (2, 2, 2), (1,) * 6, (3, 3), (2, 2, 2), (1, 2, 2, 1), (6,)]
        ours = commutant._block_unitaries(*_layout(rows), [np.random.default_rng((13, i)) for i in range(len(rows))])
        assert list(ours) == sorted({size for dims in rows for size in dims})
        for i, dims in enumerate(rows):
            reference = _reference_block_unitaries(dims, [np.random.default_rng((13, i))])
            for size, stack in reference.items():
                positions, unitaries = ours[size]
                mine = positions[:, 0] // 6 == i
                assert unitaries[mine].tobytes() == stack.tobytes()
                assert (positions[mine] - 6 * i).tolist() == _reference_positions(dims, size).tolist()

    def test_one_haar_call_per_block_size(self, monkeypatch):
        # a chunk of lattice spectra 2^k, k in {0, 1, 2}, at 3x5: many block structures, one draw per block size
        calls = []

        def counted(z):
            calls.append(z.shape[-1])
            return haar_from_ginibre(z)

        monkeypatch.setattr(commutant, "haar_from_ginibre", counted)
        rng = np.random.default_rng(14)
        spectra = (np.sort(2.0 ** rng.integers(0, 3, (64, n)), axis=-1) for n in (3, 5))
        la, lb = ((values, np.tile(np.eye(values.shape[1]), (64, 1, 1))) for values in spectra)
        commutant.FactoredCommutant(la, lb, [np.random.default_rng((14, i)) for i in range(64)])
        values, _ = commutant._joint_spectrum(la[0], lb[0])
        structures = [_reference_block_sizes(row) for row in values]
        assert len(set(structures)) > 10
        assert sorted(calls) == sorted({size for dims in structures for size in dims})


class TestRandomCommutantUnitary:
    def test_single_block_is_plain_unitary(self):
        d = conserved_eigenspaces(quantity(I2, I2))
        u = commutant_unitary(d, np.random.default_rng(3))
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12

    def test_all_singleton_blocks_diagonalish(self):
        q = quantity(LA_DIAG, np.diag([1.0, 3.0]))
        d = conserved_eigenspaces(q)
        u = commutant_unitary(d, np.random.default_rng(3))
        joint = conserved_operator(q)
        assert np.linalg.norm(commutator(u, joint)) <= 1e-10

    def test_block_structure_conserves(self):
        q = quantity(LA_DIAG, I2)
        d = conserved_eigenspaces(q)
        u = commutant_unitary(d, np.random.default_rng(8))
        # oracle: direct commutator with the joint operator
        assert np.linalg.norm(commutator(u, conserved_operator(q))) <= 1e-10

    def test_deterministic(self):
        d = conserved_eigenspaces(quantity(LA_DIAG, I2))
        np.testing.assert_array_equal(
            commutant_unitary(d, np.random.default_rng(5)),
            commutant_unitary(d, np.random.default_rng(5)),
        )

    def test_stack_matches_batches_of_one(self):
        # one chunk at 2x3 mixing block structures, each in Haar-rotated factors
        order = [(1, 2, 2, 1), (2, 2, 2), (1,) * 6, (2, 2, 2), (1, 2, 2, 1), (1,) * 6]
        rng = np.random.default_rng(17)
        quantities = [quantity(*(rotated(spectrum, rng) for spectrum in REPEATED_SPECTRA[dims])) for dims in order]
        assert [conserved_eigenspaces(q).dims for q in quantities] == order
        la = np.stack([q.system_op for q in quantities])
        lb = np.stack([q.apparatus_op for q in quantities])
        rngs = [np.random.default_rng((9, i)) for i in range(6)]
        stacked = commutant.FactoredCommutant(np.linalg.eigh(la), np.linalg.eigh(lb), rngs).assembled()
        for i, q in enumerate(quantities):
            expected = commutant_unitary(conserved_eigenspaces(q), np.random.default_rng((9, i)))
            assert stacked[i].tobytes() == expected.tobytes()


class TestFactoredImages:
    """``FactoredCommutant.images`` applies U to product inputs in factor space, and ``require_valid`` checks
    what it applies; the reference assembles U (``FactoredCommutant.assembled``) and applies it densely."""

    # 3x5 factor spectra: generic, one block of size 3 per apparatus level, and sizes 1, 2 and 3 mixed
    SPECTRA = {
        "generic": ([0.7, 1.1, 1.9], [0.6, 0.9, 1.3, 1.7, 1.95]),
        "triple": ([1.0, 1.0, 1.0], [0.6, 0.9, 1.3, 1.7, 1.95]),
        "geometric": ([1.0, 2.0, 4.0], [1.0, 2.0, 4.0, 8.0, 16.0]),
        "mixed": ([1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 5.0, 7.0]),
    }
    NAMES = ["generic", "triple", "generic", "geometric", "mixed", "triple", "generic", "mixed"]

    @staticmethod
    def eigensystems(names, rng):
        """Stacks of (ascending values, Haar eigenvector columns) for la and lb, one trial per name."""
        factors = []
        for part in (0, 1):
            values = np.array([TestFactoredImages.SPECTRA[name][part] for name in names])
            vectors = np.stack([haar_unitary(values.shape[1], rng) for _ in names])
            factors.append((values, vectors))
        return factors

    def factored(self, names, seed):
        la, lb = self.eigensystems(names, np.random.default_rng(seed))
        return commutant.FactoredCommutant(la, lb, [np.random.default_rng((seed, i)) for i in range(len(names))])

    def test_images_match_the_assembled_unitary(self):
        factored = self.factored(self.NAMES, 23)
        assert len({_reference_block_sizes(row) for row in factored.values}) == 4  # four block structures
        assert list(factored.blocks) == [1, 2, 3]  # blocks of sizes 1 to 3
        (a, b) = (random_state_vector_stack(normals) for normals in linalg.normal_draws(
            [np.random.default_rng((24, i)) for i in range(len(self.NAMES))], (2, 4, 3), (2, 4, 5)
        ))
        ours = factored.images(a, b)
        reference = linalg.matvec_stack(factored.assembled()[:, None], linalg.product_state(a, b))
        assert ours.shape == (len(self.NAMES), 4, 3, 5)
        assert np.abs(ours.reshape(reference.shape) - reference).max() <= 1e-12

    def test_images_match_batches_of_one(self):
        # the chunk's four block structures apply, trial by trial, the bytes of a chunk of that trial alone
        trials = range(len(self.NAMES))
        la, lb = self.eigensystems(self.NAMES, np.random.default_rng(32))
        normals = linalg.normal_draws([np.random.default_rng((33, i)) for i in trials], (2, 4, 3), (2, 4, 5))
        a, b = (random_state_vector_stack(rows) for rows in normals)
        chunk = commutant.FactoredCommutant(la, lb, [np.random.default_rng((34, i)) for i in trials]).images(a, b)
        for i in trials:
            one = [(values[i : i + 1], vectors[i : i + 1]) for values, vectors in (la, lb)]
            alone = commutant.FactoredCommutant(*one, [np.random.default_rng((34, i))])
            assert chunk[i].tobytes() == alone.images(a[i : i + 1], b[i : i + 1])[0].tobytes()

    @pytest.mark.parametrize("basis", ["computational", "rotated"])
    def test_broadcast_rows_give_the_pointer_blocks(self, basis):
        # the measured basis against every trial's ready state: row i of image j is w(i, j) for the identity basis
        factored = self.factored(self.NAMES, 25)
        rng = np.random.default_rng(26)
        rows = np.eye(3, dtype=complex) if basis == "computational" else haar_unitary(3, rng).T
        ready = np.stack([random_state_vector(5, rng) for _ in self.NAMES])
        images = factored.images(rows[None], ready[:, None])
        ours = rows.conj() @ images  # <u(i)| (x) 1 on each image: w(i, j) at [t, j, i]
        # w(i, j) = (<u(i)| (x) 1) U (|u(j)> (x) |v>), one block at a time from the assembled U
        reference = np.array([
            [[np.kron(rows[i].conj()[None], np.eye(5)) @ u @ np.kron(rows[j], v) for i in range(3)] for j in range(3)]
            for u, v in zip(factored.assembled(), ready)
        ])
        assert ours.shape == reference.shape == (len(self.NAMES), 3, 3, 5)
        assert np.abs(ours - reference).max() <= 1e-12

    def test_require_valid_checks_the_applied_unitaries(self):
        # the factors' eigenvector matrices and each block-unitary stack of size above 1
        factored = self.factored(["generic", "mixed", "triple"], 27)
        factored.require_valid(0.0)  # size-1 and exactly degenerate blocks: a block residual of exactly 0
        _, mixed, triple = _row_sizes(*commutant._blocks(factored.values), factored.values.shape)
        assert sorted(set(mixed)) == [1, 2, 3] and set(triple) == {3}
        for size, trial in ((2, 1), (3, 2)):  # a block of the mixed trial, then one of the triple trial
            positions, unitaries = factored.blocks[size]
            (block,) = np.flatnonzero(positions[:, 0] // 15 == trial)[:1]
            unitaries[block] *= 1.001
            with pytest.raises(PreconditionError, match="^interaction: not unitary"):
                factored.require_valid(linalg.VERDICT_TOL)
            unitaries[block] /= 1.001
        factored.la = (factored.la[0], 1.001 * factored.la[1])
        with pytest.raises(PreconditionError, match="^interaction: not unitary"):
            factored.require_valid(linalg.VERDICT_TOL)

    def test_require_valid_refuses_a_grouping_chain_wider_than_tol(self, monkeypatch):
        # grouped within 0.5, each block spans eigenvalues far apart: its residual ||[B, Lambda]||_F is
        # ||U^dag L U - L||_F of the assembled U, which does not conserve L
        monkeypatch.setattr(commutant, "GROUPING_TOL", 0.5)
        la, lb = self.eigensystems(["generic"] * 4, np.random.default_rng(30))
        factored = commutant.FactoredCommutant(la, lb, [np.random.default_rng((31, i)) for i in range(4)])
        assert max(factored.blocks) > 1
        dense = conservation_residual_stack(factored.assembled(), tensor_product_stack(
            *(vectors * values[:, None, :] @ dagger(vectors) for values, vectors in (la, lb))
        ))
        with pytest.raises(PreconditionError, match=re.escape(f"check_conserved: residual {dense[0]:.3e} exceeds 1.000e-09")):
            factored.require_valid(linalg.VERDICT_TOL)

    def test_assembly_sorts_the_products_once(self, monkeypatch):
        # assembled() builds V's columns from the order kept at construction, with the bytes a second sort gave
        names = ["generic", "triple", "geometric", "mixed", "generic"]
        la, lb = self.eigensystems(names, np.random.default_rng(28))
        factored = commutant.FactoredCommutant(la, lb, [np.random.default_rng((29, i)) for i in range(len(names))])
        _, vectors = joint_eigensystem(la, lb)
        expected = commutant._assembled(vectors, factored.blocks)

        def refuse(*args, **kwargs):
            raise AssertionError("a second sort of the joint spectrum")

        monkeypatch.setattr(commutant, "_joint_spectrum", refuse)
        assert factored.assembled().tobytes() == expected.tobytes()


def _reference_block_sizes(row):
    """The block sizes of one row of ascending eigenvalues, read off its gaps one by one."""
    starts = [0] + [i + 1 for i, gap in enumerate(np.diff(row) > linalg.GROUPING_TOL) if gap]
    return tuple(b - a for a, b in zip(starts, starts[1:] + [len(row)]))


class TestBlockSizes:
    """``_blocks`` lays out a stack's blocks in one pass over its flattened rows."""

    @pytest.mark.parametrize(
        "names", [["generic"] * 3, ["generic", "triple", "geometric", "mixed", "triple", "generic"]]
    )
    def test_one_pass_matches_per_row_grouping(self, names):
        spectra = TestFactoredImages.SPECTRA
        values, _ = commutant._joint_spectrum(*(np.array([spectra[name][part] for name in names]) for part in (0, 1)))
        first, sizes = commutant._blocks(values)
        structures = _row_sizes(first, sizes, values.shape)
        assert len(set(structures)) == len(set(names))
        assert structures == [_reference_block_sizes(row) for row in values]
        assert first.tolist() == [at for i, dims in enumerate(structures) for at in np.cumsum((15 * i, *dims))[:-1]]

    def test_single_level(self):
        # D = 1: one block, for every row
        first, sizes = commutant._blocks(np.ones((4, 1)))
        assert first.tolist() == [0, 1, 2, 3] and sizes.tolist() == [1, 1, 1, 1]


class TestProjectGenerator:
    """The optimizer's chart of the commutant: its generators, placed in their
    blocks, are the block-diagonal anti-Hermitian matrices, and its steps conserve."""

    @staticmethod
    def joint(decomposition, theta):
        """V K(theta) V^dag for the chart's generator K of the parameter vector theta."""
        k = commutant._Chart(decomposition.dims).generator(theta)
        return decomposition.vectors @ k @ decomposition.vectors.conj().T

    def test_block_diagonal_unchanged(self):
        d = conserved_eigenspaces(quantity(LA_DIAG, I2))
        k = np.zeros((4, 4), dtype=complex)
        k[:2, :2] = 1j * np.array([[1.0, 2.0], [2.0, -1.0]])
        # a block's parameters: its diagonal phases, then the real and imaginary part of entry (0, 1)
        out = self.joint(d, np.array([1.0, -1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0]))
        assert np.abs(out - k).max() <= 1e-12

    def test_cross_block_zeroed(self):
        d = conserved_eigenspaces(quantity(LA_DIAG, I2))
        out = self.joint(d, np.random.default_rng(0).standard_normal(8))
        assert np.abs(out[:2, 2:]).max() <= 1e-12 and np.abs(out[2:, :2]).max() <= 1e-12
        assert np.abs(out[:2, :2]).max() > 0.1 and np.abs(out[2:, 2:]).max() > 0.1

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_exponential_conserves(self, seed):
        rng = np.random.default_rng(seed)
        w = haar_unitary(3, rng)
        q = quantity(LA_DIAG, (w * [1.0, 2.0, 4.0]) @ w.conj().T)  # blocks (1, 2, 2, 1)
        d = conserved_eigenspaces(q)
        point = _start(d, [rng])
        theta = rng.standard_normal(len(point.chart.pairs[0]))
        k = point.chart.generator(theta)
        assert np.linalg.norm(k + k.conj().mT) <= 1e-12
        moved = point.stepped(theta, point.ready)
        assert np.linalg.norm(moved.blocks.conj().T @ moved.blocks - np.eye(6)) <= 1e-12
        assert np.linalg.norm(commutator(moved.joint, conserved_operator(q))) <= 1e-10


class TestDefaultProbeStates:
    def test_count_and_norms(self):
        states = default_probe_states(LA_DIAG)
        assert len(states) == 3  # 2 eigenvectors + 1 pair
        for s in states:
            assert abs(np.linalg.norm(s) - 1.0) <= 1e-12


class TestMinimizeEpsilon:
    def test_commuting_scheme_reaches_zero(self):
        q = quantity(LA_DIAG, I2)
        config = SearchConfig(seed=5, restarts=4, max_iter=500)
        result = minimize_epsilon(q, np.diag([1.0, 2.0]), np.diag([1.0, 2.0]), E0, config=config)
        assert result.best_objective <= 1e-6

    def test_noncommuting_observable_floor(self):
        q = quantity(LA_DIAG, I2)
        config = SearchConfig(seed=5, restarts=8, max_iter=500)
        result = minimize_epsilon(q, X, Z, E0, config=config)
        assert all(f > 1e-3 for f in result.restart_objectives)

    def test_trivial_quantity_unconstrained(self):
        q = quantity(I2, I2)
        config = SearchConfig(seed=5, restarts=4, max_iter=800)
        result = minimize_epsilon(q, X, Z, E0, config=config)
        assert result.best_objective <= 1e-6

    def test_requires_config(self):
        q = quantity(LA_DIAG, I2)
        with pytest.raises(TypeError, match="config"):
            minimize_epsilon(q, X, Z, E0)

    def test_deterministic(self):
        q = quantity(LA_DIAG, I2)
        config = SearchConfig(seed=12, restarts=2, max_iter=60)
        a = minimize_epsilon(q, X, Z, E0, config=config)
        b = minimize_epsilon(q, X, Z, E0, config=config)
        assert a.best_objective == b.best_objective
        np.testing.assert_array_equal(a.best_unitary, b.best_unitary)
        assert a.objective_trace == b.objective_trace
        assert a.restart_objectives == b.restart_objectives


@pytest.mark.parametrize("field", ["restarts", "max_iter"])
def test_search_config_rejects_a_zero_budget(field):
    with pytest.raises(ValueError, match=f"^{field} must be at least 1$"):
        SearchConfig(seed=0, **{field: 0})


class TestSearchInvariants:
    def _result(self) -> SearchResult:
        q = quantity(LA_DIAG, I2)
        config = SearchConfig(seed=3, restarts=3, max_iter=120)
        return minimize_epsilon(q, X, Z, E0, config=config)

    def test_trace_monotone_and_best_is_min(self):
        result = self._result()
        values = [v for _, v in result.objective_trace]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert abs(result.best_objective - min(values)) <= 1e-12

    def test_best_unitary_conserves(self):
        result = self._result()
        joint = conserved_operator(quantity(LA_DIAG, I2))
        assert np.linalg.norm(commutator(result.best_unitary, joint)) <= 1e-9

    def test_restart_count(self):
        result = self._result()
        assert result.restarts_used == 3
        assert len(result.restart_objectives) == 3


class TestFeasibilitySearch:
    def test_commuting_observable_feasible(self):
        q = quantity(LA_DIAG, I2)
        config = SearchConfig(seed=7, restarts=4, max_iter=500)
        result = feasibility_search(q, np.diag([1.0, 2.0]), config=config)
        assert result.best_objective <= 1e-8

    def test_noncommuting_observable_floor(self):
        q = quantity(LA_DIAG, I2)
        config = SearchConfig(seed=7, restarts=8, max_iter=500)
        result = feasibility_search(q, X, config=config)
        assert all(f > 1e-3 for f in result.restart_objectives)

    def test_wide_apparatus_allowed(self):
        # outside the no-go regime (n2 >= 2 n1) the search simply runs
        q = quantity(LA_DIAG, np.eye(4, dtype=complex))
        config = SearchConfig(seed=2, restarts=2, max_iter=200)
        result = feasibility_search(q, X, config=config)
        assert result.restarts_used == 2
        assert np.isfinite(result.best_objective)

    @pytest.mark.parametrize(
        "search, argument",
        [
            (lambda q, a: feasibility_search(q, a, config=SearchConfig(seed=1)), "observable"),
            (lambda q, a: minimize_epsilon(q, a, Z, E0, config=SearchConfig(seed=1)), "observable"),
            (lambda q, a: minimize_epsilon(q, X, a, E0, config=SearchConfig(seed=1)), "probe"),
        ],
    )
    def test_non_hermitian_input_is_named(self, search, argument):
        with pytest.raises(PreconditionError, match=f"^{argument}: not Hermitian") as raised:
            search(quantity(LA_DIAG, I2), [[0, 1], [0, 0]])
        assert raised.value.check == argument

    @pytest.mark.parametrize(
        "search, argument",
        [
            (lambda q, a, v: feasibility_search(q, a, config=SearchConfig(seed=1)), "observable"),
            (lambda q, a, v: minimize_epsilon(q, a, Z, E0, config=SearchConfig(seed=1)), "observable"),
            (lambda q, a, v: minimize_epsilon(q, X, a, E0, config=SearchConfig(seed=1)), "probe"),
            (lambda q, a, v: minimize_epsilon(q, X, Z, v, config=SearchConfig(seed=1)), "ready_state"),
        ],
    )
    def test_wrong_dimension_is_named(self, search, argument):
        # n1 = n2 = 2; a 3x3 operator that is not Hermitian either fails its dimension first
        with pytest.raises(ValueError, match=f"^{argument} must have dimension 2$"):
            search(quantity(LA_DIAG, I2), np.triu(np.ones((3, 3))), np.eye(3)[0])


def _pinned(result: SearchResult) -> dict:
    """Every bit of a search result: floats as hex, the best unitary as a digest of its bytes."""
    return {
        "best_objective": result.best_objective.hex(),
        "best_unitary_sha256": hashlib.sha256(result.best_unitary.tobytes()).hexdigest(),
        "objective_trace": [[it, value.hex()] for it, value in result.objective_trace],
        "restart_objectives": [value.hex() for value in result.restart_objectives],
        "restarts_used": result.restarts_used,
        "converged": result.converged,
        "best_ready_state_sha256": hashlib.sha256(result.best_ready_state.tobytes()).hexdigest(),
        "stop_reasons": list(result.stop_reasons),
        "restart_min_curvature": [value.hex() for value in result.restart_min_curvature],
    }


def _pinned_searches() -> dict:
    """Both objectives on two block sizes, short enough to stop at max_iter, with Gauss-Newton and
    second-order tries in each."""
    config = SearchConfig(seed=11, restarts=2, max_iter=6)
    return {
        "feasibility_blocks_1221": _pinned(
            feasibility_search(quantity(LA_DIAG, np.diag([1.0, 2.0, 4.0])), X, config=config)
        ),
        "epsilon_blocks_121": _pinned(
            minimize_epsilon(quantity(LA_DIAG, np.diag([1.0, 2.0])), X, Z, E0, config=config)
        ),
    }


class TestSearchGoldens:
    def test_search_results_bit_identical(self):
        expected = json.loads((GOLDEN / "search_results.json").read_text())
        assert _pinned_searches() == expected


# Per-matrix reference versions of the optimizer's stacked computations.


def _reference_pairs(dim):
    return [(a, b) for a in range(dim) for b in range(a + 1, dim)]


def _reference_factor(dim, param, t):
    """exp(t * G_param), one canonical generator at a time."""
    f = np.eye(dim, dtype=complex)
    if param < dim:
        f[param, param] = np.exp(1j * t)
        return f
    pair, kind = divmod(param - dim, 2)
    a, b = _reference_pairs(dim)[pair]
    c, s = np.cos(t), np.sin(t)
    f[a, a] = c
    f[b, b] = c
    f[a, b] = s if kind == 0 else 1j * s
    f[b, a] = -s if kind == 0 else 1j * s
    return f


def _reference_generator(theta, dim):
    """The anti-Hermitian generator with parameter row theta, entry by entry."""
    k = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        k[a, a] = 1j * theta[a]
    for idx, (a, b) in enumerate(_reference_pairs(dim)):
        t_re, t_im = theta[dim + 2 * idx], theta[dim + 2 * idx + 1]
        k[a, b] += t_re + 1j * t_im
        k[b, a] += -t_re + 1j * t_im
    return k


def _reference_block_exp(theta, dim):
    h = -1j * _reference_generator(theta, dim)
    values, vectors = np.linalg.eigh((h + h.conj().T) / 2.0)
    return (vectors * np.exp(1j * values)) @ vectors.conj().T


def _reference_parts(d, unitaries):
    """B_k U_k B_k^dag per block."""
    return [basis @ v @ basis.conj().T for basis, v in zip(block_bases(d), unitaries)]


def _reference_joint(d, unitaries):
    """V M V^dag, with the block unitaries placed on the diagonal of M in block order."""
    m = np.zeros(d.vectors.shape, dtype=complex)
    for start, v in zip(np.cumsum((0, *d.dims)), unitaries):
        m[start : start + len(v), start : start + len(v)] = v
    return d.vectors @ m @ d.vectors.conj().T


def _block_unitaries(point, dims):
    """The point's unitaries in block order, read off the diagonal of its ``blocks``."""
    starts = np.cumsum((0, *dims))
    return [point.blocks[a:b, a:b] for a, b in zip(starts, starts[1:])]


def _with_block(point, dims, i, unitary):
    """A copy of the point's ``blocks`` with block i replaced by ``unitary``."""
    starts = np.cumsum((0, *dims))
    blocks = point.blocks.copy()
    blocks[starts[i] : starts[i + 1], starts[i] : starts[i + 1]] = unitary
    return blocks


def _off_block(dims):
    """True on the entries of a (D, D) matrix that lie outside every diagonal block."""
    block = np.repeat(np.arange(len(dims)), dims)
    return block[:, None] != block[None, :]


def _parameter_order(dims):
    """Block indices in parameter order: block sizes ascending, the blocks of one size in block order."""
    return sorted(range(len(dims)), key=lambda i: dims[i])


def _parameter_rows(dims, theta):
    """theta split into each block's parameter row, {block index: row}."""
    ends = np.cumsum([dims[i] ** 2 for i in _parameter_order(dims)])
    assert ends[-1] == len(theta)
    return dict(zip(_parameter_order(dims), np.split(theta, ends[:-1])))


def _reference_chart_generator(dims, theta):
    """The (D, D) generator with each block's ``_reference_generator`` on its diagonal."""
    starts = np.cumsum((0, *dims))
    k = np.zeros((starts[-1], starts[-1]), dtype=complex)
    for i, row in _parameter_rows(dims, theta).items():
        k[starts[i] : starts[i + 1], starts[i] : starts[i + 1]] = _reference_generator(row, dims[i])
    return k


def _reference_feasibility(observable, ready):
    """||G - I||_F^2 for one joint unitary, pointer by pointer and entry by entry."""
    n1, n2 = observable.shape[0], len(ready)
    basis = np.linalg.eigh(observable)[1].T

    def objective(u):
        pointers = [basis[j].conj() @ (u @ np.kron(basis[j], ready)).reshape(n1, n2) for j in range(n1)]
        return sum(
            abs(np.vdot(pointers[i], pointers[j]) - (i == j)) ** 2 for i in range(n1) for j in range(n1)
        )

    return objective


def _reference_epsilon(observable, probe, ready, states):
    n1, n2 = observable.shape[0], probe.shape[0]
    probe_joint = np.kron(np.eye(n1), probe)
    obs_joint = np.kron(observable, np.eye(n2))
    joints = [np.kron(s, ready) for s in states]

    def objective(u):
        evolved = u.conj().T @ probe_joint @ u - obs_joint
        total = 0.0
        for psi in joints:
            w = evolved @ psi
            total += float(np.vdot(w, w).real)
        return total / len(joints)

    return objective


def _pointer_blocks(basis, u):
    """M_j = (<u_j| (x) 1) U (|u_j> (x) 1) for a (..., D, D) stack of joint unitaries, (..., n1, n2, n2)."""
    n1 = len(basis)
    n2 = u.shape[-1] // n1
    u = u.reshape(*u.shape[:-2], n1, n2, n1, n2)
    return np.einsum("ji,...iklm,jl->...jkm", basis.conj(), u, basis)


def _start(d, rngs):
    """An optimizer start on a fresh chart of ``d``, drawn from the one stream of ``rngs``."""
    return commutant._random_point(d.vectors, commutant._Chart(d.dims), rngs)


def _eigenvector_point(d, u, ready):
    """The optimizer's point B = V^dag U V of a joint unitary U, with the ready state v."""
    return commutant._BlockPoint(d.vectors, commutant._Chart(d.dims), dagger(d.vectors) @ u @ d.vectors, ready)


def _at(point, blocks, ready):
    """A point of the same decomposition with the given ``blocks`` and ready state."""
    return commutant._BlockPoint(point.vectors, point.chart, blocks, ready)


def _problem(monkeypatch, search, *args):
    """The residual problem a search hands to its restarts."""
    captured = {}

    def capture(problem, config):
        captured["problem"] = problem

    monkeypatch.setattr(commutant, "_search", capture)
    search(*args, config=SearchConfig(seed=0))
    return captured["problem"]


def _factor(spectrum_or_matrix):
    """A conserved factor: diag of a spectrum, or a Hermitian matrix as given."""
    return spectrum_or_matrix if np.ndim(spectrum_or_matrix) == 2 else np.diag(spectrum_or_matrix)


def _operators(la, lb):
    """The seeded observable, probe and ready state of ``_problems`` on la (x) lb (see ``_factor``)."""
    rng = np.random.default_rng(4)
    observable, probe = random_hermitian(len(la), rng), random_hermitian(len(lb), rng)
    return observable, probe, random_state_vector(len(lb), rng)


def _problems(la, lb):
    """Both residual problems on la (x) lb (see ``_factor``), with seeded observable, probe and
    ready state: {name: (problem, ready state)}."""
    observable, probe, ready = _operators(la, lb)
    n1, n2 = len(la), len(lb)
    d = conserved_eigenspaces(quantity(_factor(la), _factor(lb)))
    epsilon = commutant._Epsilon(
        d, np.kron(np.eye(n1), probe), np.kron(observable, np.eye(n2)), ready, default_probe_states(_factor(la))
    )
    feasibility = commutant._Feasibility(np.linalg.eigh(observable)[1].T, d)
    return {"epsilon": (epsilon, ready), "feasibility": (feasibility, ready)}


def _dense_generators(d):
    """B_k G_p B_k^dag as dense (D, D) matrices, for every block B_k (its columns of the
    eigenvector matrix) and canonical generator G_p, (parameters, D, D) in parameter order."""
    bases = block_bases(d)
    return np.stack([
        bases[i] @ _reference_generator(unit, d.dims[i]) @ dagger(bases[i])
        for i in _parameter_order(d.dims)
        for unit in np.eye(d.dims[i] ** 2)
    ])


def _dense_derivatives(name, la, lb, d, u, tangents, generators):
    """Both problems' Jacobians at the joint unitary u from the dense generator stack and the
    joint-basis operators of ``_operators``: dW_j = M_j(U K_p) v and dG = dW^dag W + W^dag dW for
    feasibility, and for epsilon [U^dag P U, K_p](psi (x) v), rotated by V^dag into the eigenvector
    coordinates of its residual."""
    observable, probe, ready = _operators(la, lb)
    if name == "epsilon":
        states = default_probe_states(_factor(la))
        x = np.stack([np.kron(s, ready) for s in states], axis=-1) / np.sqrt(len(states))
        a = dagger(u) @ np.kron(np.eye(len(la)), probe) @ u
        return dagger(d.vectors) @ (a @ (generators @ x) - generators @ (a @ x))
    basis = np.linalg.eigh(observable)[1].T
    m = _pointer_blocks(basis, u)
    w = m @ ready
    dw = np.concatenate([_pointer_blocks(basis, u @ generators) @ ready, (m @ tangents.T).transpose(2, 0, 1)])
    cross = dw.conj() @ w.mT
    return cross + cross.conj().mT


def _tangents(problem, ready):
    """The ready-state tangents that are parameters of ``problem``: the feasibility search's sphere
    tangents, and none for the epsilon search, whose ready state is fixed."""
    return problem.tangents(ready) if isinstance(problem, commutant._Feasibility) else np.empty((0, len(ready)))


def _jacobian(problem, point, ready):
    """J^T of ``problem`` at the point's blocks and the ready state, (parameters, residuals) as
    ``_descend`` builds it."""
    point = _at(point, point.blocks, ready)
    jac = problem.derivatives(point, commutant._scored(problem, point)[2])
    return jac.reshape(len(jac), -1).view(np.float64)


BLOCK_CASES = [
    ([1.0, 2.0], [1.0, 2.0, 4.0]),        # blocks (1, 2, 2, 1)
    ([1.0, 1.0, 2.0], [1.0, 2.0]),        # blocks (2, 3, 1)
    ([1.0, 5.0], [1.0, 1.0, 1.0]),        # two blocks of size 3
    ([1.0, 1.0, 1.0], [1.0, 1.0]),        # one block of size 6
    ([1.0, 2.0, 4.0], [1.0, 2.0, 4.0, 8.0, 16.0]),  # geometric 3x5: blocks (1, 2, 3, 3, 3, 2, 1)
]
GEOMETRIC_5X9 = (list(2.0 ** np.arange(5)), list(2.0 ** np.arange(9)))  # 13 blocks, up to size 5
# blocks (1, 2, 2, 1) in a complex eigenbasis: V is no permutation, and V^dag is not V^T
ROTATED_2X3 = tuple(rotated(spectrum, np.random.default_rng(8)) for spectrum in ([1.0, 2.0], [1.0, 2.0, 4.0]))


class TestOptimizerBitIdentity:
    """The optimizer's stacked pieces against per-parameter reference loops: bit for bit
    where the arithmetic is the same, to a set tolerance where it is not."""

    @pytest.mark.parametrize("la, lb", BLOCK_CASES)
    def test_jacobian_matches_central_differences(self, la, lb):
        """Jacobian and gradient of both objectives against central differences of the point B
        along exp(+-h G_p) per block and parameter, and along each ready-state tangent."""
        d = conserved_eigenspaces(quantity(np.diag(la), np.diag(lb)))
        point = _start(d, [np.random.default_rng(1)])
        unitaries = _block_unitaries(point, d.dims)
        assert np.array_equal(point.joint, _reference_joint(d, unitaries))  # V is a permutation: see TestAssembly
        parameters = len(point.chart.pairs[0])
        h = 1e-6
        for name, (problem, ready) in _problems(la, lb).items():
            tangents = _tangents(problem, ready)
            jac = _jacobian(problem, point, ready)
            points = []
            for i in _parameter_order(d.dims):
                size = d.dims[i]
                for p in range(size**2):
                    points.append([
                        _at(point, _with_block(point, d.dims, i, unitaries[i] @ _reference_factor(size, p, t)), ready)
                        for t in (h, -h)
                    ])
            for t in tangents:
                moved = [(ready + s * t) / np.linalg.norm(ready + s * t) for s in (h, -h)]
                points.append([_at(point, point.blocks, v) for v in moved])
            assert len(points) == len(jac) == parameters + len(tangents)
            scored = [[commutant._scored(problem, moved) for moved in pair] for pair in points]
            fd = np.stack([(plus[0] - minus[0]) / (2 * h) for plus, minus in scored])
            assert np.abs(jac - fd).max() <= 1e-8, name
            residual = commutant._scored(problem, _at(point, point.blocks, ready))[0]
            fd_grad = np.array([(plus[1] - minus[1]) / (2 * h) for plus, minus in scored])
            assert np.abs(2 * jac @ residual - fd_grad).max() <= 1e-8, name

    @pytest.mark.parametrize("la, lb", [*BLOCK_CASES, GEOMETRIC_5X9, ROTATED_2X3])
    def test_jacobian_matches_dense_generators(self, la, lb):
        """The two-entry gathers and the epsilon scatter give the Jacobian of the dense
        B_k G_p B_k^dag stack on the joint unitary."""
        d = conserved_eigenspaces(quantity(_factor(la), _factor(lb)))
        point = _start(d, [np.random.default_rng(1)])
        generators = _dense_generators(d)
        for name, (problem, ready) in _problems(la, lb).items():
            dense = _dense_derivatives(name, la, lb, d, point.joint, _tangents(problem, ready), generators)
            dense = dense.reshape(len(dense), -1).view(np.float64)
            jac = _jacobian(problem, point, ready)
            assert jac.shape == dense.shape, name
            assert np.abs(jac - dense).max() <= 1e-13 * np.abs(dense).max(), name

    @pytest.mark.parametrize("la, lb", BLOCK_CASES)
    def test_stepped_batch_matches_per_block_exp(self, la, lb):
        """One exponential of the scattered generator against each block's own exponential:
        the generator entry for entry, the step to 1e-14, and exact zeros off the blocks."""
        d = conserved_eigenspaces(quantity(np.diag(la), np.diag(lb)))
        point = _start(d, [np.random.default_rng(2)])
        thetas = np.random.default_rng(3).standard_normal((3, len(point.chart.pairs[0]))) * 0.1
        thetas[0, : min(d.dims) ** 2] = -0.0  # zero steps of the first block
        thetas[1, : min(d.dims) ** 2] = 0.0
        off = _off_block(d.dims)
        for theta in thetas:
            assert np.array_equal(point.chart.generator(theta), _reference_chart_generator(d.dims, theta))
            rows = _parameter_rows(d.dims, theta)
            expected = [
                v @ _reference_block_exp(rows[i], len(v)) for i, v in enumerate(_block_unitaries(point, d.dims))
            ]
            candidate = point.stepped(theta, point.ready)
            assert not candidate.blocks[off].any()
            for ours, reference in zip(_block_unitaries(candidate, d.dims), expected, strict=True):
                assert np.abs(ours - reference).max() <= 1e-14
            assert np.abs(candidate.joint - _reference_joint(d, expected)).max() <= 1e-14

    @pytest.mark.parametrize("la, lb", [*BLOCK_CASES, GEOMETRIC_5X9])
    def test_steps_keep_blocks_exactly(self, la, lb):
        """LAPACK's eigh splits the block-diagonal generator where its off-diagonal vanishes, so
        steps leave every off-block entry of ``blocks`` exactly zero and U conserving L."""
        q = quantity(np.diag(la), np.diag(lb))
        d = conserved_eigenspaces(q)
        joint = conserved_operator(q)
        scale = np.linalg.norm(joint, 2)
        off = _off_block(d.dims)
        point = _start(d, [np.random.default_rng(5)])
        rng = np.random.default_rng(6)
        for step in range(20):
            theta = rng.standard_normal(len(point.chart.pairs[0])) * [1e-3, 0.1, 1.0, 3.0][step % 4]
            point = point.stepped(theta, point.ready)
            assert not point.blocks[off].any()
            assert np.linalg.norm(commutator(point.joint, joint)) <= 1e-12 * scale

    @pytest.mark.parametrize("la, lb", [*BLOCK_CASES, GEOMETRIC_5X9])
    def test_exponential_needs_no_symmetrization(self, la, lb):
        """The scattered generator is anti-Hermitian entry by entry, so its exponential has the
        bits of the exponential of its symmetrized Hermitian part, zero steps included."""
        chart = commutant._Chart(conserved_eigenspaces(quantity(np.diag(la), np.diag(lb))).dims)
        size = len(chart.pairs[0])
        rng = np.random.default_rng(7)
        thetas = [np.zeros(size), -np.zeros(size)]
        thetas += [rng.standard_normal(size) * scale for scale in (1e-9, 1e-3, 0.1, 1.0, 3.0)]
        thetas[-1][: size // 2] = -0.0
        for theta in thetas:
            h = -1j * chart.generator(theta)
            values, vectors = np.linalg.eigh((h + dagger(h)) / 2.0)
            symmetrized = (vectors * np.exp(1j * values)[..., None, :]) @ dagger(vectors)
            assert anti_hermitian_exp_stack(chart.generator(theta)).tobytes() == symmetrized.tobytes()

    def test_one_exponential_per_try(self, monkeypatch):
        """A geometric 3x5 feasibility restart, three block sizes, retracts each try with one
        exponential; every try scores its candidate once, and the search assembles the joint
        V B V^dag once, for its best restart."""
        calls = {"exp": 0, "scored": 0, "joint": 0}
        joint = commutant._BlockPoint.joint

        def counted_joint(point):
            calls["joint"] += 1
            return joint.fget(point)

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(commutant, "anti_hermitian_exp_stack", counted("exp", commutant.anti_hermitian_exp_stack))
        monkeypatch.setattr(commutant, "_scored", counted("scored", commutant._scored))
        monkeypatch.setattr(commutant._BlockPoint, "joint", property(counted_joint))
        q = quantity(np.diag(BLOCK_CASES[-1][0]), np.diag(BLOCK_CASES[-1][1]))
        assert sorted(set(conserved_eigenspaces(q).dims)) == [1, 2, 3]
        observable = np.ones((3, 3)) - np.eye(3)
        result = feasibility_search(q, observable, config=SearchConfig(seed=0, restarts=1, max_iter=20))
        assert result.stop_reasons == ("max_iter",)
        tries = calls["scored"] - 1  # the starting point is scored before the first try
        assert tries == 20 and calls["exp"] == tries
        assert calls["joint"] == 1

    def test_feasibility_objective_matches_reference(self, monkeypatch):
        q = quantity(LA_DIAG, np.diag([1.0, 2.0, 4.0]))
        d = conserved_eigenspaces(q)
        stack = [commutant_unitary(d, np.random.default_rng(seed)) for seed in range(6)]
        stack.append(np.kron(X, np.eye(3)))  # moves every pointer off its diagonal
        ready = random_state_vector(3, np.random.default_rng(9))
        for observable in (X, Z):
            problem = _problem(monkeypatch, feasibility_search, q, observable)
            reference = _reference_feasibility(observable, ready)
            for u in stack:
                # the stacked contractions sum in another order than the loop
                value = commutant._scored(problem, _eigenvector_point(d, u, ready))[1]
                assert value == pytest.approx(reference(u), rel=1e-12, abs=1e-15)

    def test_epsilon_objective_matches_reference(self, monkeypatch):
        q = quantity(LA_DIAG, np.diag([1.0, 2.0]))
        problem = _problem(monkeypatch, minimize_epsilon, q, X, Z, E0)
        reference = _reference_epsilon(X, Z, E0, default_probe_states(LA_DIAG))
        d = conserved_eigenspaces(q)
        for u in [commutant_unitary(d, np.random.default_rng(seed)) for seed in range(6)]:
            value = commutant._scored(problem, _eigenvector_point(d, u, E0))[1]
            assert value == pytest.approx(reference(u), rel=1e-12, abs=1e-15)


def _reference_step(jac, residual, lam, s=0.0):
    """The damped step in parameter space: (J^T J + S + lam I) delta = -J^T r, (P,)."""
    return np.linalg.solve(jac @ jac.T + s + lam * np.eye(len(jac)), -(jac @ residual))


def _curvature(problem, point, ready):
    """S of ``problem`` at the point's blocks and the ready state, as ``_descend`` asks for it."""
    point = _at(point, point.blocks, ready)
    residual, _, computed = commutant._scored(problem, point)
    return problem.curvature(point, computed, residual)


class TestLevenbergMarquardtStep:
    """A Gauss-Newton try's step comes from one ``eigh`` of the smaller Gram matrix of J, a
    second-order try's from one ``eigh`` of J^T J + S in parameter space."""

    @pytest.mark.parametrize("la, lb", [*BLOCK_CASES, GEOMETRIC_5X9])
    def test_step_matches_parameter_space_solve(self, la, lb):
        """At random points, the step -axes (coefficients / (curvature + lam)) solves the P x P
        system, without S and with it, for lam from 1e-6 to 1e3 times the largest curvature (above
        -2 times the smallest, as ``_descend`` keeps it): to 1e-13 relative, or 1e-14 times the
        condition number of H + lam I where that is larger (curvature[-1] / lam without S; the
        rounding of J^T r alone moves the exact step by that much)."""
        d = conserved_eigenspaces(quantity(np.diag(la), np.diag(lb)))
        for seed in range(3):
            point = _start(d, [np.random.default_rng(seed)])
            for name, (problem, ready) in _problems(la, lb).items():
                jac = _jacobian(problem, point, ready)
                residual = commutant._scored(problem, _at(point, point.blocks, ready))[0]
                s = _curvature(problem, point, ready)
                for second in (None, s):
                    curvature, axes, coefficients = commutant._step_axes(jac, residual, jac @ residual, second)
                    # one axis per row of the smaller Gram matrix, or per parameter
                    assert axes.shape == (len(jac), len(jac) if second is s else min(jac.shape)), name
                    for scale in (1e-6, 1e-3, 1.0, 1e3):
                        lam = max(0.0, -2.0 * curvature[0]) + scale * curvature[-1]
                        delta = -axes @ (coefficients / (curvature + lam))
                        reference = _reference_step(jac, residual, lam, 0.0 if second is None else s)
                        if second is None:  # curvature[0] >= 0 and lam = scale * curvature[-1]
                            condition = curvature[-1] / lam
                        else:
                            condition = (curvature[-1] + lam) / (curvature[0] + lam)
                        tol = max(1e-13, 1e-14 * condition)
                        assert np.linalg.norm(delta - reference) <= tol * np.linalg.norm(reference), (name, scale)

    def test_feasibility_factors_the_residual_gram(self, monkeypatch):
        """A geometric 5x9 feasibility restart (R = 2 * 5^2 = 50 residuals, P = 185 + 18 = 203
        parameters) factors the 50 x 50 J J^T at its Gauss-Newton points and the 203 x 203
        J^T J + S at its second-order points, one ``eigh`` each, and never J^T J alone; the
        epsilon search on the cnot quantity (R = 2 * 4 * 3 = 24, P = 8) factors J^T J."""
        shapes, factored, eigh, step_axes = [], [], np.linalg.eigh, commutant._step_axes

        def recorded(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        def axes(jac, residual, grad, s=None):
            start = len(shapes)
            result = step_axes(jac, residual, grad, s)
            factored.append((s is not None, shapes[start:]))
            return result

        monkeypatch.setattr(commutant.np.linalg, "eigh", recorded)
        monkeypatch.setattr(commutant, "_step_axes", axes)
        config = SearchConfig(seed=0, restarts=1, max_iter=12)
        q = quantity(np.diag(GEOMETRIC_5X9[0]), np.diag(GEOMETRIC_5X9[1]))
        assert sum(size * size for size in conserved_eigenspaces(q).dims) + 2 * 9 == 203
        result = feasibility_search(q, np.ones((5, 5)) - np.eye(5), config=config)
        assert result.stop_reasons == ("max_iter",)
        assert {second for second, _ in factored} == {False, True}
        assert all(factors == ([(203, 203)] if second else [(50, 50)]) for second, factors in factored)
        assert shapes.count((203, 203)) == sum(second for second, _ in factored)
        shapes.clear()
        minimize_epsilon(quantity(LA_DIAG, I2), Z, Z, E0, config=config)
        assert (8, 8) in shapes and (24, 24) not in shapes


def _fixture_epsilon(monkeypatch, name):
    """The epsilon problem of a fixture's observable, probe and ready state."""
    loaded = load_model(str(FIXTURES / f"{name}.json"))
    args = (loaded.quantity, loaded.observable, loaded.probe, loaded.model.ready_state)
    return _problem(monkeypatch, minimize_epsilon, *args)


def _feasibility(la, lb, observable):
    return commutant._Feasibility(np.linalg.eigh(observable)[1].T, conserved_eigenspaces(quantity(la, lb)))


class TestCurvature:
    """S = sum_i r_i d^2 r_i of each search problem against central second differences of the pullback
    F(stepped(point, delta)), whose Hessian at delta = 0 is 2 (J^T J + S)."""

    CASES = {
        "feasibility_blocks_1221": lambda mp: _feasibility(LA_DIAG, np.diag([1.0, 2.0, 4.0]), X),
        "feasibility_geometric_3x5": lambda mp: _feasibility(
            np.diag(BLOCK_CASES[-1][0]), np.diag(BLOCK_CASES[-1][1]), np.ones((3, 3)) - np.eye(3)
        ),
        "epsilon_cnot": lambda mp: _fixture_epsilon(mp, "cnot"),
        "epsilon_rotated_2x3": lambda mp: _fixture_epsilon(mp, "rotated_2x3"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_central_differences(self, monkeypatch, case):
        problem, h = self.CASES[case](monkeypatch), 1e-4
        for seed in range(2):
            point = problem.start(np.random.default_rng((seed, 5)))
            residual, _, computed = commutant._scored(problem, point)
            jac = commutant._jacobian(problem, point, computed)
            s = problem.curvature(point, computed, residual)
            steps = np.eye(len(jac)) * h

            def f(delta):
                return commutant._scored(problem, problem.stepped(point, delta))[1]

            hessian = np.empty_like(s)
            for p in range(len(jac)):
                for q in range(p + 1):
                    plus, minus = steps[p] + steps[q], steps[p] - steps[q]
                    hessian[p, q] = hessian[q, p] = (f(plus) - f(minus) - f(-minus) + f(-plus)) / (4 * h * h)
            assert s.shape == (len(jac), len(jac)) and np.abs(s - s.T).max() <= 1e-14 * np.abs(s).max()
            assert np.abs(s).max() > 0.1
            assert np.abs(s - (hessian / 2 - jac @ jac.T)).max() <= 1e-6 * np.abs(s).max(), (case, seed)

    @pytest.mark.parametrize("la, lb", [BLOCK_CASES[0], BLOCK_CASES[-1], GEOMETRIC_5X9])
    def test_paired_trace_matches_dense_generators(self, la, lb):
        """The chained-entry tables give Re tr((G_p G_q + G_q G_p) C) of the dense generators."""
        chart = commutant._Chart(conserved_eigenspaces(quantity(np.diag(la), np.diag(lb))).dims)
        size = len(chart.pairs[0])
        dense = np.stack([chart.generator(unit) for unit in np.eye(size)])
        rng = np.random.default_rng(8)
        c = rng.standard_normal((chart.dim, chart.dim)) + 1j * rng.standard_normal((chart.dim, chart.dim))
        # tr(G_p G_q C) = sum_ab G_p[a, b] (G_q C)[b, a]
        products = dense.reshape(size, -1) @ (dense @ c).transpose(0, 2, 1).reshape(size, -1).T
        assert np.abs(chart.paired_trace(c) - (products + products.T).real).max() <= 1e-12 * np.abs(products).max()


class TestLeakSystem:
    """The feasibility search's leak system r' = (E_ij for i != j, the leaks l_j) (``_Feasibility.leak``)."""

    @pytest.mark.parametrize("la, lb", [*BLOCK_CASES, GEOMETRIC_5X9])
    def test_leak_norms_are_the_diagonal_residuals(self, la, lb):
        """|l_j|^2 = -E_jj for l_j = Q_j B c_j, Q_j = 1 - R_j L_j, and for its coordinates, the blocks w_ij (i != j)."""
        problem, _ = _problems(la, lb)["feasibility"]
        point = problem.start(np.random.default_rng(6))
        residual, _, computed = commutant._scored(problem, point)
        n1, (w, c) = len(problem.left), computed
        e = residual.view(complex).reshape(n1, n1)
        leak, _ = problem.leak(point, computed, residual)
        off = n1 * (n1 - 1)
        assert np.array_equal(leak[:off], e[~np.eye(n1, dtype=bool)])
        blocks = np.abs(leak[off:].reshape(n1, n1 - 1, -1)) ** 2  # w_ij for i != j, row-major
        from_blocks = np.zeros(n1)
        np.add.at(from_blocks, np.nonzero(~np.eye(n1, dtype=bool))[1], blocks.sum(axis=-1).ravel())
        projected = np.stack([np.eye(len(c.T)) - problem.right[j] @ problem.left[j] for j in range(n1)])
        direct = np.linalg.norm(projected @ point.blocks @ c[:, :, None], axis=(1, 2)) ** 2
        assert np.abs(e.diagonal().imag).max() <= 1e-15 and -e.diagonal().real.min() > 1e-3  # a real leak
        assert np.abs(from_blocks + e.diagonal().real).max() <= 1e-14
        assert np.abs(direct + e.diagonal().real).max() <= 1e-14

    @pytest.mark.parametrize("la, lb", BLOCK_CASES)
    def test_jacobian_matches_central_differences(self, la, lb):
        """The derivatives of r' along every generator and ready-state tangent, against central differences of
        r' at ``stepped(point, +-h e_p)``."""
        problem, _ = _problems(la, lb)["feasibility"]
        point, h = problem.start(np.random.default_rng(7)), 1e-6
        residual, _, computed = commutant._scored(problem, point)
        leak, jac = problem.leak(point, computed, residual)
        assert jac.shape == (len(point.chart.pairs[0]) + 2 * problem.n2, len(leak))

        def moved(delta):
            moved_point = problem.stepped(point, delta)
            moved_residual, _, moved_computed = commutant._scored(problem, moved_point)
            return problem.leak(moved_point, moved_computed, moved_residual)[0]

        fd = np.stack([(moved(step) - moved(-step)) / (2 * h) for step in np.eye(len(jac)) * h])
        assert np.abs(jac - fd).max() <= 1e-8


class _LinearProblem:
    """A least-squares problem that is no commutant search: the complex residual A x - b over real
    x, started at x0 and retracted by x + delta."""

    def __init__(self, a, b, x0):
        self.a, self.b, self.x0 = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex), np.asarray(x0, float)

    def start(self, rng):
        return self.x0

    def residual(self, x):
        return self.a @ x - self.b, None

    def derivatives(self, x, computed):
        return self.a.T.copy()  # row p: the derivative of the residual along x_p

    def curvature(self, x, computed, residual):
        return np.zeros((self.a.shape[1],) * 2)  # a linear residual has no second derivative

    def stepped(self, x, delta):
        return x + delta


class TestDescendProtocol:
    """``_descend`` knows a problem only through start, residual, derivatives and stepped."""

    def test_consistent_system_stops_at_zero(self):
        a = [[1.0, 1j], [2.0, 0.0], [0.5j, 1.0]]
        solution = np.array([0.5, -1.5])
        problem = _LinearProblem(a, np.asarray(a) @ solution, [3.0, 2.0])
        f, x, trace, reason, _ = commutant._descend(problem, np.random.default_rng(0), SearchConfig(seed=0))
        assert reason == "zero" and f <= commutant.ZERO_OBJECTIVE
        assert np.abs(x - solution).max() <= 1e-11
        assert trace[0] == (0, pytest.approx(np.linalg.norm(problem.residual(problem.x0)[0]) ** 2, rel=1e-15))

    def test_zero_gradient_stops_at_once(self):
        # r = (0, -1) at x = 0 and A^T r = 0 exactly: the start is a stationary point
        problem = _LinearProblem([[1.0], [0.0]], [0.0, 1.0], [0.0])
        f, x, trace, reason, lowest = commutant._descend(problem, np.random.default_rng(0), SearchConfig(seed=0))
        assert (f, x.tolist(), trace, reason, lowest) == (1.0, [0.0], [(0, 1.0)], "gradient", 1.0)

    def test_zero_curvature_keeps_the_trace(self, monkeypatch):
        """An inconsistent linear system (a nonzero floor) takes second-order steps with S = 0: J^T J in
        parameter space instead of the Gram route, the same step up to rounding, so the same trace."""
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
        problem = _LinearProblem(a, rng.standard_normal(9) + 1j * rng.standard_normal(9), rng.standard_normal(4))
        calls = []
        curvature = problem.curvature
        monkeypatch.setattr(problem, "curvature", lambda *args: calls.append(1) or curvature(*args))
        _, x, trace, reason, _ = commutant._descend(problem, np.random.default_rng(0), SearchConfig(seed=0))
        assert len(calls) > 1  # second-order steps besides the endpoint's certificate
        monkeypatch.setattr(commutant, "SLOW_PROGRESS", 0.0)  # Gauss-Newton throughout
        _, gn_x, gn_trace, gn_reason, _ = commutant._descend(problem, np.random.default_rng(0), SearchConfig(seed=0))
        assert reason == gn_reason == "no_decrease"
        assert [it for it, _ in trace] == [it for it, _ in gn_trace]
        assert np.allclose([v for _, v in trace], [v for _, v in gn_trace], rtol=1e-12, atol=0.0)
        assert np.abs(x - gn_x).max() <= 1e-12 * np.abs(gn_x).max()

    def test_problem_without_a_leak_system_keeps_its_trace(self, monkeypatch):
        """The leak step is an optional problem method: a problem without one descends as it would with
        no threshold, even when every point lies below ``LEAK_BELOW``."""
        a = [[1.0, 1j], [2.0, 0.0], [0.5j, 1.0]]
        problem = _LinearProblem(a, np.asarray(a) @ np.array([0.5, -1.5]), [0.5 + 1e-4, -1.5])
        assert not hasattr(problem, "leak") and np.linalg.norm(problem.residual(problem.x0)[0]) ** 2 < 1e-6
        runs = []
        for threshold in (0.0, np.inf):
            monkeypatch.setattr(commutant, "LEAK_BELOW", threshold)
            runs.append(commutant._descend(problem, np.random.default_rng(0), SearchConfig(seed=0)))
        (f, x, trace, reason, lowest), again = runs
        assert reason == "zero" and len(trace) > 1
        assert (f, x.tolist(), trace, reason, lowest) == (again[0], again[1].tolist(), *again[2:])


class TestFloors:
    """Restart floors of the feasibility search agree, and controls reach zero in every restart."""

    def test_blocks_2x3_floors_agree(self):
        result = feasibility_search(quantity(LA_DIAG, np.diag([1.0, 2.0, 4.0])), X, config=SearchConfig(seed=0))
        floors = result.restart_objectives
        assert min(floors) > 1e-3
        assert max(floors) - min(floors) <= 1e-6
        assert result.stop_reasons == ("no_decrease",) * 8
        assert result.converged

    def test_2x4_floor_is_one_over_52(self):
        result = feasibility_search(
            quantity(LA_DIAG, np.diag([1.0, 2.0, 4.0, 8.0])), X, config=SearchConfig(seed=0)
        )
        assert all(abs(f - 1.0 / 52.0) <= 1e-9 for f in result.restart_objectives)

    @pytest.mark.parametrize(
        "lb, observable",
        [
            ([1.0, 2.0, 4.0], np.diag([1.0, 2.0])),  # commuting observable
            ([0.0, 0.0, 1.0], X),  # singular LB: the no-go hypotheses fail
        ],
    )
    def test_controls_reach_zero_in_every_restart(self, lb, observable):
        result = feasibility_search(quantity(LA_DIAG, np.diag(lb)), observable, config=SearchConfig(seed=0))
        assert all(f <= 1e-10 for f in result.restart_objectives)
        assert result.stop_reasons == ("zero",) * 8

    @pytest.mark.parametrize("seed", range(4))
    def test_bench_controls_stop_within_16_tries(self, monkeypatch, seed):
        """The benchmark's control restarts close their quartic zero with leak steps; without them F falls by
        a fixed ratio per try from 1e-6 down, and no restart stops within 16 tries."""
        config = SearchConfig(seed=seed, restarts=1, max_iter=16)
        q = quantity(LA_DIAG, np.diag([1.0, 2.0, 4.0]))
        result = feasibility_search(q, np.diag([1.0, 2.0]), config=config)
        assert result.stop_reasons == ("zero",) and result.best_objective <= commutant.ZERO_OBJECTIVE
        monkeypatch.setattr(commutant, "LEAK_BELOW", 0.0)
        assert feasibility_search(q, np.diag([1.0, 2.0]), config=config).stop_reasons == ("max_iter",)

    @pytest.mark.parametrize("n1, n2", [(3, 5), (4, 7), (5, 9)])
    def test_geometric_controls_reach_zero_in_every_restart(self, n1, n2):
        la = np.diag(2.0 ** np.arange(n1))
        result = feasibility_search(quantity(la, np.diag(2.0 ** np.arange(n2))), la, config=SearchConfig(seed=0))
        assert result.stop_reasons == ("zero",) * 8

    @pytest.mark.parametrize("restart", [9, 24, 60])
    def test_leak_steps_keep_lam_moving(self, restart):
        """Accepted leak steps divide lam by 3. Had they kept it, these geometric 4x7 control restarts would
        close their leaks and then cut the off-diagonal residuals by about 1 % per try, into max_iter."""
        la = np.diag(2.0 ** np.arange(4))
        problem = _feasibility(la, np.diag(2.0 ** np.arange(7)), la)
        config = SearchConfig(seed=0, max_iter=60)
        assert commutant._descend(problem, np.random.default_rng((0, restart)), config)[3] == "zero"

    @pytest.mark.parametrize(
        "la, lb, observable, restarts",
        [
            (LA_DIAG, np.diag([1.0, 2.0, 4.0]), X, 4),
            (np.diag(BLOCK_CASES[-1][0]), np.diag(BLOCK_CASES[-1][1]), np.ones((3, 3)) - np.eye(3), 2),
        ],
    )
    def test_blocked_restarts_take_no_leak_step(self, monkeypatch, la, lb, observable, restarts):
        """Blocked restarts stay above ``LEAK_BELOW``: with the threshold at 0 their traces are the same."""
        config = SearchConfig(seed=0, restarts=restarts)
        result = feasibility_search(quantity(la, lb), observable, config=config)
        monkeypatch.setattr(commutant, "LEAK_BELOW", 0.0)
        again = feasibility_search(quantity(la, lb), observable, config=config)
        assert min(result.restart_objectives) > commutant.LEAK_BELOW
        assert (result.objective_trace, result.restart_objectives) == (again.objective_trace, again.restart_objectives)

    @pytest.mark.parametrize("seed", range(4))
    def test_blocked_restarts_converge_in_60_tries(self, seed):
        # the benchmark's blocked restarts: one restart per seed, stopped by no_decrease within the budget
        config = SearchConfig(seed=seed, restarts=1, max_iter=60)
        result = feasibility_search(quantity(LA_DIAG, np.diag([1.0, 2.0, 4.0])), X, config=config)
        assert result.stop_reasons == ("no_decrease",)
        assert result.best_objective == pytest.approx(0.0224198620226, rel=1e-9)
        assert result.restart_min_curvature[0] >= -1e-9  # a minimum: no negative curvature at the floor

    @pytest.mark.parametrize("seed", range(4))
    def test_controls_take_no_second_order_step(self, monkeypatch, seed):
        """The benchmark's control restarts cut F by more than ``SLOW_PROGRESS`` at every accepted try, a
        Gauss-Newton or a leak step, so S is computed once, for the endpoint, and the trace is bit for bit
        the one that Gauss-Newton and leak steps alone take."""
        calls, curvature = [], commutant._Feasibility.curvature

        def counted(*args):
            calls.append(1)
            return curvature(*args)

        monkeypatch.setattr(commutant._Feasibility, "curvature", counted)
        config = SearchConfig(seed=seed, restarts=1)
        q = quantity(LA_DIAG, np.diag([1.0, 2.0, 4.0]))
        result = feasibility_search(q, np.diag([1.0, 2.0]), config=config)
        assert result.stop_reasons == ("zero",) and len(calls) == 1
        monkeypatch.setattr(commutant, "SLOW_PROGRESS", 0.0)  # no second-order point
        assert feasibility_search(q, np.diag([1.0, 2.0]), config=config).objective_trace == result.objective_trace

    def test_curvature_reuses_the_pointer_derivatives(self, monkeypatch):
        """dW is built once per differentiated point: at a second-order point, and at the endpoint,
        ``curvature`` takes the one that ``derivatives`` built there."""
        calls = dict.fromkeys(["pointer_derivatives", "derivatives", "curvature"], 0)
        for name in calls:

            def counted(*args, name=name, original=getattr(commutant._Feasibility, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(commutant._Feasibility, name, counted)
        config = SearchConfig(seed=0, restarts=1, max_iter=60)
        result = feasibility_search(quantity(LA_DIAG, np.diag([1.0, 2.0, 4.0])), X, config=config)
        assert result.stop_reasons == ("no_decrease",) and calls["curvature"] > 1
        assert calls["pointer_derivatives"] == calls["derivatives"]

    def test_geometric_3x5_restarts_converge(self):
        q = quantity(np.diag(BLOCK_CASES[-1][0]), np.diag(BLOCK_CASES[-1][1]))
        config = SearchConfig(seed=0, restarts=4, max_iter=150)
        result = feasibility_search(q, np.ones((3, 3)) - np.eye(3), config=config)
        assert result.stop_reasons == ("no_decrease",) * 4
        assert all(f == pytest.approx(0.04872593022, rel=1e-9) for f in result.restart_objectives)
        assert min(result.restart_min_curvature) >= -1e-9

    def test_min_curvature_exposes_the_gauss_newton_plateau(self, monkeypatch):
        """Gauss-Newton alone creeps along a plateau near F = 0.2 on the blocked restart (0, 0); the
        endpoint certificate there is negative, a saddle region, where the floor's is not."""
        monkeypatch.setattr(commutant, "SLOW_PROGRESS", 0.0)
        config = SearchConfig(seed=0, restarts=1, max_iter=30)
        result = feasibility_search(quantity(LA_DIAG, np.diag([1.0, 2.0, 4.0])), X, config=config)
        assert result.stop_reasons == ("max_iter",)
        assert result.best_objective == pytest.approx(0.2, rel=1e-3)
        assert result.restart_min_curvature[0] < -1e-3

    def test_max_iter_stop_is_not_converged(self):
        config = SearchConfig(seed=3, restarts=3, max_iter=8)
        result = feasibility_search(quantity(LA_DIAG, np.diag([1.0, 2.0, 4.0])), X, config=config)
        assert set(result.stop_reasons) <= set(STOP_REASONS)
        assert result.stop_reasons == ("max_iter",) * 3 and not result.converged
        assert abs(np.linalg.norm(result.best_ready_state) - 1.0) <= 1e-12
