"""Tests for the Monge machinery (Lemmas 1, 3, 4, 5) and SMAWK."""

import random

import numpy as np
import pytest

from repro.errors import MongeError
from repro.monge import (
    INF,
    is_monge,
    minplus_auto,
    minplus_monge,
    minplus_naive,
    pad_matrix,
    smawk_row_minima,
)
from repro.monge.smawk import brute_force_row_minima
from repro.pram import PRAM


def random_monge(rows, cols, seed, scale=20):
    """Random Monge matrix: distance matrix of points on two parallel lines
    (a convex-position construction, cf. Lemma 1)."""
    rng = random.Random(seed)
    xs = sorted(rng.sample(range(200), rows))
    ys = sorted(rng.sample(range(200), cols))
    m = np.zeros((rows, cols))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            m[i, j] = abs(x - y) + scale
    assert is_monge(m)
    return m


class TestIsMonge:
    def test_trivial_shapes(self):
        assert is_monge([[1.0]])
        assert is_monge([[1.0, 2.0]])

    def test_monge_yes(self):
        assert is_monge([[1, 2], [2, 2]])

    def test_monge_no(self):
        assert not is_monge([[2, 1], [1, 2]])

    def test_inf_padding_preserves(self):
        m = random_monge(4, 5, 0)
        assert is_monge(pad_matrix(m, 6, 7))

    def test_pad_too_small(self):
        with pytest.raises(ValueError):
            pad_matrix(np.zeros((3, 3)), 2, 5)

    def test_random_construction_is_monge(self):
        for seed in range(5):
            random_monge(6, 8, seed)  # asserts internally


class TestSMAWK:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bruteforce_on_monge(self, seed):
        m = random_monge(9, 13, seed)
        rows = list(range(9))
        cols = list(range(13))
        f = lambda r, c: m[r, c]
        fast = smawk_row_minima(rows, cols, f)
        slow = brute_force_row_minima(rows, cols, f)
        for r in rows:
            assert m[r, fast[r]] == m[r, slow[r]]

    def test_single_row(self):
        out = smawk_row_minima([0], [0, 1, 2], lambda r, c: [5, 1, 3][c])
        assert out[0] == 1

    def test_empty(self):
        assert smawk_row_minima([], [1], lambda r, c: 0) == {}
        assert smawk_row_minima([1], [], lambda r, c: 0) == {}

    def test_with_inf_column(self):
        m = pad_matrix(random_monge(5, 5, 3), 5, 7)
        fast = smawk_row_minima(range(5), range(7), lambda r, c: m[r, c])
        slow = brute_force_row_minima(range(5), range(7), lambda r, c: m[r, c])
        for r in range(5):
            assert m[r, fast[r]] == m[r, slow[r]]


class TestMinPlus:
    def ref_minplus(self, a, b):
        al, k = a.shape
        k2, bc = b.shape
        out = np.full((al, bc), INF)
        for i in range(al):
            for j in range(bc):
                out[i, j] = min(a[i, t] + b[t, j] for t in range(k))
        return out

    @pytest.mark.parametrize("seed", range(5))
    def test_naive_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 50, (7, 5)).astype(float)
        b = rng.integers(0, 50, (5, 9)).astype(float)
        assert (minplus_naive(a, b, PRAM()) == self.ref_minplus(a, b)).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_monge_product_matches_naive(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 50, (6, 8)).astype(float)
        b = random_monge(8, 10, seed)
        got = minplus_monge(a, b, PRAM())
        want = self.ref_minplus(a, b)
        assert (got == want).all()

    def test_monge_product_rejects_non_monge(self):
        a = np.zeros((2, 2))
        b = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(MongeError):
            minplus_monge(a, b, PRAM())

    @pytest.mark.parametrize("seed", range(4))
    def test_auto_dispatch_all_paths(self, seed):
        rng = np.random.default_rng(seed)
        # path 1: B Monge
        a = rng.integers(0, 30, (5, 6)).astype(float)
        b = random_monge(6, 7, seed)
        assert (minplus_auto(a, b, PRAM()) == self.ref_minplus(a, b)).all()
        # path 2: A Monge, B not
        a2 = random_monge(5, 6, seed + 100)
        b2 = rng.integers(0, 30, (6, 7)).astype(float)
        while is_monge(b2):
            b2 = rng.integers(0, 30, (6, 7)).astype(float)
        assert (minplus_auto(a2, b2, PRAM()) == self.ref_minplus(a2, b2)).all()
        # path 3: neither
        a3 = rng.integers(0, 30, (5, 6)).astype(float)
        while is_monge(a3):
            a3 = rng.integers(0, 30, (5, 6)).astype(float)
        assert (minplus_auto(a3, b2, PRAM()) == self.ref_minplus(a3, b2)).all()

    def test_monge_closure_under_product(self):
        """Lemma 3's parenthetical: the product of Monge matrices is Monge."""
        for seed in range(4):
            a = random_monge(6, 7, seed)
            b = random_monge(7, 8, seed + 50)
            c = minplus_monge(a, b, PRAM())
            assert is_monge(c)

    def test_inf_rows_and_padding(self):
        a = pad_matrix(random_monge(3, 4, 1), 5, 4)
        b = pad_matrix(random_monge(4, 3, 2), 4, 5)
        got = minplus_monge(a, b, PRAM())
        want = self.ref_minplus(a, b)
        assert (got[:3, :3] == want[:3, :3]).all()
        assert np.isinf(got[3:, :]).all() and np.isinf(got[:, 3:]).all()

    def test_inner_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minplus_naive(np.zeros((2, 3)), np.zeros((4, 2)), PRAM())

    def test_empty_inner_dimension(self):
        out = minplus_naive(np.zeros((2, 0)), np.zeros((0, 3)), PRAM())
        assert out.shape == (2, 3) and np.isinf(out).all()

    @staticmethod
    def inner_chunked_minplus(a, b, budget=4_000_000):
        """The earlier naive product, chunked over the inner dimension —
        the byte-for-byte reference for the row-blocked one."""
        al, inner = a.shape
        bc = b.shape[1]
        out = np.full((al, bc), INF)
        if inner == 0:
            return out
        chunk = max(1, budget // max(1, al * bc))
        for k0 in range(0, inner, chunk):
            k1 = min(inner, k0 + chunk)
            block = a[:, k0:k1, None] + b[None, k0:k1, :]
            np.minimum(out, block.min(axis=1), out=out)
        return out

    @pytest.mark.parametrize(
        "case,al,inner,bc,inf_frac",
        [
            ("random", 30, 40, 50, 0.0),
            ("inf-entries", 30, 40, 50, 0.3),
            ("1xn", 1, 37, 90, 0.1),
            ("nx1", 90, 37, 1, 0.1),
            ("inner-0", 7, 0, 9, 0.0),
            ("no-rows", 0, 5, 4, 0.0),
            ("no-cols", 5, 4, 0, 0.0),
            ("one-row", 4, 400, 400, 0.05),  # inner*bc > _CHUNK_BUDGET
        ],
    )
    def test_row_blocked_naive_is_byte_identical(self, case, al, inner, bc, inf_frac):
        from repro.monge.multiply import _CHUNK_BUDGET

        assert (inner * bc > _CHUNK_BUDGET) == (case == "one-row")
        rng = np.random.default_rng(al * 1000 + inner * 10 + bc)
        a = rng.integers(0, 1000, (al, inner)).astype(float)
        b = rng.integers(0, 1000, (inner, bc)).astype(float)
        a[rng.random(a.shape) < inf_frac] = INF
        b[rng.random(b.shape) < inf_frac] = INF
        pram = PRAM()
        got = minplus_naive(a, b, pram)
        want = self.inner_chunked_minplus(a, b)
        assert got.shape == want.shape == (al, bc)
        assert got.tobytes() == want.tobytes()
        # a tight inner-chunk budget walks the reference through many chunks
        assert got.tobytes() == self.inner_chunked_minplus(a, b, budget=64).tobytes()
        assert pram.work == al * bc * max(inner, 1)

    def test_row_blocked_naive_memory_is_bounded(self):
        import tracemalloc

        rng = np.random.default_rng(7)
        a = rng.random((116, 193)) * 100
        b = rng.random((193, 241)) * 100
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = minplus_naive(a, b, PRAM())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == (116, 241)
        assert peak <= 4 * 2**20, f"naive product peaked at {peak / 2**20:.1f} MB"

    def test_work_accounting_smawk_linear(self):
        """Lemma 3's work bound: the Monge path charges O(α(β+γ)), far less
        than the naive O(αβγ) on big inner dimensions."""
        p_fast, p_slow = PRAM(), PRAM()
        a = np.zeros((40, 100))
        b = random_monge(100, 40, 9)
        minplus_monge(a, b, p_fast, check=False)
        minplus_naive(a, b, p_slow)
        assert p_fast.work < p_slow.work / 10
