"""Tests for singular values, Schatten norms, and matrix summing norms."""

from __future__ import annotations

import hashlib
import math
import random
import warnings

import numpy as np
import pytest

from osinv import catalog, evaluate
from osinv.errors import BadParameter, DomainError, NotRegular
from osinv.invariants import pi1_fundamental
from osinv.monotone_fn import make_piecewise
from osinv.orlicz import make_orlicz, power_orlicz, psi
from osinv.schatten import (
    _as_matrix,
    _summing_orlicz_fn,
    pi1_of_map,
    schatten_orlicz_norm,
    schatten_p_norm,
    singular_values,
)
from osinv.spaces import descriptor_from_json

OH = catalog("oh")
C2 = catalog("column_p", 2)
C3 = catalog("column_p", 3)
C4 = catalog("column_p", 4)
C43 = catalog("column_p", 4 / 3)
CR15 = catalog("cr_p", 1.5)


def conjugate(p: float) -> float:
    return p / (p - 1.0)


def random_matrix(rng, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_unitary(rng, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(random_matrix(rng, n))
    return q


def charpoly_singular_values(x: np.ndarray) -> np.ndarray:
    """Small-matrix oracle: roots of the characteristic polynomial of
    ``x* x`` via the trace recursion, then square roots in decreasing
    order.  Independent of the SVD code path.
    """
    a = np.asarray(x, dtype=complex)
    m = a.conj().T @ a
    n = m.shape[0]
    coeffs = [1.0 + 0j]
    mk = np.zeros_like(m)
    for k in range(1, n + 1):
        mk = m @ mk + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(m @ mk) / k)
    roots = np.roots(np.array(coeffs))
    return np.sort(np.sqrt(np.clip(roots.real, 0.0, None)))[::-1]


class TestSingularValues:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_identity(self, n):
        assert np.array_equal(singular_values(np.eye(n)), np.ones(n))

    def test_padded_diagonal(self):
        x = np.zeros((4, 3))
        x[0, 0] = 3.0
        x[1, 1] = 4.0
        assert singular_values(x) == pytest.approx([4.0, 3.0, 0.0])

    def test_nonincreasing_nonnegative(self):
        rng = np.random.default_rng(2)
        s = singular_values(random_matrix(rng, 9, 6))
        assert s.shape == (6,)
        assert np.all(s >= 0.0)
        assert np.all(np.diff(s) <= 0.0)

    def test_matches_charpoly_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            x = random_matrix(rng, n)
            sv = singular_values(x)
            oracle = charpoly_singular_values(x)
            scale = max(float(sv[0]), 1.0)
            assert np.max(np.abs(sv - oracle)) / scale < 1e-8

    def test_rejects_bad_shapes(self):
        with pytest.raises(BadParameter):
            singular_values([1.0, 2.0, 3.0])
        with pytest.raises(BadParameter):
            singular_values(np.zeros((0, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            singular_values([[1.0, math.nan], [0.0, 1.0]])
        with pytest.raises(DomainError):
            singular_values(np.array([[1.0, 1j * math.inf], [0.0, 1.0]]))


class TestDtypeRouting:
    """Real matrices go through the real SVD driver, everything else
    through the complex one, exactly as a complex cast would."""

    EPS = np.finfo(float).eps

    @staticmethod
    def _complex_svd(x: np.ndarray) -> np.ndarray:
        return np.linalg.svd(x.astype(complex), compute_uv=False)

    @pytest.mark.parametrize("dtype", [float, np.float32, np.float16, int,
                                       np.int8, np.uint16, bool])
    def test_real_kinds_take_the_real_driver(self, dtype):
        rng = np.random.default_rng(53)
        for rows, cols in [(1, 1), (3, 7), (16, 16), (40, 9)]:
            x = (rng.normal(size=(rows, cols)) * 5.0).astype(dtype)
            assert _as_matrix(x).dtype == np.float64
            got = singular_values(x)
            want = self._complex_svd(x)
            bound = 16.0 * self.EPS * max(float(want[0]), 1e-300)
            assert got.dtype == np.float64
            assert np.max(np.abs(got - want)) <= bound

    def test_nested_lists_of_floats_are_real(self):
        assert _as_matrix([[1.0, 2.0], [3.0, 4.0]]).dtype == np.float64

    def test_complex_input_is_bitwise_unchanged(self):
        rng = np.random.default_rng(59)
        for dtype in (np.complex128, np.complex64):
            x = random_matrix(rng, 12, 7).astype(dtype)
            assert _as_matrix(x).dtype == np.complex128
            assert (singular_values(x).tobytes()
                    == self._complex_svd(x).tobytes())

    def test_object_complex_input_is_bitwise_unchanged(self):
        rng = np.random.default_rng(61)
        x = np.empty((5, 4), dtype=object)
        x[...] = [[complex(v) for v in row] for row in random_matrix(rng, 5, 4)]
        x[0, 0] = 2.5  # a Python float among the complex values
        assert _as_matrix(x).dtype == np.complex128
        assert singular_values(x).tobytes() == self._complex_svd(x).tobytes()

    def test_object_real_input_takes_the_complex_driver(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=object)
        assert _as_matrix(x).dtype == np.complex128
        assert singular_values(x).tobytes() == self._complex_svd(x).tobytes()

    def test_string_input_is_bitwise_unchanged(self):
        x = np.array([["1+2j", "0.5"], ["-3", "2j"]])
        assert _as_matrix(x).dtype == np.complex128
        assert singular_values(x).tobytes() == self._complex_svd(x).tobytes()

    @pytest.mark.parametrize("dtype", [float, np.float32])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_real_input_rejected(self, dtype, bad):
        x = np.array([[1.0, 2.0], [bad, 4.0]]).astype(dtype)
        with pytest.raises(DomainError):
            singular_values(x)
        with pytest.raises(DomainError):
            pi1_of_map(OH, OH, x)


class TestOverflowingSingularValues:
    """Finite entries whose largest singular value overflows: the norm
    is computed from the SVD of a power-of-two rescaling."""

    X = np.array([[1.5e308, 1.5e308]])  # s_1 = 1.5e308 * sqrt(2)
    S1_OVER_4 = 1.5e308 / 4.0 * math.sqrt(2.0)

    @staticmethod
    def _quiet(fn, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return fn(*args)

    @pytest.mark.parametrize("p", [1.0, 2.0, 7.5, math.inf])
    def test_p_norm_is_inf(self, p):
        assert self._quiet(schatten_p_norm, self.X, p) == math.inf

    def test_p_norm_is_inf_for_complex(self):
        x = self.X * (1.0 + 0.5j)
        assert self._quiet(schatten_p_norm, x, 2.0) == math.inf

    def test_orlicz_norm_that_overflows_is_inf(self):
        value = self._quiet(schatten_orlicz_norm, self.X, power_orlicz(2.0))
        assert value == math.inf

    def test_orlicz_norm_that_fits_stays_finite(self):
        # phi(t) = (t/4)**2: the norm of one singular value s is s/4.
        phi = make_orlicz(make_piecewise([4.0], [1.0], right_exponent=2.0))
        for x in (self.X, self.X.T, self.X.astype(complex)):
            value = self._quiet(schatten_orlicz_norm, x, phi)
            assert value == pytest.approx(self.S1_OVER_4, rel=1e-12)

    def test_orlicz_norm_of_many_values_that_fits(self):
        # Singular values s, s, t with s = 1.5e308 * sqrt(2) overflowing
        # and t tiny: ||(s, s, t)||_phi = sqrt(2) s / 4 = 0.75e308.
        phi = make_orlicz(make_piecewise([4.0], [1.0], right_exponent=2.0))
        x = np.array([[1.5e308, 1.5e308, 0.0],
                      [1.5e308, -1.5e308, 0.0],
                      [0.0, 0.0, 1e-300]])
        value = self._quiet(schatten_orlicz_norm, x, phi)
        assert value == pytest.approx(0.75e308, rel=1e-12)

    def test_pi1_of_map_is_inf(self):
        # Every summing function here has phi^{-1}(1) < 1, so the norm
        # is at least s_1.
        for domain, codomain in [(OH, OH), (C2, C4)]:
            value = self._quiet(pi1_of_map, domain, codomain, self.X)
            assert value == math.inf

    def test_finite_input_takes_one_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        schatten_p_norm(np.diag([1e300, 1.0]), 2.0)
        schatten_orlicz_norm(np.eye(3) * 1e307, power_orlicz(2.0))
        assert len(calls) == 2
        schatten_p_norm(self.X, 2.0)
        assert len(calls) == 4


class TestSchattenPNorm:
    @pytest.mark.parametrize("n", [1, 3, 7, 64, 512])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 17.0])
    def test_identity_exact(self, n, p):
        assert schatten_p_norm(np.eye(n), p) == n ** (1.0 / p)

    def test_identity_sup_norm(self):
        assert schatten_p_norm(np.eye(9), math.inf) == 1.0

    @pytest.mark.parametrize("p", [1.0, 2.0, 5.0, math.inf])
    def test_rank_one(self, p):
        rng = np.random.default_rng(8)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        want = np.linalg.norm(u) * np.linalg.norm(v)
        got = schatten_p_norm(np.outer(u, v.conj()), p)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("n", [2, 16, 128])
    def test_identity_squared_matches_column_fundamental(self, p, n):
        want = evaluate(catalog("column_p", p).phi_c, float(n))
        got = schatten_p_norm(np.eye(n), 2.0 * conjugate(p)) ** 2
        assert got == pytest.approx(want, rel=1e-9)

    def test_interpolation_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            x = random_matrix(rng, int(rng.integers(1, 13)))
            s1 = schatten_p_norm(x, 1.0)
            s2 = schatten_p_norm(x, 2.0)
            sinf = schatten_p_norm(x, math.inf)
            assert s2**2 <= s1 * sinf * (1.0 + 1e-12)

    def test_no_overflow_on_huge_entries(self):
        x = np.diag([1e160, 1e159])
        assert schatten_p_norm(x, 4.0) == pytest.approx(
            1e160 * (1.0 + 1e-4) ** 0.25, rel=1e-12
        )

    def test_zero_matrix(self):
        assert schatten_p_norm(np.zeros((3, 5)), 1.0) == 0.0
        assert schatten_p_norm(np.zeros((3, 5)), math.inf) == 0.0

    @pytest.mark.parametrize("p", [0.5, 0.999, math.nan])
    def test_rejects_bad_p(self, p):
        with pytest.raises(BadParameter):
            schatten_p_norm(np.eye(2), p)


class TestSchattenOrliczNorm:
    def test_square_orlicz_is_hilbert_schmidt(self):
        rng = np.random.default_rng(17)
        phi = power_orlicz(2.0)
        for _ in range(10):
            x = random_matrix(rng, int(rng.integers(1, 9)), 7)
            assert schatten_orlicz_norm(x, phi) == pytest.approx(
                schatten_p_norm(x, 2.0), rel=1e-9
            )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(23)
        phi = psi()
        for _ in range(10):
            x = random_matrix(rng, 8)
            u = random_unitary(rng, 8)
            v = random_unitary(rng, 8)
            assert schatten_orlicz_norm(u @ x @ v, phi) == pytest.approx(
                schatten_orlicz_norm(x, phi), rel=1e-8
            )

    def test_diagonal_matches_sequence_norm(self):
        from osinv.orlicz import sequence_norm

        phi = psi()
        entries = [-3.0, 1.5, 0.0, 2.0 + 1.0j]
        x = np.diag(entries)
        want = sequence_norm(phi, [abs(z) for z in entries])
        assert schatten_orlicz_norm(x, phi) == pytest.approx(
            want, rel=1e-10
        )

    def test_ideal_monotonicity(self):
        rng = np.random.default_rng(29)
        phi = psi()
        for _ in range(10):
            n = int(rng.integers(2, 9))
            a, x, b = (random_matrix(rng, n) for _ in range(3))
            lhs = schatten_orlicz_norm(a @ x @ b, phi)
            bound = (
                schatten_p_norm(a, math.inf)
                * schatten_orlicz_norm(x, phi)
                * schatten_p_norm(b, math.inf)
            )
            assert lhs <= bound * (1.0 + 1e-8)


class TestPi1OfMap:
    @pytest.mark.parametrize(
        "domain,codomain",
        [(OH, OH), (C3, C3), (C2, C4), (C4, C43), (CR15, CR15)],
    )
    def test_identity_matches_fundamental_on_grid(self, domain, codomain):
        for n in (1, 2, 8, 64, 512):
            got = pi1_of_map(domain, codomain, np.eye(n))
            want = pi1_fundamental(domain, codomain, n).pi1
            assert got == pytest.approx(want, rel=1e-3)

    def test_identity_matches_fundamental_within_the_stated_bound(self):
        # pi1_of_map's docstring states 4.9e-13, the worst relative gap on
        # these 13 x 13 pairs at the grid dimensions up to 128; the test
        # allows twice that.
        spaces = [OH, *(catalog("column_p", p) for p in (4 / 3, 1.5, 2, 3, 4)),
                  *(catalog("row_p", p) for p in (1.5, 2, 3)),
                  *(catalog("cr_p", p) for p in (4 / 3, 1.5, 2, 3))]
        worst = 0.0
        for domain in spaces:
            for codomain in spaces:
                for n in (2**k for k in range(8)):
                    got = pi1_of_map(domain, codomain, np.eye(n))
                    want = pi1_fundamental(domain, codomain, n).pi1
                    worst = max(worst, abs(got / want - 1.0))
        assert worst <= 2 * 4.9e-13

    def test_identity_tracks_fundamental_off_grid(self):
        for n in (3, 11, 100, 300):
            got = pi1_of_map(C2, C4, np.eye(n))
            want = pi1_fundamental(C2, C4, n).pi1
            assert got == pytest.approx(want, rel=1e-2)

    def test_square_root_structure_log_ratio(self):
        for n in (4, 16, 128, 512):
            ratio = pi1_of_map(OH, OH, np.eye(n)) / math.sqrt(
                n * math.log(n + 1.0)
            )
            assert 0.25 <= ratio <= 4.0

    def test_column_pair_power_ratio(self):
        # (p, q) = (2, 4): 2/r = 3/4, so the smaller of r and its
        # conjugate is 8/5 and the diagonal grows like n**(5/8).
        for n in (4, 64, 512):
            ratio = pi1_of_map(C2, C4, np.eye(n)) / n**0.625
            assert 0.25 <= ratio * 0.25 <= 4.0  # bounded, not pinned
            assert 1.0 <= ratio <= 8.0

    def test_dominates_hilbert_schmidt(self):
        rng = np.random.default_rng(31)
        for domain, codomain in [(OH, OH), (C3, C3), (CR15, CR15)]:
            for _ in range(5):
                x = random_matrix(rng, int(rng.integers(2, 33)))
                assert schatten_p_norm(x, 2.0) <= 4.0 * pi1_of_map(
                    domain, codomain, x
                )

    def test_trace_duality_lower_bound(self):
        rng = np.random.default_rng(37)
        for p, q in [(2.0, 4.0), (3.0, 3.0), (4.0, 4 / 3)]:
            r = 2.0 / (1.0 / p + 1.0 / q)
            domain = catalog("column_p", p)
            codomain = catalog("column_p", q)
            for _ in range(8):
                x = random_matrix(rng, int(rng.integers(2, 17)))
                lhs = schatten_p_norm(x, conjugate(r))
                assert lhs <= pi1_of_map(domain, codomain, x)

    def test_zero_padding_invariance(self):
        rng = np.random.default_rng(41)
        x = random_matrix(rng, 6)
        padded = np.zeros((10, 8), dtype=complex)
        padded[:6, :6] = x
        assert pi1_of_map(OH, OH, padded) == pi1_of_map(OH, OH, x)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(43)
        x = random_matrix(rng, 8)
        u = random_unitary(rng, 8)
        v = random_unitary(rng, 8)
        assert pi1_of_map(C3, CR15, u @ x @ v) == pytest.approx(
            pi1_of_map(C3, CR15, x), rel=1e-8
        )

    def test_rejects_endpoint_space(self):
        with pytest.raises(NotRegular):
            pi1_of_map(catalog("c"), OH, np.eye(2))
        with pytest.raises(NotRegular):
            pi1_of_map(OH, catalog("r"), np.eye(2))

    def test_cache_reuse_is_fast(self):
        import time

        pi1_of_map(C4, C43, np.eye(3))  # warm
        t0 = time.perf_counter()
        for _ in range(50):
            pi1_of_map(C4, C43, np.eye(3))
        assert time.perf_counter() - t0 < 1.0


class TestSummingCache:
    def test_cache_is_bounded(self):
        maxsize = _summing_orlicz_fn.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1024

    def test_evicted_pair_recomputes_to_the_same_value(self):
        x = random_matrix(np.random.default_rng(47), 5)
        _summing_orlicz_fn.cache_clear()
        first = pi1_of_map(C3, CR15, x)
        maxsize = _summing_orlicz_fn.cache_info().maxsize
        for p in np.linspace(1.5, 5.0, maxsize):
            _summing_orlicz_fn(catalog("column_p", float(p)), CR15)
        misses = _summing_orlicz_fn.cache_info().misses
        assert pi1_of_map(C3, CR15, x) == first
        assert _summing_orlicz_fn.cache_info().misses == misses + 1



def _knotted_table(rng: random.Random, m: int) -> dict:
    """Table on ``m`` log-spaced knots over ``[1, 1e6]`` with chord
    exponents and right exponent drawn from (0.3, 0.7)."""
    knots = [10.0 ** (6.0 * i / (m - 1)) for i in range(m)]
    exps = [rng.uniform(0.3, 0.7) for _ in range(m)]
    values = [1.0]
    for i in range(m - 1):
        values.append(values[-1] * (knots[i + 1] / knots[i]) ** exps[i])
    return {"knots": knots, "values": values, "right_exponent": exps[-1]}


def _knotted_space(seed: int, m: int = 25):
    rng = random.Random(seed)
    return descriptor_from_json({
        "kind": "fundamental",
        "phi_c": _knotted_table(rng, m),
        "phi_r": _knotted_table(rng, m),
    })


class TestPi1OfMapDigest:
    """``pi1_of_map`` on seeded complex matrices, to the bit.

    The matrices come from :class:`random.Random` so the inputs are
    reproducible everywhere; the digest covers every returned float's
    ``repr``, so any change to the SVD driver or the norm bisection that
    moves a last bit on complex input fails here.
    """

    PAIRS = (
        (OH, OH),
        (C2, C4),
        (CR15, catalog("row_p", 3)),
        (_knotted_space(25), _knotted_space(2025)),
    )
    SHAPES = ((1, 1), (1, 4), (3, 5), (8, 8), (17, 6), (32, 40), (64, 64))
    DIGEST = "05187f2e5794ef6982f42c117e3f07d09cde871b03710da03b9cbe1adf95a7b0"

    def test_values_bitwise(self):
        rng = random.Random(9)
        values = []
        for domain, codomain in self.PAIRS:
            for rows, cols in self.SHAPES:
                x = np.array([
                    [complex(rng.gauss(0, 1), rng.gauss(0, 1))
                     for _ in range(cols)]
                    for _ in range(rows)
                ])
                values.append(pi1_of_map(domain, codomain, x))
        text = " ".join(map(repr, values))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
