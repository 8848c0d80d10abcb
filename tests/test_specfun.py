import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, eval_hermite

from vortexbell import specfun, wigner

from _oracles import hermite, hermite_series, laguerre_exact, laguerre_series


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert specfun.laguerre(0, 3, 7.2) == 1.0

    def test_degree_one(self):
        assert specfun.laguerre(1, 0, 2.0) == -1.0

    def test_frozen_series_value(self):
        # series oracle: 1 - 4 + 2 = -1
        assert laguerre_series(2, 0, 2.0) == -1.0
        assert specfun.laguerre(2, 0, 2.0) == pytest.approx(-1.0, abs=1e-13)

    def test_product_matches_series_on_grid(self):
        xs = np.linspace(-10.0, 40.0, 26)
        for p in range(11):
            for alpha in range(11):
                for x in xs:
                    ref = laguerre_series(p, alpha, float(x))
                    got = specfun.laguerre(p, alpha, float(x))
                    assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_high_degree_matches_series(self):
        # |L_p^alpha(x)| <= C(p+alpha, p) e^{x/2} for x >= 0; the product's measured worst
        # case on these points is 1.1e-15 of that bound, at x = 0 for (64, 8), where the
        # 2p roundings of the factors and their products add up (the recurrence gave 4.0e-15)
        xs = np.concatenate([[0.0, 0.5, 1.0], np.linspace(10.0, 300.0, 30)])
        for p in (30, 64):
            for alpha in range(11):
                got = specfun.laguerre(p, alpha, xs)
                for x, value in zip(xs, got):
                    bound = math.comb(p + alpha, p) * math.exp(x / 2.0)
                    error = abs(value - laguerre_series(p, alpha, float(x)))
                    assert error <= 2e-15 * bound, (p, alpha, x)

    def test_high_degree_accuracy_just_above_zero(self):
        # the worst case of the stated 5e-15 of C(p+alpha, p) e^{x/2}: 2.5e-15 at x = 1e-6
        # for (64, 10); the three-term recurrence reached 1.0e-13 here, at x = 1e-5 for (64, 0)
        xs = np.geomspace(1e-8, 1.0, 49)
        for p in (30, 64):
            for alpha in range(11):
                got = specfun.laguerre(p, alpha, xs)
                for x, value in zip(xs, got):
                    bound = math.comb(p + alpha, p) * math.exp(x / 2.0)
                    error = abs(value - laguerre_series(p, alpha, float(x)))
                    assert error <= 5e-15 * bound, (p, alpha, x)

    def test_overflow_is_the_leading_term_infinity(self):
        # L_p(x) ~ (-x)^p / p!: L_64(1e7) ~ 1e359, which is past the largest float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert specfun.laguerre(64, 0, 1e7) == math.inf
            assert specfun.laguerre(63, 0, 1e7) == -math.inf
            assert specfun.laguerre(63, 2, -1e7) == math.inf
            assert type(specfun.laguerre(63, 0, 1e7)) is float
            xs = np.array([1e7, -1e7, 1.7e308, -1e300, 2.0])
            for p, alpha in [(63, 0), (64, 0), (60, 5)]:
                got = specfun.laguerre(p, alpha, xs)
                sign = -1.0 if p % 2 else 1.0
                assert np.array_equal(got[:4], [sign * math.inf, math.inf, sign * math.inf, math.inf])
                assert got[4] == specfun.laguerre(p, alpha, 2.0) and math.isfinite(got[4])
                assert np.array_equal(specfun.laguerre(p, alpha, xs.reshape(5, 1))[:, 0], got)
            assert specfun.laguerre(63, 0, np.asarray(1e7)) == -math.inf

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 30, 63, 64])
    def test_finite_up_to_the_overflow(self, p):
        # arguments whose values lie in [max/4, max]: finite and accurate, not infinite
        for sign in (1.0, -1.0):
            x = sign * math.exp((math.log(0.5 * sys.float_info.max) + math.lgamma(p + 1.0)) / p)
            exact = laguerre_exact(p, 0, x)
            assert 0.25 * sys.float_info.max <= abs(exact) <= sys.float_info.max, (p, x)
            assert abs(Fraction(specfun.laguerre(p, 0, x)) - exact) <= 1e-14 * abs(exact), (p, x)

    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = int(rng.integers(0, 20))
            alpha = int(rng.integers(0, 8))
            x = float(rng.uniform(-5, 25))
            assert specfun.laguerre(p, alpha, x) == pytest.approx(
                float(eval_genlaguerre(p, alpha, x)), rel=1e-10, abs=1e-10
            )

    def test_value_at_zero_is_binomial(self):
        for p in range(0, 25, 3):
            for alpha in range(0, 12, 2):
                expected = math.comb(p + alpha, p)
                assert specfun.laguerre(p, alpha, 0.0) == pytest.approx(
                    expected, rel=1e-12
                )

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-3, 9, 17)
        vec = specfun.laguerre(6, 2, xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert v == specfun.laguerre(6, 2, float(x))

    def test_scaled_representation_consistent(self):
        for x in (0.5, 37.0, 250.0, 4000.0):
            mant, scale = specfun.laguerre_scaled(12, 0, x)
            direct = specfun.laguerre(12, 0, x)
            assert mant * math.exp(scale) == pytest.approx(direct, rel=1e-12)

    def test_rejects_degree_above_cap(self):
        with pytest.raises(ValueError, match=r"^p=65 exceeds the supported cap 64$"):
            specfun.laguerre(specfun.MAX_DEGREE + 1, 0, 1.0)
        # a degree too long to print is named by its size
        for evaluate in (specfun.laguerre, specfun.laguerre_scaled):
            with pytest.raises(ValueError, match=r"^p=.* exceeds the supported cap 64$"):
                evaluate(10**5000, 0, 1.0)

    def test_rejects_nonfinite_argument(self):
        with pytest.raises(ValueError):
            specfun.laguerre(3, 0, math.nan)
        with pytest.raises(ValueError):
            specfun.laguerre(3, 0, np.array([1.0, math.inf]))

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError, match=r"^p must be nonnegative, got -1$"):
            specfun.laguerre(-1, 0, 1.0)
        for evaluate in (specfun.laguerre, specfun.laguerre_scaled):
            with pytest.raises(ValueError, match=r"^p must be nonnegative, got "):
                evaluate(-10**5000, 0, 1.0)
            with pytest.raises(ValueError, match=r"^alpha must be nonnegative, got "):
                evaluate(1, -10**5000, 1.0)

    def test_rejects_alpha_beyond_a_float(self):
        for p in (0, 1, 2, 64):
            for evaluate in (specfun.laguerre, specfun.laguerre_scaled):
                with pytest.raises(ValueError, match="alpha"):
                    evaluate(p, 10**400, 1.0)
        # an alpha that fits a float keeps the overflow rule: the leading term's infinity
        assert specfun.laguerre(2, 10**308, 1.0) == math.inf

    @pytest.mark.parametrize("alpha", [0, 3])
    @pytest.mark.parametrize("p", [0, 1, 30, 64])
    def test_every_scalar_kind_has_the_array_bits(self, p, alpha):
        for x in (0.0, -0.0, 0.75, 2.0, 31.0, -4.5, 250.0):
            inside = specfun.laguerre(p, alpha, np.array([1.5, x, 2.0]))[1]
            kinds = [float, np.float64, np.asarray] + ([int] if x.is_integer() else [])
            for kind in kinds:
                got = specfun.laguerre(p, alpha, kind(x))
                assert type(got) is float, (kind, x)
                assert _same_bits(np.float64(got), inside), (kind, x)

    @pytest.mark.parametrize("p, alpha, x", [(63, 0, 1e7), (64, 0, 1e7), (63, 3, -1e7),
                                             (64, 3, 1.7e308)])
    def test_overflow_is_one_signed_infinity_in_every_form(self, p, alpha, x):
        expected = -math.inf if p % 2 and x > 0 else math.inf
        kinds = [float, np.float64, np.asarray] + ([int] if abs(x) < 1e8 else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in kinds:
                got = specfun.laguerre(p, alpha, kind(x))
                assert type(got) is float and got == expected, kind
            assert specfun.laguerre(p, alpha, np.array([2.0, x]))[1] == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_kind_of_nonfinite_input_is_rejected(self, bad):
        for kind in (float, np.float64, np.asarray, lambda v: np.array([1.0, v]),
                     lambda v: [[v, 0.5]]):
            with pytest.raises(ValueError, match="must be finite"):
                specfun.laguerre(4, 1, kind(bad))


def _same_bits(a, b):
    return type(a) is type(b) and np.shape(a) == np.shape(b) and (
        np.asarray(a).tobytes() == np.asarray(b).tobytes())


class TestProductAgainstSeries:
    """``_laguerre``, the product over the zeros, against the exact series; x is never written."""

    ALPHAS = (0, 1, 2, 7)
    # the error test_every_degree_matches_exact_series allows, relative to the larger of
    # |L| and C(p+alpha, p) e^{x/2}: twice the worst seen, 2.0e-15 at (63, 7, -1.05)
    TOLERANCE = 4e-15

    @staticmethod
    def _arguments():
        rng = np.random.default_rng(5)
        # zeros of both signs, the range Pi meets, and arguments whose values overflow
        return np.concatenate([[0.0, -0.0, 1.0, 3.0 - 1e-16], rng.uniform(-5.0, 60.0, 24),
                               [1e40, -1e40, 1e200, -1e300, 1.7e308]])

    def _check_against_series(self, p, alpha, x, got):
        for xi, value in zip(np.ravel(x).tolist(), np.ravel(got).tolist()):
            exact = laguerre_exact(p, alpha, xi)
            if abs(exact) > sys.float_info.max:
                assert value == (math.inf if exact > 0 else -math.inf), (alpha, p, xi)
                continue
            scale = max(abs(exact), math.comb(p + alpha, p) * math.exp(min(xi, 700.0) / 2.0))
            assert abs(Fraction(value) - exact) <= self.TOLERANCE * scale, (alpha, p, xi)

    def test_every_degree_matches_exact_series(self):
        # the product against the exact series for every degree: within TOLERANCE where the
        # value is a float, and the leading term's signed infinity where it overflows; a 0-d
        # argument is checked the same way, and reshaped, broadcast and strided views of the
        # arguments give the bits of the flat result
        flat = self._arguments()
        with np.errstate(over="ignore"):
            for alpha in self.ALPHAS:
                for p in range(specfun.MAX_DEGREE + 1):
                    got = specfun._laguerre(p, alpha, flat)
                    assert got.shape == flat.shape
                    self._check_against_series(p, alpha, flat, got)
                    self._check_against_series(p, alpha, 2.5, specfun._laguerre(p, alpha, np.asarray(2.5)))
                    for x, ref in ((flat.reshape(3, 11), got.reshape(3, 11)),
                                   (np.broadcast_to(flat[:5], (4, 5)), np.broadcast_to(got[:5], (4, 5))),
                                   (flat[::3], got[::3])):  # a strided view
                        assert _same_bits(specfun._laguerre(p, alpha, x), ref), (x.shape, alpha, p)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 10, 20, 30, 45, 64])
    def test_relative_error_within_gamma(self, p):
        # |error| <= gamma_{3p+1} |L|, gamma_n = nu / (1 - nu), u = 2^-53: a factor rounds at
        # most twice and kappa and the p products once each (Higham 2002, sec. 3.1); worst
        # seen 1.26 p u, at (3, 1). Near each zero too, but not at its hi word or the hi
        # word's float neighbours, where the lo word is only nearer the zero than hi
        n = Fraction(3 * p + 1, 2**53)
        gamma = n / (1 - n)
        for alpha in (0, 1, 2):
            hi = np.array(specfun._zeros(p, alpha)[0])
            x = np.concatenate([np.linspace(0.0, 4.0 * p + 2.0 * alpha + 10.0, 101),
                                hi * (1.0 + 1e-9), hi * (1.0 - 1e-6)])
            for xi, value in zip(x.tolist(), specfun._laguerre(p, alpha, x).tolist()):
                exact = laguerre_exact(p, alpha, xi)
                assert abs(Fraction(value) - exact) <= gamma * abs(exact), (alpha, xi)

    def test_python_floats(self):
        # a Python float runs through the same operations as the entry of an array
        x = self._arguments()
        with np.errstate(over="ignore"):
            for alpha in self.ALPHAS:
                for p in range(specfun.MAX_DEGREE + 1):
                    inside = specfun._laguerre(p, alpha, x)
                    for k, xi in enumerate(x.tolist()):
                        got = specfun._laguerre(p, alpha, xi)
                        assert isinstance(got, float)
                        assert _same_bits(np.float64(got), inside[k]), (xi, alpha, p)

    def test_never_writes_its_argument(self):
        x = np.linspace(-3.0, 40.0, 9)
        frozen = x.copy()
        x.setflags(write=False)  # an in-place write to x would raise
        for p in range(specfun.MAX_DEGREE + 1):
            specfun._laguerre(p, 2, x)
            wigner._damped_derivatives(p, x)
        assert np.array_equal(x, frozen)
        view = np.broadcast_to(frozen, (2, 9))
        assert specfun._laguerre(12, 0, view).shape == (2, 9)
        assert all(d.shape == (2, 9) for d in wigner._damped_derivatives(12, view))
        # past the table limit of L_64, whose factors then run one zero at a time
        big = np.linspace(-3.0, 300.0, specfun._TABLE // 64 + 1)
        frozen = big.copy()
        big.setflags(write=False)
        for p in (1, 2, 30, 63, 64):
            specfun._laguerre(p, 2, big)
            wigner._damped_derivatives(p, big)
        assert np.array_equal(big, frozen)

    def test_public_laguerre_keeps_scalar_types(self):
        assert type(specfun.laguerre(5, 0, 1.5)) is float
        assert type(specfun.laguerre(0, 0, 1.5)) is float
        assert type(specfun.laguerre(5, 1, 2)) is float
        assert specfun.laguerre(5, 1, np.array([1.5, 2.0])).shape == (2,)


class TestTraversals:
    """``_product`` reduces a factor table of up to ``_TABLE`` entries whole and runs a larger
    one, or one zero, a zero at a time: both multiply in the order of the zeros, with the same
    bits."""

    @pytest.mark.parametrize("alpha", [0, 2])
    @pytest.mark.parametrize("p", [1, 2, 5, 30, 64])
    def test_table_and_loop_give_the_same_bits(self, p, alpha):
        limit = specfun._TABLE // p  # the most points of a table
        half = limit // 2 + 4  # two halves make one more than limit points
        x = np.random.default_rng(p + alpha).uniform(-5.0, 4.0 * p + 2.0 * alpha + 10.0, 4 * half)
        flat = x[:2 * half]
        # limit points take the table, the rest another table, and all of them the loop
        ref = np.concatenate([specfun._laguerre(p, alpha, flat[:limit]),
                              specfun._laguerre(p, alpha, flat[limit:])])
        assert _same_bits(specfun._laguerre(p, alpha, flat), ref)
        for k in (0, limit - 1, limit, 2 * half - 1):  # a 0-d point, in its own table
            assert _same_bits(specfun._laguerre(p, alpha, flat[k:k + 1]), ref[k:k + 1])
            assert _same_bits(specfun._laguerre(p, alpha, flat[k]), ref[k])
        pairs = [(flat.reshape(2, half), ref.reshape(2, half)),  # 2-D, past the limit
                 (np.broadcast_to(flat[:half], (2, half)), np.broadcast_to(ref[:half], (2, half))),
                 (x[::2], np.concatenate([specfun._laguerre(p, alpha, x[:2 * half:2]),
                                          specfun._laguerre(p, alpha, x[2 * half::2])])),
                 (flat[::2], ref[::2])]  # strided, in one table
        for view, expected in pairs:
            assert _same_bits(specfun._laguerre(p, alpha, view), np.ascontiguousarray(expected)), view.shape


class TestZeros:
    """The zeros behind the product are correctly rounded, with a lo word nearer still."""

    @pytest.mark.parametrize("p, alpha", [(1, 0), (2, 0), (5, 3), (30, 0), (64, 0), (64, 2),
                                          (32, 64)])
    def test_correctly_rounded_double_words(self, p, alpha):
        hi, lo = specfun._zeros(p, alpha)
        assert len(hi) == len(lo) == p and list(hi) == sorted(set(hi))
        for h, l in zip(hi, lo):
            half = Fraction(math.ulp(h)) / 2
            h = Fraction(h)
            value = laguerre_exact(p, alpha, h)
            if not l:  # hi is the zero itself
                assert value == 0, (h, l)
                continue
            # a zero within half an ulp of hi, so hi is the zero rounded ...
            assert laguerre_exact(p, alpha, h - half) * laguerre_exact(p, alpha, h + half) < 0
            assert abs(l) <= half
            # ... and past hi + lo/2 on the side of lo, so nearer hi + lo than hi
            beyond = h + (half if l > 0 else -half)
            assert value * laguerre_exact(p, alpha, h + Fraction(l) / 2) > 0, (h, l)
            assert laguerre_exact(p, alpha, h + Fraction(l) / 2) * laguerre_exact(p, alpha, beyond) < 0

    # every (p, alpha) of the Hessian path, and every (p, |l|) of lg_amplitude
    ONE_STEP_SETS = sorted({(p, alpha) for p in range(1, 65) for alpha in range(3)}
                           | {(p, l) for p in range(1, 33) for l in range(65 - 2 * p)})

    def test_one_exact_newton_step_reaches_the_rounded_zero(self):
        # hi is one exact Newton step from a Golub-Welsch start, rounded; one more step from hi
        # must round back to hi, which most bare Golub-Welsch starts fail (12744 of 16160 zeros)
        for p, alpha in self.ONE_STEP_SETS:
            for h in specfun._zeros(p, alpha)[0]:
                top, bottom = specfun._newton(p, alpha, h)
                assert top / bottom == h, (p, alpha, h)

    def test_caches_are_bounded(self):
        assert specfun._factors.cache_info().maxsize is not None


class TestHermite:
    def test_degree_zero(self):
        assert hermite(0, 3.1) == 1.0

    def test_degree_one(self):
        assert hermite(1, 0.5) == 1.0

    def test_frozen_series_value(self):
        # series oracle: 8 x^3 - 12 x at x = 1
        assert hermite_series(3, 1.0) == -4.0
        assert hermite(3, 1.0) == pytest.approx(-4.0, abs=1e-13)

    def test_recurrence_matches_series(self):
        xs = np.linspace(-4.0, 4.0, 17)
        for n in range(13):
            for x in xs:
                ref = hermite_series(n, float(x))
                got = hermite(n, float(x))
                assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_matches_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(0, 25))
            x = float(rng.uniform(-4, 4))
            assert hermite(n, x) == pytest.approx(
                float(eval_hermite(n, x)), rel=1e-10, abs=1e-10
            )

    def test_parity(self):
        xs = np.linspace(0.1, 3.7, 9)
        for n in range(21):
            sign = (-1.0) ** n
            for x in xs:
                assert hermite(n, -float(x)) == sign * hermite(n, float(x))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hermite(65, 0.0)
        with pytest.raises(ValueError):
            hermite(2, math.inf)
