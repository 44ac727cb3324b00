"""Exact big-integer products (holoeval.intmul) and the Kronecker packing
built on them (poly._kron_mul, poly.mat_mul_kron), against Python `*` and
schoolbook.  Every assertion runs twice: on the numpy FFT path, with the
crossover lowered so that small operands reach it, and with that path
turned off, which is the gmpy2 / no-numpy code path."""

import math
import random
from fractions import Fraction

import pytest

import holoeval.balls as bl
import holoeval.intmul as im
import holoeval.poly as pm
from holoeval.poly import UniPoly


def mul(x, y):
    return im.mat_mul([[x]], [[y]])[0][0]


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def mat_schoolbook(A, B):
    r = len(A)
    return [[sum(A[i][t] * B[t][j] for t in range(r)) for j in range(r)]
            for i in range(r)]


def poly_mat_schoolbook(A, B):
    r = len(A)
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            acc = UniPoly.zero()
            for t in range(r):
                if A[i][t].coeffs and B[t][j].coeffs:
                    acc = acc + UniPoly(schoolbook(A[i][t].coeffs,
                                                   B[t][j].coeffs))
            row.append(acc)
        out.append(row)
    return out


@pytest.fixture(params=["fft", "no-fft"])
def fft(request, monkeypatch):
    """Run a test with the FFT path forced on for operands of 64 bits or
    more, and again with it turned off."""
    if request.param == "fft":
        if not im.FFT_ACTIVE:
            pytest.skip("FFT path needs plain-int mantissas and numpy")
        monkeypatch.setattr(im, "FFT_MIN_BITS", 64)
    else:
        monkeypatch.setattr(im, "FFT_ACTIVE", False)
    return request.param == "fft"


def test_backend_selection():
    try:
        import numpy  # noqa: F401
        have_numpy = True
    except ImportError:
        have_numpy = False
    assert im.FFT_ACTIVE == (not bl.HAVE_GMPY2 and have_numpy)


def test_turned_off_path_never_reaches_numpy(monkeypatch):
    def boom(*args):
        raise AssertionError("FFT path reached")

    monkeypatch.setattr(im, "FFT_ACTIVE", False)
    monkeypatch.setattr(im, "_fft_mat_mul", boom)
    x = (1 << 200000) - 12345
    assert mul(x, -x) == -(x * x)
    assert im.mat_mul([[x, 1], [2, x]], [[x, 0], [0, x]]) == \
        mat_schoolbook([[x, 1], [2, x]], [[x, 0], [0, x]])
    a = [random.Random(1).randint(-10 ** 9, 10 ** 9) for _ in range(100)]
    assert pm._kron_mul(a, a) == schoolbook(a, a)


class TestMul:
    def test_random_signed(self, fft):
        rng = random.Random(7)
        for _ in range(200):
            x = rng.getrandbits(rng.randint(0, 5000)) * rng.choice((-1, 1))
            y = rng.getrandbits(rng.randint(0, 5000)) * rng.choice((-1, 1))
            assert mul(x, y) == x * y

    def test_zero_and_one(self, fft):
        x = (1 << 4000) + 17
        for y in (0, 1, -1):
            assert mul(x, y) == x * y
            assert mul(y, x) == x * y

    def test_all_ones_limbs(self, fft):
        # every 8-bit limb 255: the largest convolution outputs, hence the
        # largest rounding error, for a given length
        for nx, ny in ((1, 1), (7, 300), (1000, 1000), (4096, 4095)):
            x, y = (1 << 8 * nx) - 1, (1 << 8 * ny) - 1
            assert mul(x, y) == x * y
            assert mul(-x, y) == -(x * y)

    def test_both_sides_of_the_crossover(self, monkeypatch):
        if not im.FFT_ACTIVE:
            pytest.skip("FFT path needs plain-int mantissas and numpy")
        calls = []
        real = im._fft_mat_mul

        def spy(A, B, size):
            calls.append(size)
            return real(A, B, size)

        monkeypatch.setattr(im, "_fft_mat_mul", spy)
        rng = random.Random(3)
        for bits in (im.FFT_MIN_BITS - 1, im.FFT_MIN_BITS,
                     4 * im.FFT_MIN_BITS):
            x = rng.getrandbits(bits) | 1 << (bits - 1)
            y = -(rng.getrandbits(bits + 5) | 1 << (bits + 4))
            assert mul(x, y) == x * y
        assert len(calls) == 2

    def test_at_the_length_cap(self):
        if not im.FFT_ACTIVE:
            pytest.skip("FFT path needs plain-int mantissas and numpy")
        # all-ones limbs, product known in closed form; n + n - 1 limbs fill
        # a transform of exactly _FFT_MAX_LEN
        n = im._FFT_MAX_LEN // 2
        x = (1 << 8 * n) - 1
        assert im._fft_size([[x]], [[x]]) == im._FFT_MAX_LEN
        assert mul(x, x) == (1 << 16 * n) - (1 << 8 * n + 1) + 1
        # one limb more needs a longer transform than the bound covers
        assert im._fft_size([[x << 8]], [[x << 8]]) == 0
        # so do the shared transforms of a 3 x 3 product at this length
        A = [[x] * 3 for _ in range(3)]
        assert im._fft_size(A, A) == 0
        assert im._fft_size([r[:2] for r in A[:2]], [r[:2] for r in A[:2]]) \
            == im._FFT_MAX_LEN

    def test_transform_is_exact_before_the_check(self):
        # the residue check would hide a wrong transform product behind the
        # `*` fallback, so check the rounded convolution itself; 375 + 250
        # limbs fit lengths with factors of 3 as well as 2^10
        if not im.FFT_ACTIVE:
            pytest.skip("FFT path needs plain-int mantissas and numpy")
        np = im._np
        for size in (648, 729, 1024):
            rng = random.Random(9)
            for _ in range(20):
                x = rng.getrandbits(3000) * rng.choice((-1, 1))
                y = rng.getrandbits(2000) * rng.choice((-1, 1))
                fx, fy = im._spectrum(x, size), im._spectrum(y, size)
                assert im._from_limb_sums(np.fft.irfft(fx * fy, size)) \
                    == x * y

    @pytest.mark.parametrize("size", [3 << 20, 9 << 18, 2 * 3 ** 13,
                                      2 ** 6 * 3 ** 10, 3 ** 13])
    def test_all_ones_at_the_largest_lengths(self, size):
        # all-ones limbs filling a transform of each shape 2^a 3^b near the
        # cap, checked on the transform itself against the closed form
        # (2^s - 1)(2^t - 1); 2^6 3^10 is where the written bound is largest,
        # for r = 2 as well
        if not im.FFT_ACTIVE:
            pytest.skip("FFT path needs plain-int mantissas and numpy")
        np = im._np
        nx = size // 2
        s, t = 8 * nx, 8 * (size + 1 - nx)
        x, y = (1 << s) - 1, (1 << t) - 1
        assert im._fft_size([[x]], [[y]]) == size
        exact = (1 << s + t) - (1 << s) - (1 << t) + 1
        fxy = im._spectrum(x, size) * im._spectrum(y, size)
        assert im._from_limb_sums(np.fft.irfft(fxy, size)) == exact
        if size == 2 ** 6 * 3 ** 10:
            assert im._admitted(size, 2)
            assert im._from_limb_sums(np.fft.irfft(fxy + fxy, size)) \
                == 2 * exact

    def test_residue_check_catches_a_wrong_product(self, monkeypatch):
        if not im.FFT_ACTIVE:
            pytest.skip("FFT path needs plain-int mantissas and numpy")
        real = im._from_limb_sums
        monkeypatch.setattr(im, "_from_limb_sums", lambda v: real(v) + 1)
        monkeypatch.setattr(im, "FFT_MIN_BITS", 64)
        rng = random.Random(5)
        x, y = rng.getrandbits(3000), -rng.getrandbits(2000)
        assert mul(x, y) == x * y
        A = [[rng.getrandbits(900) for _ in range(2)] for _ in range(2)]
        assert im.mat_mul(A, A) == mat_schoolbook(A, A)


def smooth_lengths(top):
    """Every 2^a 3^b <= top, with its exponents (a, b)."""
    return sorted((2 ** a * 3 ** b, a, b) for a in range(top.bit_length())
                  for b in range(top.bit_length()) if 2 ** a * 3 ** b <= top)


class TestTransformLength:
    def test_smallest_length_of_the_form(self, monkeypatch):
        if not im.FFT_ACTIVE:
            pytest.skip("FFT path needs plain-int mantissas and numpy")
        monkeypatch.setattr(im, "FFT_MIN_BITS", 8)
        sizes = [n for n, _, _ in smooth_lengths(1 << 16)]
        for la in list(range(1, 80)) + [1000, 4097, 12345]:
            for lb in (1, 2, 3, 5, 40, 41, la, 7000):
                x, y = (1 << 8 * la) - 1, 1 << 8 * lb - 1
                need = la + lb - 1
                assert im._fft_size([[x]], [[y]]) == \
                    min(n for n in sizes if n >= need)

    def test_zero_above_the_caps(self):
        if not im.FFT_ACTIVE:
            pytest.skip("FFT path needs plain-int mantissas and numpy")
        # for 3 x 3 products the memory cap admits lengths below the length
        # cap; at the largest admitted one the size is returned, one limb
        # more gives 0 (on both caps for 1 x 1, see test_at_the_length_cap)
        top = max(n for n, _, _ in smooth_lengths(im._FFT_MAX_LEN)
                  if im._admitted(n, 3))
        assert top < im._FFT_MAX_LEN
        for need, want in ((top, top), (top + 1, 0)):
            x = (1 << 8 * (need // 2)) - 1
            y = (1 << 8 * (need + 1 - need // 2)) - 1
            A, B = [[x] * 3] * 3, [[y] * 3] * 3
            assert im._fft_size(A, B) == want
            assert im._fft_size(A, B, cap=False) >= need

    def test_written_bound_below_one_half(self):
        # the bound written above intmul._FFT_MAX_LEN, for every (N, r) that
        # the caps admit: N = 2^a 3^b with a radix-3 pass charged as two
        # radix-2 levels, n = a + 2b
        eps, beta = 2.0 ** -53, 32 * 2.0 ** -53
        worst, largest = (0.0, 0, 0), (0, 0, 0)
        for size, a, b in smooth_lengths(2 * im._FFT_MAX_LEN):
            n, r = a + 2 * b, 1
            while im._admitted(size, r):
                grow = ((3 * n + r + 1) * math.log1p(eps)
                        + (3 * n + 1) * math.log1p(eps * math.sqrt(5))
                        + 3 * n * math.log1p(beta))
                bound = r * (size + 1) / 2 * 255 ** 2 * math.expm1(grow)
                worst = max(worst, (bound, size, r))
                # the magnitude of a rounded limb sum, which
                # _from_limb_sums reads from 5 bytes
                largest = max(largest, (r * (size + 1) * 255 ** 2 // 2,
                                        size, r))
                r += 1
        assert worst[0] < 0.5
        # the largest values, as the comment in intmul states them
        assert worst[1:] == (2 ** 6 * 3 ** 10, 2)
        assert round(worst[0], 4) == 0.0751
        assert largest[1:] == (2 ** 22, 2) and largest[0] < 2 ** 38

    def test_limb_sums_within_the_magnitude_bound(self):
        # rounded limb sums of either sign up to 2^38, as the FFT products
        # make them, against a plain sum of round(v_j) 2^(8j)
        if not im.FFT_ACTIVE:
            pytest.skip("FFT path needs plain-int mantissas and numpy")
        np = im._np
        rng = random.Random(11)
        top = 1 << 38
        for count in (1, 2, 7, 1000):
            for _ in range(20):
                ints = [rng.choice((rng.randint(-top, top),
                                    rng.choice((-top, top, -1, 0, 1))))
                        for _ in range(count)]
                v = np.array(ints, dtype=float) + np.array(
                    [rng.uniform(-0.4, 0.4) for _ in ints])
                assert im._from_limb_sums(v) == sum(
                    round(x) << 8 * j for j, x in enumerate(v.tolist()))


class TestAboveTheLengthCap:
    """Products longer than _FFT_MAX_LEN limbs are split into pieces that
    each fit one checked FFT product; the cap is lowered to 512 limbs so
    that small operands exercise the splitting."""

    @pytest.fixture
    def small_cap(self, monkeypatch):
        if not im.FFT_ACTIVE:
            pytest.skip("FFT path needs plain-int mantissas and numpy")
        monkeypatch.setattr(im, "FFT_MIN_BITS", 64)
        monkeypatch.setattr(im, "_FFT_MAX_LEN", 512)
        sizes = []
        real = im._fft_mat_mul

        def spy(A, B, size):
            sizes.append(size)
            return real(A, B, size)

        monkeypatch.setattr(im, "_fft_mat_mul", spy)
        return sizes

    def test_random_signed(self, small_cap):
        rng = random.Random(17)
        for _ in range(40):
            x = rng.getrandbits(rng.randint(4000, 40000)) * rng.choice((-1, 1))
            y = rng.getrandbits(rng.randint(4000, 40000)) * rng.choice((-1, 1))
            assert mul(x, y) == x * y
        assert small_cap and max(small_cap) <= 512

    def test_all_ones_and_lopsided(self, small_cap):
        for nx, ny in ((600, 600), (4096, 4096), (5000, 300), (20, 9000)):
            x, y = (1 << 8 * nx) - 1, (1 << 8 * ny) - 1
            assert mul(x, y) == x * y
            assert mul(-x, y) == -(x * y)
        assert max(small_cap) <= 512

    @pytest.mark.parametrize("r", [2, 3])
    def test_matrix_products(self, small_cap, monkeypatch, r):
        # above the length cap, or with the word cap lowered to one 1 x 1
        # product at the length cap, every entry product is split to fit
        rng = random.Random(29 + r)
        for bits, words in ((20000, None), (1500, 2 * 512)):
            if words:
                monkeypatch.setattr(im, "_FFT_MAX_WORDS", words)
            small_cap.clear()
            A, B = ([[rng.getrandbits(bits) * rng.choice((-1, 1))
                      for _ in range(r)] for _ in range(r)] for _ in range(2))
            A[0][r - 1] = 0
            assert im.mat_mul(A, B) == mat_schoolbook(A, B)
            assert len(small_cap) >= r ** 3 - r and max(small_cap) <= 512

    def test_residue_check_guards_every_piece(self, small_cap, monkeypatch):
        real = im._from_limb_sums
        monkeypatch.setattr(im, "_from_limb_sums", lambda v: real(v) + 1)
        rng = random.Random(23)
        x, y = rng.getrandbits(30000), -rng.getrandbits(25000)
        assert mul(x, y) == x * y
        assert len(small_cap) > 3


class TestMatMul:
    def test_random_signed_with_zeros(self, fft):
        rng = random.Random(11)
        for r in (1, 2, 3, 5, 9):
            for _ in range(4):
                A = [[rng.choice((0, 1, -1, rng.getrandbits(3000),
                                  -rng.getrandbits(2000)))
                      for _ in range(r)] for _ in range(r)]
                B = [[rng.choice((0, rng.getrandbits(2500),
                                  -rng.getrandbits(3000)))
                      for _ in range(r)] for _ in range(r)]
                assert im.mat_mul(A, B) == mat_schoolbook(A, B)

    def test_all_ones_limbs(self, fft):
        x = (1 << 8 * 3000) - 1
        A = [[x, -x, x], [x, x, -x], [-x, -x, -x]]
        assert im.mat_mul(A, A) == mat_schoolbook(A, A)


class TestKronecker:
    def test_random_signed_lists(self, fft):
        rng = random.Random(13)
        for _ in range(150):
            ba, bb = rng.choice((1, 3, 30, 300)), rng.choice((1, 3, 30, 300))
            a = [rng.randint(-2 ** ba, 2 ** ba)
                 for _ in range(rng.randint(1, 70))]
            b = [rng.randint(-2 ** bb, 2 ** bb)
                 for _ in range(rng.randint(1, 70))]
            assert pm._kron_mul(a, b) == schoolbook(a, b)

    def test_zero_and_single_coefficient(self, fft):
        a = [3, -1, 4, -1, 5, -9, 2, 6]
        for b in ([0], [1], [-1], [0, 0, 0], [-7], [0, 0, 5]):
            assert pm._kron_mul(a, b) == schoolbook(a, b)
            assert pm._kron_mul(b, a) == schoolbook(b, a)

    def test_extreme_slots(self, fft):
        # a product coefficient of -len * (2^k - 1)^2 is as close to the slot
        # bound as the inputs allow
        for k in (1, 7, 8, 63, 64, 500):
            c = (1 << k) - 1
            for n in (1, 2, 3, 64, 255, 256):
                a, b = [c] * n, [-c] * n
                assert pm._kron_mul(a, b) == schoolbook(a, b)
                alt = [c if i % 2 else -c for i in range(n)]
                assert pm._kron_mul(alt, alt) == schoolbook(alt, alt)

    def test_extreme_slots_of_a_matrix_product(self, fft):
        # every entry product has the extreme coefficients above, and the r
        # of them add up with one sign
        for k in (1, 7, 8, 64):
            c = (1 << k) - 1
            for n in (1, 255, 256):
                for r in (2, 3):
                    A = [[[c] * n] * r for _ in range(r)]
                    B = [[[-c] * n] * r for _ in range(r)]
                    entry = [r * x for x in schoolbook([c] * n, [-c] * n)]
                    assert pm._kron_mat_mul(A, B) == [[entry] * r] * r

    def test_pack_round_trip_at_the_slot_limits(self):
        for nbytes in (1, 2, 5, 16):
            top = (1 << (8 * nbytes - 1)) - 1
            for cs in ([top, -top, top], [-top] * 5, [0, top, 0, -top, 0],
                       [-top, 0], [1, -1, top - 1, -(top - 1)]):
                v = pm._pack(cs, nbytes)
                assert v == sum(c << (8 * nbytes * i)
                                for i, c in enumerate(cs))
                assert pm._unpack(v, len(cs), nbytes) == cs
                assert pm._unpack(v, len(cs) + 2, nbytes) == cs + [0, 0]

    def test_matrix_packing(self, fft):
        rng = random.Random(17)

        def rand_poly():
            if rng.random() < 0.2:
                return UniPoly.zero()
            bits = rng.choice((2, 60, 900))
            return UniPoly([rng.randint(-2 ** bits, 2 ** bits)
                            for _ in range(rng.randint(1, 90))])

        tried = 0
        for r in (1, 2, 3, 4):
            for _ in range(5):
                A = [[rand_poly() for _ in range(r)] for _ in range(r)]
                B = [[rand_poly() for _ in range(r)] for _ in range(r)]
                out = pm.mat_mul_kron(A, B)
                if out is None:
                    continue
                tried += 1
                assert out == poly_mat_schoolbook(A, B)
        assert tried >= 10

    def test_matrix_packing_declines_small_or_rational(self):
        small = [[UniPoly([1, 2, 3])]]
        assert pm.mat_mul_kron(small, small) is None
        frac = [[UniPoly([Fraction(1, 2)] * 80)]]
        assert pm.mat_mul_kron(frac, frac) is None
