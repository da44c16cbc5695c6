import random

from conftest import ipoly_divexact, ipoly_mul
from oracle_snf import t_deg, t_divmod, t_exps, t_from_exps, t_mul

# The two-variable ring lives in the test oracle: the program never
# multiplies GF(2)[U,V] polynomials, the oracle does, so its ring laws
# are checked here.
from oracle_uv import UV_ONE, UV_ZERO, uv_add, uv_mono, uv_mul, uv_mul_hat, uv_swap


def test_characteristic_two():
    p = uv_add(uv_mono(1, 0), uv_mono(0, 1))  # U + V
    assert uv_add(p, p) == UV_ZERO


def test_frobenius_square():
    p = uv_add(uv_mono(1, 0), uv_mono(0, 1))
    assert uv_mul(p, p) == uv_add(uv_mono(2, 0), uv_mono(0, 2))


def test_monomial_product():
    assert uv_mul(uv_mono(2, 0), uv_mono(0, 3)) == uv_mono(2, 3)


def test_ring_axioms_random():
    rng = random.Random(7)

    def rand_poly():
        return frozenset(
            (rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(0, 4))
        )

    for _ in range(200):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert uv_add(p, q) == uv_add(q, p)
        assert uv_mul(p, q) == uv_mul(q, p)
        assert uv_mul(p, uv_add(q, r)) == uv_add(uv_mul(p, q), uv_mul(p, r))
        assert uv_mul(uv_mul(p, q), r) == uv_mul(p, uv_mul(q, r))
        assert uv_mul(p, UV_ONE) == p
        # determinism: recomputation gives the identical term set
        assert uv_add(p, q) == uv_add(p, q)


def test_hat_product_kills_mixed():
    assert uv_mul_hat(uv_mono(1, 0), uv_mono(0, 1)) == UV_ZERO
    assert uv_mul_hat(uv_mono(1, 0), uv_mono(1, 0)) == uv_mono(2, 0)


def test_swap():
    assert uv_swap(uv_mono(2, 5)) == uv_mono(5, 2)


def test_t_poly_ops():
    t = t_from_exps([1])
    assert t_exps(t_mul(t, t)) == (2,)
    q, r = t_divmod(t_from_exps([3, 1]), t)
    assert t_exps(q) == (0, 2) and r == 0
    assert t_deg(0) == -1


def test_t_mul_matches_int_poly():
    rng = random.Random(11)
    for _ in range(200):
        a = rng.getrandbits(8)
        b = rng.getrandbits(8)
        prod = t_mul(a, b)
        brute = 0
        for i in t_exps(a):
            for j in t_exps(b):
                brute ^= 1 << (i + j)
        assert prod == brute
        if b:
            q, r = t_divmod(a, b)
            assert t_mul(q, b) ^ r == a
            assert t_deg(r) < t_deg(b)


def test_ipoly_divexact():
    t2_minus_1 = {2: 1, 0: -1}
    t_plus_1 = {1: 1, 0: 1}
    assert ipoly_divexact(t2_minus_1, t_plus_1) == {1: 1, 0: -1}
    prod = ipoly_mul({3: 2, 0: 1}, {5: 1, 2: -4})
    assert ipoly_divexact(prod, {3: 2, 0: 1}) == {5: 1, 2: -4}
