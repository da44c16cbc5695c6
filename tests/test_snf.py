import random

from oracle_snf import (
    smith_normal_form,
    solve_in_column_span,
    t_divmod,
    t_from_exps,
    t_mat_det,
    t_mat_mul,
    t_mat_rank,
    t_mul,
    verify_snf,
)

T = t_from_exps([1])
T2 = t_from_exps([2])


def test_single_t():
    factors, u, v = smith_normal_form([[T]])
    assert factors == [T]
    assert verify_snf([[T]], factors, u, v)


def test_gcd_extraction():
    m = [[T, T2]]
    factors, u, v = smith_normal_form(m)
    assert factors == [T]
    assert verify_snf(m, factors, u, v)


def test_certificates_remultiply():
    m = [[T ^ 1, 0], [0, T2]]
    factors, u, v = smith_normal_form(m)
    assert verify_snf(m, factors, u, v)
    # divisibility chain and content: product of factors = det up to units
    assert len(factors) == 2
    assert t_divmod(factors[1], factors[0])[1] == 0
    assert t_mat_det(u) == 1
    assert t_mat_det(v) == 1


def test_random_matrices():
    rng = random.Random(99)
    for _ in range(150):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        m = [[rng.getrandbits(3) for _ in range(ncols)] for _ in range(nrows)]
        factors, u, v = smith_normal_form(m)
        assert verify_snf(m, factors, u, v)
        assert t_mat_det(u) == 1
        assert t_mat_det(v) == 1
        for i in range(1, len(factors)):
            assert t_divmod(factors[i], factors[i - 1])[1] == 0


def test_rank_over_fraction_field():
    assert t_mat_rank([[T, T2], [0, 0]]) == 1
    assert t_mat_rank([[T, 0], [0, T ^ 1]]) == 2


def test_solve_in_column_span():
    rng = random.Random(5)
    for _ in range(100):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        m = [[rng.getrandbits(3) for _ in range(ncols)] for _ in range(nrows)]
        w = [rng.getrandbits(2) for _ in range(ncols)]
        target = [0] * nrows
        for i in range(nrows):
            acc = 0
            for j in range(ncols):
                if m[i][j] and w[j]:
                    acc ^= t_mul(m[i][j], w[j])
            target[i] = acc
        got = solve_in_column_span(m, target)
        assert got is not None
        check = [0] * nrows
        for i in range(nrows):
            acc = 0
            for j in range(ncols):
                if m[i][j] and got[j]:
                    acc ^= t_mul(m[i][j], got[j])
            check[i] = acc
        assert check == target


def test_mat_mul_identity():
    m = [[T, 1], [0, T2]]
    eye = [[1, 0], [0, 1]]
    assert t_mat_mul(m, eye) == m
    assert t_mat_mul(eye, m) == m
