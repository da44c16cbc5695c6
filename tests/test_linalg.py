from knotfloer.linalg import LinearSystem, flag_mask, iter_bits

from echelon import ColumnSolver, Echelon


def _combine(cols, combo):
    """Sum of the columns picked by the bits of combo."""
    acc = 0
    for j in iter_bits(combo):
        acc ^= cols[j]
    return acc


def _sum_mask(flags):
    """The quadratic reference that `flag_mask` replaces."""
    return sum(1 << j for j, f in enumerate(flags) if f)


def test_flag_mask_matches_the_sum_of_bits(rng):
    cases = [[], [False], [True], [0, 1, 0]]
    cases += [[rng.random() < p for _ in range(rng.randint(1, 300))] for p in (0.0, 0.1, 0.5, 1.0) for _ in range(25)]
    for flags in cases:
        assert flag_mask(flags) == flag_mask(iter(flags)) == _sum_mask(flags), flags


def test_affine_solve_invertible():
    # rows (1 1), (0 1): bit i of a column is row i
    solver = ColumnSolver([0b01, 0b11])
    assert solver.solve(0b01) == 0b01
    assert solver.kernel == []


def test_affine_solve_underdetermined():
    solver = ColumnSolver([0b1, 0b1])
    assert solver.solve(0b1) == 0b01  # the free variable stays 0
    assert solver.kernel == [0b11]


def test_affine_solve_no_solution():
    solver = ColumnSolver([0, 0])
    assert solver.solve(0b01) is None
    assert len(solver.kernel) == 2


def test_solutions_verify_and_dimension(rng):
    for _ in range(200):
        rows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        cols = [rng.getrandbits(rows) for _ in range(ncols)]
        b = _combine(cols, rng.getrandbits(ncols))
        solver = ColumnSolver(cols)
        x = solver.solve(b)
        assert x is not None
        assert _combine(cols, x) == b
        for v in solver.kernel:
            assert v and _combine(cols, v) == 0
        assert len(solver.kernel) == ncols - Echelon(cols).dim


def test_solve_deterministic(rng):
    cols = [0b01, 0b10, 0b11, 0b01]  # rows (1 0 1 1), (0 1 1 0)
    solver = ColumnSolver(cols)
    first = (solver.solve(0b11), solver.kernel)
    for _ in range(5):
        again = ColumnSolver(cols)
        assert (again.solve(0b11), again.kernel) == first


def test_echelon_projection_is_linear(rng):
    for _ in range(200):
        dim = rng.randint(1, 10)
        ech = Echelon(rng.getrandbits(dim) for _ in range(rng.randint(0, 6)))
        a = rng.getrandbits(dim)
        b = rng.getrandbits(dim)
        assert ech.reduce(a) ^ ech.reduce(b) == ech.reduce(a ^ b)
        assert ech.contains(ech.reduce(a) ^ a)


def test_column_solver_kernel_and_solve(rng):
    for _ in range(100):
        ncols = rng.randint(1, 8)
        cols = [rng.getrandbits(6) for _ in range(ncols)]
        solver = ColumnSolver(cols)
        for combo in solver.kernel:
            acc = 0
            for j in range(ncols):
                if (combo >> j) & 1:
                    acc ^= cols[j]
            assert acc == 0
        target = 0
        picks = rng.getrandbits(ncols)
        for j in range(ncols):
            if (picks >> j) & 1:
                target ^= cols[j]
        combo = solver.solve(target)
        assert combo is not None
        acc = 0
        for j in range(ncols):
            if (combo >> j) & 1:
                acc ^= cols[j]
        assert acc == target


def test_linear_system_solves(rng):
    for _ in range(100):
        nvars = rng.randint(1, 8)
        system = LinearSystem()
        system.new_vars(nvars)
        secret = rng.getrandbits(nvars)
        rows = []
        for _ in range(rng.randint(1, 10)):
            mask = rng.getrandbits(nvars)
            rhs = bin(mask & secret).count("1") % 2
            system.add_equation(mask, rhs)
            rows.append((mask, rhs))
        got = system.solve()
        assert got is not None
        for mask, rhs in rows:
            assert bin(mask & got).count("1") % 2 == rhs


def test_linear_system_inconsistent():
    system = LinearSystem()
    system.new_vars(2)
    system.add_equation(0b11, 0)
    system.add_equation(0b11, 1)
    assert system.solve() is None
