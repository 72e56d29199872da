"""The fraction-free elimination kernel against independent references.

Echelon forms, ranks, kernels and solutions are compared with a textbook
Gauss-Jordan loop over the field (kept here as the reference) and with
sympy; inertia is compared with Sturm root counts of the characteristic
polynomial. Skipped when sympy is absent.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from hodgecs import zoo
from hodgecs.linalg import Matrix
from hodgecs.ring import multiplication_matrix, power
from hodgecs.sampling import sample_random_class
from test_inertia_oracle import sturm_inertia


def _gauss_jordan(rows, cols):
    """Reference RREF: normalise each pivot to 1, clear its column."""
    a = [list(r) for r in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == len(a):
            break
        k = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, tuple(pivots)


def _reference_solve(rows, b, cols):
    """Pivot-first solution of rows @ x = b from the reference RREF."""
    red, pivots = _gauss_jordan([list(r) + [v] for r, v in zip(rows, b)], cols + 1)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return tuple(x)


def _sym(x):
    return sympy.Rational(x.numerator, x.denominator)


def _sym_matrix(m: Matrix):
    return sympy.Matrix(m.rows, m.cols, [_sym(m[i, j]) for i in range(m.rows) for j in range(m.cols)])


def _as_rows(m: Matrix):
    return [list(m.row(i)) for i in range(m.rows)]


def _check_against_references(m: Matrix):
    red, pivots = m.rref()
    ref, ref_pivots = _gauss_jordan(_as_rows(m), m.cols)
    assert pivots == ref_pivots, m
    assert red == Matrix(ref), m
    assert m.rank() == len(ref_pivots)

    s_red, s_pivots = _sym_matrix(m).rref(simplify=True)
    assert pivots == tuple(s_pivots), m
    assert _sym_matrix(red) == s_red, m

    # Canonical kernel basis: sympy's kernel vectors, reduced to echelon form.
    s_null = _sym_matrix(m).nullspace(simplify=True)
    mine = m.nullspace()
    assert len(mine) == len(s_null) == m.cols - len(pivots)
    if s_null:
        canon = sympy.Matrix.hstack(*s_null).T.rref(simplify=True)[0]
        assert sympy.Matrix([[_sym(x) for x in v] for v in mine]) == canon, m


def _check_solve(m: Matrix, b):
    x = m.solve(b)
    assert x == _reference_solve(_as_rows(m), [Fraction(v) for v in b], m.cols)
    s_m = _sym_matrix(m)
    s_b = sympy.Matrix([_sym(v) for v in b])
    consistent = s_m.rank(simplify=True) == s_m.row_join(s_b).rank(simplify=True)
    assert (x is not None) == consistent
    if x is not None:
        assert all(type(v) is Fraction for v in x)
        assert m.apply(x) == tuple(b)


def _random_rational_matrix(rng):
    rows, cols = rng.randint(1, 8), rng.randint(1, 8)

    def entry():
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    kind = rng.choice(("dense", "low_rank", "zero_columns", "repeated_rows"))
    if kind == "low_rank":
        k = rng.randint(0, min(rows, cols) - 1)
        left = [[entry() for _ in range(k)] for _ in range(rows)]
        right = [[entry() for _ in range(cols)] for _ in range(k)]
        a = [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
              for j in range(cols)] for i in range(rows)]
    else:
        a = [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind == "zero_columns":
        for j in rng.sample(range(cols), rng.randint(1, cols)):
            for row in a:
                row[j] = Fraction(0)
    if kind == "repeated_rows" and rows > 1:
        for i in range(1, rows):
            if rng.random() < 0.5:
                src = a[rng.randrange(i)]
                a[i] = [x * Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for x in src]
    return Matrix(a)


def _random_complex_rows(rng, max_size=5):
    """Rational rows in which each entry becomes, with probability 0.15, a Python
    complex or a sympy number with I."""
    rows, cols = rng.randint(1, max_size), rng.randint(1, max_size)
    a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
         for _ in range(rows)]
    for row in a:
        for j, x in enumerate(row):
            if rng.random() < 0.15:
                y = rng.randint(-3, 3)
                row[j] = complex(x, y) if rng.random() < 0.5 else _sym(x) + y * sympy.I
    return a


def test_rational_matrices_match_references():
    rng = random.Random(20260518)
    for _ in range(200):
        m = _random_rational_matrix(rng)
        _check_against_references(m)
        x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m.cols)]
        _check_solve(m, list(m.apply(x0)))
        _check_solve(m, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m.rows)])


def test_complex_matrices_are_rejected():
    """Elimination is over the rationals: a complex entry is refused when the
    matrix is built, never dropped, even when its imaginary part is zero."""
    rng = random.Random(515)
    rejected = 0
    for _ in range(40):
        a = _random_complex_rows(rng)
        if all(isinstance(x, Fraction) for row in a for x in row):
            assert Matrix(a).row(0) == tuple(a[0])
            continue
        rejected += 1
        with pytest.raises(TypeError, match="as a rational"):
            Matrix(a)
        with pytest.raises(TypeError, match="as a rational"):
            Matrix.from_columns(a)
    assert rejected > 30


def _p1_fifth():
    entry = zoo.projective_space(1, "a")
    for label in "bcde":
        entry = zoo.product(entry, zoo.projective_space(1, label))
    return entry.ring


def test_multiplication_operators_match_references():
    for ring in (_p1_fifth(), zoo.blowup_pn(8).ring):
        w = sample_random_class(ring, 1, 5, seed=7, index=0)
        for p in range(ring.n):
            for k in range(1, ring.n - p + 1):
                m = multiplication_matrix(ring, p, power(w, k))
                _check_against_references(m)
        # A rank-deficient operator: a degree-1 class with kernel directions.
        m = multiplication_matrix(ring, 1, ring.basis_class(1, 0))
        _check_against_references(m)


def test_real_matrix_complex_rhs_is_two_real_solves():
    """A complex right-hand side b = re + i*im is solved through its parts: sympy
    with I decides consistency, and x_re + i*x_im solves the complex system with
    every free variable zero. ``solve`` itself refuses a complex value."""
    rng = random.Random(99)
    for _ in range(60):
        m = _random_rational_matrix(rng)
        re = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m.rows)]
        im = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m.rows)]
        if rng.random() < 0.6:
            # Consistent right-hand sides: images of real vectors.
            re = list(m.apply([rng.randint(-4, 4) for _ in range(m.cols)]))
            im = list(m.apply([rng.randint(-4, 4) for _ in range(m.cols)]))
        s_m = _sym_matrix(m)
        s_b = sympy.Matrix([_sym(x) + sympy.I * _sym(y) for x, y in zip(re, im)])
        x_re, x_im = m.solve(re), m.solve(im)
        consistent = s_m.rank(simplify=True) == s_m.row_join(s_b).rank(simplify=True)
        assert (x_re is not None and x_im is not None) == consistent
        if consistent:
            s_x = sympy.Matrix([_sym(u) + sympy.I * _sym(v) for u, v in zip(x_re, x_im)])
            assert sympy.expand(s_m * s_x - s_b) == sympy.zeros(m.rows, 1)
            free = set(range(m.cols)) - set(m.rref()[1])
            assert all(s_x[j] == 0 for j in free)
        _check_solve(m, re)
        _check_solve(m, im)
        with pytest.raises(TypeError, match="as a rational"):
            m.solve([complex(x, y) for x, y in zip(re, im)])


def test_zero_diagonal_forms_match_sturm_counts():
    rng = random.Random(4242)
    for trial in range(40):
        n = rng.randint(2, 8)
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    a[i][j] = a[j][i] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if trial % 4 == 0:
            # Repeat a row and column, so the form has a radical.
            a[-1] = list(a[0])
            for row in a:
                row[-1] = row[0]
            a[-1][-1] = a[0][0]
        m = Matrix(a)
        assert m.inertia() == sturm_inertia(_sym_matrix(m)), a
