"""Property-based checks of the algebraic invariants."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from hodgecs import zoo
from hodgecs.cli import _coeffs_json, _scalar
from hodgecs.gaussian import GaussianRational
from hodgecs.inequalities import compute_g_direct
from hodgecs.linalg import Matrix
from hodgecs.ring import integrate, mixed_setup, wedge

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)

gaussians = st.builds(GaussianRational, small_fractions, small_fractions)


@settings(max_examples=60, deadline=None)
@given(gaussians, gaussians, gaussians)
def test_gaussian_field_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    if y:
        assert (x / y) * y == x


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda rows: st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-5, max_value=5),
                     min_size=cols, max_size=cols),
            min_size=rows, max_size=rows,
        )
    )
).map(Matrix)


@settings(max_examples=50, deadline=None)
@given(small_matrices)
def test_rank_nullity(m):
    assert m.rank() + len(m.nullspace()) == m.cols


@settings(max_examples=50, deadline=None)
@given(small_matrices, st.data())
def test_solve_roundtrip(m, data):
    x = data.draw(st.lists(
        st.integers(min_value=-4, max_value=4), min_size=m.cols, max_size=m.cols))
    b = m.apply(x)
    x2 = m.solve(b)
    assert x2 is not None and m.apply(x2) == b


symmetric_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
).map(lambda rows: Matrix([
    [rows[i][j] + rows[j][i] for j in range(len(rows))] for i in range(len(rows))
]))


@settings(max_examples=40, deadline=None)
@given(symmetric_matrices, st.data())
def test_inertia_congruence_invariance(m, data):
    n = m.rows
    a = Matrix(data.draw(st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )))
    if a.rank() < n:
        return
    assert (a.transpose() @ m @ a).inertia() == m.inertia()


@settings(max_examples=40, deadline=None)
@given(symmetric_matrices)
def test_inertia_parts_sum(m):
    np_, nm, nz = m.inertia()
    assert np_ + nm + nz == m.rows


complex_pairs = st.tuples(
    st.tuples(small_fractions, small_fractions),
    st.tuples(small_fractions, small_fractions),
)


@settings(max_examples=40, deadline=None)
@given(complex_pairs, complex_pairs)
def test_conjugation_commutes_with_ring_ops(ca, cb):
    ring = zoo.get("p1xp1").ring
    a = ring.class_vector(1, [GaussianRational(*ca[0]), GaussianRational(*ca[1])])
    b = ring.class_vector(1, [GaussianRational(*cb[0]), GaussianRational(*cb[1])])
    assert wedge(a, b).conjugate() == wedge(a.conjugate(), b.conjugate())
    assert integrate(wedge(a, b)).conjugate() == integrate(wedge(a.conjugate(), b.conjugate()))


@settings(max_examples=40, deadline=None)
@given(complex_pairs, st.tuples(small_fractions, small_fractions))
def test_g_scale_equivariance(coeffs, scale):
    t = GaussianRational(*scale)
    ring = zoo.get("p1xp1").ring
    setup = mixed_setup(1, ring.sample("omega"), [])
    alpha = ring.class_vector(1, [GaussianRational(*coeffs[0]), GaussianRational(*coeffs[1])])
    g = compute_g_direct(alpha, setup)
    assert compute_g_direct(alpha.scaled(t), setup) == t.abs2() * g
    assert g <= 0  # opposite direction holds unconditionally in degree 1


# Real entries (zero, negative, fractional) and complex ones, in classes of 1 to 3
# coefficients: degree 1 of p4, of blp4 and of P^1 x P^1 x P^1.
_formatter_rings = {1: zoo.get("p4").ring, 2: zoo.get("blp4").ring,
                    3: zoo.product(zoo.get("p1xp1"), zoo.get("p1")).ring}
_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-60, max_value=60, max_denominator=24),
    st.builds(GaussianRational, st.fractions(min_value=-9, max_value=9, max_denominator=12),
              st.fractions(min_value=-9, max_value=9, max_denominator=12)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_entries, min_size=1, max_size=3))
@example([Fraction(0), Fraction(0)])
@example([Fraction(1, 2), Fraction(1, 4)])
@example([Fraction(-3, 6), Fraction(5)])
@example([GaussianRational(Fraction(1, 2), Fraction(1, 4)), Fraction(2, 4)])
@example([GaussianRational(0, Fraction(-2, 3)), Fraction(0), Fraction(-7, 9)])
def test_int_coefficient_formatter_matches_scalar(coeffs):
    cls = _formatter_rings[len(coeffs)].class_vector(1, coeffs)
    assert _coeffs_json(cls) == [_scalar(c) for c in cls.coeffs]
