"""``Matrix.kernel`` against the two-pass kernel it replaced.

The kernel reduces A once, with its columns reversed, and reads the reduced
echelon form of ker A off that reduction. The oracle below is the earlier
route: reduce A, write one kernel vector per free column over A's last
pivot, then reduce that basis a second time. Both must give the same
canonical matrix, numerators, denominator and shape alike.
"""

from hypothesis import given, settings, strategies as st

from hodgecs import zoo
from hodgecs.lefschetz import hr_check, primitive_basis
from hodgecs.linalg import Matrix
from hodgecs.ring import FLAG_KAHLER, ClassVector, class_columns, multiplication_matrix, wedge


def _two_pass_kernel(m: Matrix) -> Matrix:
    red, pivots = m.rref()
    pivot_set = set(pivots)
    raw = []
    for f in (c for c in range(m.cols) if c not in pivot_set):
        v = [0] * m.cols
        v[f] = red.den
        for r, c in enumerate(pivots):
            v[c] = -red.num[r][f]
        raw.append(v)
    return Matrix._of(raw, red.den, m.cols).rref()[0]


def _same(a: Matrix, b: Matrix) -> bool:
    return (a.rows, a.cols, a.num, a.den) == (b.rows, b.cols, b.num, b.den)


@st.composite
def _int_matrices(draw):
    """rows x cols int matrices over a denominator, 0 x k and k x 0 included: a
    product B @ C through an inner dimension that may be short of full rank, or
    dense entries, then with some rows and columns set to zero."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    ints = st.integers(-9, 9)
    if draw(st.booleans()):
        inner = draw(st.integers(0, 4))
        b = draw(st.lists(st.lists(ints, min_size=inner, max_size=inner),
                          min_size=rows, max_size=rows))
        c = draw(st.lists(st.lists(ints, min_size=cols, max_size=cols),
                          min_size=inner, max_size=inner))
        a = [[sum(b[i][t] * c[t][j] for t in range(inner)) for j in range(cols)]
             for i in range(rows)]
    else:
        a = draw(st.lists(st.lists(ints, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    for i in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=rows)):
        a[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=cols)):
        for row in a:
            row[j] = 0
    return Matrix._of(a, draw(st.integers(1, 12)), cols)


@settings(max_examples=400, deadline=None)
@given(_int_matrices())
def test_kernel_equals_the_two_pass_oracle(m):
    kernel = m.kernel()
    assert _same(kernel, _two_pass_kernel(m)), m
    assert (kernel.rows, kernel.cols) == (m.cols - m.rank(), m.cols)
    assert _same(m @ kernel.transpose(), Matrix.zeros(m.rows, kernel.rows))


def test_kernel_shapes_at_the_edges():
    for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 2)):
        m = Matrix.zeros(rows, cols)
        assert _same(m.kernel(), Matrix.identity(cols))
        assert _same(m.kernel(), _two_pass_kernel(m))
    full = Matrix([[1, 2], [3, 4]])
    assert _same(full.kernel(), Matrix.zeros(0, 2))


def test_one_kernel_is_one_rref(monkeypatch):
    calls = []
    real = Matrix.rref
    monkeypatch.setattr(Matrix, "rref", lambda self: calls.append(self) or real(self))
    ring = zoo.blowup_pn(8).ring
    w = ring.sample_classes()[0]
    cases = [Matrix.zeros(0, 4), Matrix.zeros(4, 0), Matrix([[1, 2, 3], [2, 4, 6]]),
             multiplication_matrix(ring, 2, wedge(w, w))]
    for m in cases:
        calls.clear()
        m.kernel()
        assert len(calls) == 1, m


def test_primitive_basis_on_p1_to_the_seventh_equals_the_oracle():
    # n = 7, p = 3: the kernel of a -> a * w * w_1 from degree 3 (35) to degree 5 (21).
    entry = zoo.projective_space(1, "a0")
    for i in range(1, 7):
        entry = zoo.product(entry, zoo.projective_space(1, f"a{i}"))
    ring = entry.ring
    # Classes with positive coefficients on every factor are ample.
    w = ring.class_vector(1, [1, 2, 3, 4, 5, 6, 7], FLAG_KAHLER)
    w1 = ring.class_vector(1, [3, 1, 4, 1, 5, 9, 2], FLAG_KAHLER)
    by = wedge(w, w1)
    # The operator from one wedge per basis class, independent of the table scatter.
    op = class_columns([wedge(ring.basis_class(3, i), by) for i in range(ring.dim(3))],
                       ring.dim(5))
    assert _same(op, multiplication_matrix(ring, 3, by))
    oracle = _two_pass_kernel(op)
    prim = primitive_basis(ring, 3, w, [w1])
    assert prim.basis == tuple(ClassVector(ring, 3, row, oracle.den) for row in oracle.num)
    assert prim.dim == 14
    report = hr_check(ring, 3, w, [w1])
    assert report.passed, report
    assert report.restricted_inertia == (14, 0, 0)
