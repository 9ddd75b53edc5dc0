"""Graded linear algebra: composition, Koszul tensor, exact elimination and spans."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homotrace.errors import RankAmbiguousError, ShapeError
from homotrace.glinalg import (
    ExactSpan,
    GradedMap,
    GradedVectorSpace,
    compose,
    exact_nullspace,
    float_rank,
    matrix_from_rows,
    nullspace_and_pivots,
    rref,
    supercommutator,
    tensor_map,
    zeros_matrix,
)
from homotrace.scalars import EXACT


def space(dims):
    return GradedVectorSpace.make(dims)


def random_gmap(rng, src, tgt, degree):
    blocks = {}
    for d in src.degrees():
        rows, cols = tgt.dim(d + degree), src.dim(d)
        if rows and cols:
            m = zeros_matrix(rows, cols, EXACT)
            for i in range(rows):
                for j in range(cols):
                    m[i, j] = Fraction(rng.randrange(-3, 4))
            blocks[d] = m
    return GradedMap.build(src, tgt, degree, blocks, EXACT)


small_dims = st.dictionaries(st.integers(-1, 2), st.integers(1, 3),
                             min_size=1, max_size=3)


@given(small_dims, st.integers(-1, 1), st.integers(-1, 1), st.integers(0, 9999))
@settings(max_examples=40, deadline=None)
def test_composition_associative_and_degree_additive(dims, d1, d2, seed):
    import random
    rng = random.Random(seed)
    v = space(dims)
    f = random_gmap(rng, v, v, d1)
    g = random_gmap(rng, v, v, d2)
    h = random_gmap(rng, v, v, 0)
    assert compose(f, compose(g, h)).equals(compose(compose(f, g), h))
    assert compose(f, g).degree == d1 + d2


def test_identity_neutral():
    v = space({0: 2, 1: 1})
    i = GradedMap.identity(v, EXACT)
    import random
    f = random_gmap(random.Random(0), v, v, 1)
    assert compose(f, i).equals(f)
    assert compose(i, f).equals(f)


def test_compose_shape_mismatch_names_spaces():
    v, w = space({0: 2}), space({0: 3})
    f = GradedMap.zero(v, v, 0, EXACT)
    g = GradedMap.zero(w, w, 0, EXACT)
    with pytest.raises(ShapeError):
        compose(f, g)


@given(small_dims, st.integers(0, 1), st.integers(0, 1), st.integers(0, 9999))
@settings(max_examples=40, deadline=None)
def test_koszul_interchange(dims, d1, d2, seed):
    """(f(x)g)(f'(x)g') = (-1)^{|g||f'|} (ff')(x)(gg') as matrices."""
    import random
    rng = random.Random(seed)
    v = space(dims)
    f = random_gmap(rng, v, v, d1)
    g = random_gmap(rng, v, v, d2)
    fp = random_gmap(rng, v, v, 1)
    gp = random_gmap(rng, v, v, 0)
    lhs = compose(tensor_map(f, g), tensor_map(fp, gp))
    sign = (-1) ** ((g.degree % 2) * (fp.degree % 2))
    rhs = tensor_map(compose(f, fp), compose(g, gp)).scale(Fraction(sign))
    assert lhs.equals(rhs)


def test_tensor_identity():
    v = space({0: 2, 1: 1})
    i = GradedMap.identity(v, EXACT)
    ii = tensor_map(i, i)
    from homotrace.glinalg import tensor_space
    assert ii.equals(GradedMap.identity(tensor_space(v, v), EXACT))


def test_tensor_sign_on_odd_vector():
    """deg-1 (x) deg-1 maps acting on a deg-1 (x) deg-0 vector pick up -1."""
    v = space({0: 1, 1: 1, 2: 1})
    blocks = {0: matrix_from_rows([[1]], EXACT), 1: matrix_from_rows([[1]], EXACT)}
    f = GradedMap.build(v, v, 1, blocks, EXACT)
    fg = tensor_map(f, f)
    # total degree 1 sector of v(x)v is ordered (0,1) then (1,0)
    col = fg.block(1)
    # the (1,0) source block maps with sign (-1)^{1*1} = -1
    from homotrace.glinalg import tensor_layout
    layout = tensor_layout(v, v)
    offs = {(p, q): off for p, q, off in layout[1]}
    out_offs = {(p, q): off for p, q, off in layout[3]}
    assert col[out_offs[(1, 2)], offs[(0, 1)]] == 1
    assert col[out_offs[(2, 1)], offs[(1, 0)]] == -1


def test_supercommutator_identities():
    v = space({0: 2, 1: 1})
    import random
    rng = random.Random(3)
    q = GradedMap.build(v, v, 1, {0: matrix_from_rows([[1, 0]], EXACT)}, EXACT)
    assert supercommutator(q, q).equals(compose(q, q).scale(Fraction(2)))
    f = random_gmap(rng, v, v, 0)
    ident = GradedMap.identity(v, EXACT)
    assert supercommutator(f, ident).is_zero()


def test_nullspace_t1_degree0():
    """The 2 -> 1 block [1 0]: kernel spanned by e2, pivot at e1."""
    null, pivots = nullspace_and_pivots(matrix_from_rows([[1, 0]], EXACT))
    assert list(null.ravel()) == [0, 1]
    assert pivots == [0]
    assert (exact_nullspace(matrix_from_rows([[1, 0]], EXACT)) == null).all()


def test_nullspace_zero_and_identity():
    assert exact_nullspace(zeros_matrix(3, 3, EXACT)).shape == (3, 3)
    assert exact_nullspace(zeros_matrix(0, 3, EXACT)).shape == (3, 3)
    assert exact_nullspace(matrix_from_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]], EXACT)).shape == (3, 0)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 9999))
@settings(max_examples=40, deadline=None)
def test_nullspace_rank_nullity(rows, cols, seed):
    import random
    rng = random.Random(seed)
    a = zeros_matrix(rows, cols, EXACT)
    for i in range(rows):
        for j in range(cols):
            a[i, j] = Fraction(rng.randint(-2, 2))
    null, pivots = nullspace_and_pivots(a)
    assert null.shape == (cols, cols - len(pivots))
    assert len(pivots) == len(rref(a)[1])
    assert all(x == 0 for x in (a @ null).flat)
    # the kernel basis is independent
    assert len(rref(null)[1]) == null.shape[1]


def _greedy_by_rref(columns):
    """Reference: keep a column when the stack of kept columns plus it has
    full column rank, one elimination per candidate."""
    kept = []
    for j, col in enumerate(columns):
        trial = np.stack([columns[k] for k in kept] + [col], axis=1)
        if len(rref(trial)[1]) == trial.shape[1]:
            kept.append(j)
    return kept


@given(st.integers(1, 6), st.lists(st.integers(0, 3), min_size=1, max_size=9),
       st.integers(0, 9999))
@settings(max_examples=100, deadline=None)
def test_exact_span_matches_per_candidate_rref(length, kinds, seed):
    """Kind 0 is a zero column, 1 a combination of earlier columns, 2 and 3
    random columns with small entries."""
    import random
    rng = random.Random(seed)
    columns = []
    for kind in kinds:
        col = zeros_matrix(length, 1, EXACT)[:, 0]
        if kind == 1 and columns:
            for c in rng.sample(columns, min(2, len(columns))):
                col = col + Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * c
        elif kind >= 2:
            for i in range(length):
                col[i] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        columns.append(col)
    span = ExactSpan()
    chosen = [j for j, col in enumerate(columns) if span.add(col)]
    assert chosen == _greedy_by_rref(columns)


def test_float_rank_ambiguity_raises():
    with pytest.raises(RankAmbiguousError):
        float_rank(np.array([1.0, 1e-9]), 1e-10)


def test_supertrace():
    v = space({0: 2, 1: 1})
    i = GradedMap.identity(v, EXACT)
    assert i.supertrace() == 1
