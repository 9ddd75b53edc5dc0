"""Graded linear algebra: composition, exact elimination and spans."""

import collections
import dataclasses
import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homotrace import glinalg
from homotrace.errors import RankAmbiguousError, ShapeError
from homotrace.glinalg import (
    ExactSpan,
    GradedMap,
    GradedVectorSpace,
    compose,
    float_rank,
    invert_exact,
    max_abs,
    nullspace_and_pivots,
    pivot_rows,
    rref,
    supercommutator,
    supertrace,
    zeros_matrix,
)
from homotrace.scalars import EXACT, FLOAT, GaussianRational, one_scalar
from oracles import (densified, exact_product, first_row_rref, fresh,
                     instance, matrix_from_rows, names, rows_of)


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


def test_supercommutator_identities():
    v = space({0: 2, 1: 1})
    import random
    rng = random.Random(3)
    q = GradedMap.build(v, v, 1, {0: matrix_from_rows([[1, 0]], EXACT)}, EXACT)
    assert supercommutator(q, q).equals(compose(q, q).scale(Fraction(2)))
    f = random_gmap(rng, v, v, 0)
    ident = GradedMap.identity(v, EXACT)
    assert supercommutator(f, ident).is_zero()


def kernel(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """``nullspace_and_pivots`` of a dense exact matrix's sparse rows, the
    basis as the columns of an array."""
    basis, pivots = nullspace_and_pivots(rows_of(matrix), matrix.shape[1])
    return densified(basis, matrix.shape[1]).T, pivots


def padded_rref(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """``rref`` of a dense exact matrix's sparse rows, R as an array padded
    with zero rows to the matrix's shape."""
    rows, cols = matrix.shape
    r, pivots = rref(rows_of(matrix), cols)
    return densified(r + [{}] * (rows - len(r)), cols), pivots


def test_nullspace_t1_degree0():
    """The 2 -> 1 block [1 0]: kernel spanned by e2, pivot at e1."""
    null, pivots = kernel(matrix_from_rows([[1, 0]], EXACT))
    assert list(null.ravel()) == [0, 1]
    assert pivots == [0]


def test_nullspace_zero_and_identity():
    assert kernel(zeros_matrix(3, 3, EXACT))[0].shape == (3, 3)
    assert kernel(zeros_matrix(0, 3, EXACT))[0].shape == (3, 3)
    assert kernel(matrix_from_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]], EXACT))[0].shape == (3, 0)


def test_sparse_elimination_refuses_an_entry_outside_its_columns():
    """``rref`` refuses an entry outside its columns, and ``invert_exact``
    one outside the n columns of its n rows."""
    with pytest.raises(ShapeError):
        rref([{0: Fraction(1)}, {2: Fraction(1)}], 2)
    with pytest.raises(ShapeError):
        invert_exact([{0: Fraction(1)}, {2: Fraction(1)}])
    assert invert_exact([{1: Fraction(2)}, {0: Fraction(1)}]) == [
        {1: Fraction(1)}, {0: Fraction(1, 2)}]
    with pytest.raises(ShapeError):
        invert_exact([{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(2),
                                                          1: Fraction(2)}])


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 9999))
@settings(max_examples=40, deadline=None)
def test_nullspace_rank_nullity(rows, cols, seed):
    import random
    rng = random.Random(seed)
    a = zeros_matrix(rows, cols, EXACT)
    for i in range(rows):
        for j in range(cols):
            a[i, j] = Fraction(rng.randint(-2, 2))
    null, pivots = kernel(a)
    assert null.shape == (cols, cols - len(pivots))
    assert len(pivots) == len(padded_rref(a)[1])
    assert all(x == 0 for x in (a @ null).flat)
    # the kernel basis is independent
    assert len(padded_rref(null)[1]) == null.shape[1]


def _greedy_by_rref(columns):
    """Reference: keep a column when the stack of kept columns plus it has
    full column rank, one Fraction elimination (``dense_rref``) per
    candidate."""
    kept = []
    for j, col in enumerate(columns):
        trial = np.stack([columns[k] for k in kept] + [col], axis=1)
        if len(dense_rref(trial)[1]) == trial.shape[1]:
            kept.append(j)
    return kept


BIG = 3 * 2 ** 64   # scales numerators past int64, so row contents exceed 1


@given(st.integers(1, 6), st.lists(st.integers(0, 3), min_size=1, max_size=9),
       st.booleans(), st.sampled_from([1, BIG]), st.integers(0, 9999))
@settings(max_examples=100, deadline=None)
def test_exact_span_matches_per_candidate_rref(length, kinds, gaussian, scale,
                                               seed):
    """Kind 0 is a zero column, 1 a combination of earlier columns, 2 and 3
    random columns with small entries times ``scale``; entries and
    combination coefficients are GaussianRationals when ``gaussian``."""
    import random
    rng = random.Random(seed)

    def scalar(scale):
        re = Fraction(rng.randint(-2, 2) * scale, rng.randint(1, 2))
        return GaussianRational(re, rng.randint(-2, 2) * scale) \
            if gaussian else re

    columns = []
    for kind in kinds:
        col = zeros_matrix(length, 1, EXACT)[:, 0]
        if kind == 1 and columns:
            for c in rng.sample(columns, min(2, len(columns))):
                col = col + scalar(1) * c
        elif kind >= 2:
            for i in range(length):
                col[i] = scalar(scale)
        columns.append(col)
    span = ExactSpan()
    chosen = [j for j, col in enumerate(columns)
              if span.add(dict(enumerate(col)))]
    assert chosen == _greedy_by_rref(columns)


@pytest.mark.parametrize("gaussian", [False, True])
def test_exact_span_rejects_a_repeated_candidate_without_elimination(
        monkeypatch, gaussian):
    """A candidate that repeats one offered before, at any nonzero rational
    scale of either sign, is rejected with no elimination step; a new
    combination of the kept vectors is eliminated and rejected."""
    unit = (GaussianRational(Fraction(1), Fraction(2)) if gaussian
            else Fraction(1))
    a = [unit * Fraction(3), Fraction(0), unit * Fraction(-1, 2)]
    b = [Fraction(0), Fraction(1), Fraction(1)]
    span = ExactSpan()
    assert span.add(dict(enumerate(a))) and span.add(dict(enumerate(b)))
    steps = collections.Counter()
    eliminate = glinalg._eliminate

    def counted(*args):
        steps["eliminate"] += 1
        return eliminate(*args)

    monkeypatch.setattr(glinalg, "_eliminate", counted)
    for c in [Fraction(1), Fraction(-2), Fraction(5, 3)]:
        assert not span.add(dict(enumerate(x * c for x in a)))
        assert not span.add(dict(enumerate(x * c for x in b)))
    assert not steps
    assert not span.add(dict(enumerate(x + y * 2 for x, y in zip(a, b))))
    assert steps["eliminate"] == 2


def test_float_rank_ambiguity_raises():
    with pytest.raises(RankAmbiguousError):
        float_rank(np.array([1.0, 1e-9]), 1e-10)


def test_pivot_rows_partial_pivoting():
    """Each column's pivot is its largest entry left after eliminating the
    earlier pivots; dependent or ambiguous columns raise."""
    m = np.array([[1, 3], [2, 1], [0.5, 2.875]], dtype=complex)
    # column 0 pivots on 2; column 1 is then (2.5, 0, 2.625), so row 2
    # wins although row 0 holds the larger entry before elimination
    assert pivot_rows(m, 1e-10) == [1, 2]
    assert pivot_rows(m[:, ::-1], 1e-10) == [0, 1]
    with pytest.raises(ShapeError):
        pivot_rows(np.array([[1, 2], [2, 4]], dtype=complex), 1e-10)
    with pytest.raises(RankAmbiguousError):
        pivot_rows(np.array([[1, 0], [0, 1e-9]], dtype=complex), 1e-10)
    assert pivot_rows(np.zeros((3, 0), dtype=complex), 1e-10) == []


def test_supertrace():
    v = space({0: 2, 1: 1})
    i = GradedMap.identity(v, EXACT)
    assert i.supertrace() == 1


def sparse_matrix(rng, rows, cols, gaussian, density, scale=1):
    """Random exact matrix with about ``density`` nonzero entries,
    Fractions or GaussianRationals, numerators times ``scale``."""
    m = zeros_matrix(rows, cols, EXACT)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                re = Fraction(rng.randint(-3, 3) * scale, rng.randint(1, 3))
                m[i, j] = (GaussianRational(re, rng.randint(-2, 2) * scale)
                           if gaussian else re)
    return m


def sparse_gmap(rng, src, tgt, degree, gaussian, density):
    """Random exact map: some blocks absent, the rest ``sparse_matrix``."""
    blocks = {}
    for d in src.degrees():
        rows, cols = tgt.dim(d + degree), src.dim(d)
        if not (rows and cols) or rng.random() < 0.3:
            continue
        blocks[d] = sparse_matrix(rng, rows, cols, gaussian, density)
    return GradedMap.build(src, tgt, degree, blocks, EXACT)


def assert_blocks_equal(got, expected):
    """``expected`` maps every source degree to a dense block; ``got`` must
    equal it entry for entry and store no zero block."""
    for d, ref in expected.items():
        blk = got.block(d)
        assert blk.shape == ref.shape
        assert all(x == y for x, y in zip(blk.flat, ref.flat)), d
    assert all(any(bool(x) for x in m.flat) for _, m in got.blocks)


@given(small_dims, st.integers(-1, 1), st.integers(-1, 1), st.booleans(),
       st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.integers(0, 9999))
@settings(max_examples=100, deadline=None)
def test_exact_kernels_match_dense_reference(dims, d1, d2, gaussian, density,
                                             seed):
    """compose, + and - on sparse exact maps with absent blocks equal the
    dense object-dtype ``@``, ``+`` and ``-`` over every source degree."""
    import random
    rng = random.Random(seed)
    v = space(dims)
    f = sparse_gmap(rng, v, v, d1, gaussian, density)
    g = sparse_gmap(rng, v, v, d2, gaussian, density)
    f2 = sparse_gmap(rng, v, v, d1, gaussian, density)

    product = {}
    for d in v.degrees():
        rows, mid = v.dim(d + d1 + d2), v.dim(d + d2)
        if rows and mid:
            product[d] = f.block(d + d2) @ g.block(d)
        elif rows:
            product[d] = zeros_matrix(rows, v.dim(d), EXACT)
    assert_blocks_equal(compose(f, g), product)
    for op, result in ((np.add, f + f2), (np.subtract, f - f2)):
        expected = {d: op(f.block(d), f2.block(d)) for d in v.degrees()
                    if v.dim(d + d1)}
        assert_blocks_equal(result, expected)

    # the Fraction product over nonzero entry pairs that compose replaced
    got = dict(compose(f, g).blocks)
    for d in product:
        want = (exact_product(f.block(d + d2), g.block(d)) if v.dim(d + d2)
                else None)
        assert (d in got) == (want is not None)
        if want is not None:
            assert_entries_equal(got[d], want)
    c = (GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                          rng.randint(-2, 2)) if gaussian
         else Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    assert_blocks_equal(f.scale(c), {d: f.block(d) * c for d in v.degrees()
                                     if v.dim(d + d1)})
    # sums that cancel to zero store no block
    assert (f - f).blocks == () and (f + f.scale(-1)).blocks == ()
    assert (f - f2 + f2 - f).blocks == ()
    dense_equal = all((f.block(d) == f2.block(d)).all() for d in v.degrees())
    assert f.equals(f2) == dense_equal == f2.equals(f)
    copy = GradedMap.build(v, v, d1, {d: np.array(m) for d, m in f.blocks},
                           EXACT)
    assert f.equals(copy) and copy.equals(f) and f.equals(f + (f2 - f2))

    # supertraces: of a degree-0 map, and of a prefix times a tail
    h = sparse_gmap(rng, v, v, 0, gaussian, density)
    assert h.supertrace() == sum(
        (-1) ** (d % 2) * sum(h.block(d).diagonal(), Fraction(0))
        for d in v.degrees())
    assert (h - h).supertrace() == 0
    t = sparse_gmap(rng, v, v, -d1, gaussian, density)
    want = sum((-1) ** (d % 2) * sum((f.block(d - d1) @ t.block(d)).diagonal(),
                                     Fraction(0))
               for d in v.degrees() if v.dim(d - d1))
    assert supertrace(f, t) == want == compose(f, t).supertrace()


@pytest.mark.parametrize("gaussian", [False, True])
def test_exact_compose_stores_only_nonzero_blocks(gaussian):
    """An exact compose whose products all cancel stores no block; one that
    cancels in one degree only stores the other degree's block, read-only."""
    v = GradedVectorSpace.make({0: 2, 1: 2})
    c = GaussianRational(Fraction(1, 2), 3) if gaussian else Fraction(1, 2)
    rows = [[c, c], [1, 1]]
    f = GradedMap.build(v, v, 0, {d: matrix_from_rows(rows, EXACT)
                                  for d in (0, 1)}, EXACT)
    kill = matrix_from_rows([[1, 0], [-1, 0]], EXACT)
    g = GradedMap.build(v, v, 0, {0: kill}, EXACT)
    zero = compose(f, g)
    assert zero.blocks == () and zero.is_zero()
    keep = matrix_from_rows([[1, 0], [0, 0]], EXACT)
    half = compose(f, GradedMap.build(v, v, 0, {0: kill, 1: keep}, EXACT))
    assert [d for d, _ in half.blocks] == [1]
    assert not half.blocks[0][1].flags.writeable
    assert half.equals(GradedMap.build(v, v, 0, {1: matrix_from_rows(
        [[c, 0], [1, 0]], EXACT)}, EXACT))


def dense_rref(matrix):
    """Reference elimination in Fraction (or GaussianRational) arithmetic:
    Gauss-Jordan with each pivot row scaled to 1, each step updating whole
    rows."""
    m = np.array(matrix, copy=True)
    rows, cols = m.shape
    pivots, r = [], 0
    for c in range(cols):
        if r >= rows:
            break
        pr = next((i for i in range(r, rows) if m[i, c]), None)
        if pr is None:
            continue
        m[[r, pr]] = m[[pr, r]]
        m[r] = m[r] * (1 / m[r, c])
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = m[i] - m[i, c] * m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def assert_entries_equal(got, want):
    assert got.shape == want.shape
    assert all(x == y for x, y in zip(got.flat, want.flat))


@given(st.integers(1, 5), st.integers(1, 7), st.booleans(),
       st.sampled_from([0.1, 0.3, 0.6, 1.0]), st.sampled_from([1, BIG]),
       st.integers(0, 9999))
@settings(max_examples=100, deadline=None)
def test_rref_matches_dense_elimination(rows, cols, gaussian, density, scale,
                                        seed):
    """On sparse Fraction and GaussianRational matrices, small or with
    numerators past 2^64, ``rref`` gives the echelon form and pivots of a
    Fraction elimination that updates whole rows."""
    import random
    rng = random.Random(seed)
    a = sparse_matrix(rng, rows, cols, gaussian, density, scale)
    got, pivots = padded_rref(a)
    want, want_pivots = dense_rref(a)
    assert pivots == want_pivots
    assert_entries_equal(got, want)


finite_complex = st.one_of(
    st.just(0j), st.just(complex(-0.0, 0.0)),
    st.complex_numbers(max_magnitude=1e150, allow_nan=False,
                       allow_infinity=False))


@given(st.integers(1, 3), st.lists(finite_complex, min_size=1, max_size=9))
@settings(max_examples=100, deadline=None)
def test_float_reductions_match_per_entry_reference(rows, entries):
    """On finite blocks the numpy reductions give what a loop over the
    entries gives: the same largest magnitude, the same zero test."""
    cols = -(-len(entries) // rows)
    block = np.zeros(rows * cols, dtype=complex)
    block[:len(entries)] = entries
    block = block.reshape(rows, cols)
    assert max_abs(block) == max(abs(complex(x)) for x in block.flat)
    src, tgt = space({0: cols}), space({0: rows})
    stored = GradedMap.build(src, tgt, 0, {0: block}, FLOAT).blocks
    assert bool(stored) == any(bool(x) for x in block.flat)


def test_nan_block_is_never_zero():
    """A NaN entry makes a block unmeasurably large, wherever it sits: it is
    not zero at any tolerance, and it is the map's magnitude."""
    nan = float("nan")
    block = np.array([[1e-20, nan]], dtype=complex)
    assert np.isnan(max_abs(block))
    src, tgt = space({0: 2}), space({0: 1})
    m = GradedMap.build(src, tgt, 0, {0: block}, FLOAT)
    assert not m.is_zero(1e-9)
    assert not m.equals(GradedMap.zero(src, tgt, 0, FLOAT), 1e-9)
    v = space({0: 1, 1: 1})
    two = GradedMap.build(v, v, 0, {0: np.array([[1.0 + 0j]]),
                                    1: np.array([[complex(nan, 0.0)]])}, FLOAT)
    assert np.isnan(two.max_abs())


def test_map_magnitude_over_blocks_in_any_order():
    """``GradedMap.max_abs`` is the largest of its blocks' magnitudes: NaN
    when any block holds a NaN, in either part and whichever degree its
    block sits in; inf for an infinite entry; 0.0 for a zero map."""
    nan, inf = float("nan"), float("inf")
    v = space({0: 1, 1: 1, 2: 1})

    def diagonal(entries):
        return GradedMap.build(v, v, 0, {
            d: np.array([[x]], dtype=complex) for d, x in enumerate(entries)},
            FLOAT)

    for bad in (complex(nan, 0.0), complex(0.0, nan)):
        for entries in itertools.permutations([bad, 3 + 0j, -2j]):
            got = diagonal(entries).max_abs()
            assert type(got) is float and math.isnan(got), entries
    for entries in itertools.permutations([complex(-inf, 1.0), 3 + 0j, 1j]):
        assert diagonal(entries).max_abs() == inf
    assert diagonal([1 + 0j, -4j, 2 + 0j]).max_abs() == 4.0
    for mode in (EXACT, FLOAT):
        got = GradedMap.zero(v, v, 1, mode).max_abs()
        assert type(got) is float and got == 0.0


def test_space_sizes_are_the_sums_of_their_dims():
    """``total_dim`` (and so ``DgAlgebra.n_basis``) is the sum of the dims,
    0 on the empty space, however the space is made."""
    assert space({-1: 2, 0: 3, 4: 1}).total_dim == 6
    assert GradedVectorSpace(((0, 2), (1, 0), (2, 5))).total_dim == 7
    assert space({}).total_dim == GradedVectorSpace(()).total_dim == 0
    assert space({0: 0}).total_dim == 0


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_kernel_results_are_the_maps_build_stores(mode):
    """``compose``, ``scale``, ``+``, ``-`` and ``to_float`` build their
    results in one pass, without ``GradedMap.build``'s copy and shape
    check, and each is the map ``build`` makes of the same blocks: a block
    that cancels or is scaled by 0 is left out, the others are read-only
    and in degree order, and assigning to a field still raises."""
    v = space({0: 2, 1: 2, 2: 1})
    one = Fraction(1) if mode == EXACT else 1 + 0j

    def endo(rows_by_degree):
        return GradedMap.build(v, v, 0, {
            d: matrix_from_rows([[one * x for x in row] for row in rows], mode)
            for d, rows in rows_by_degree.items()}, mode)

    f = endo({0: [[1, 2], [0, 0]], 1: [[0, 1], [1, 0]], 2: [[3]]})
    g = endo({0: [[2, 0], [-1, 0]], 2: [[-3]]})      # f g cancels in degree 0
    cases = [
        (compose(f, g), {d: dict(f.blocks)[d] @ m for d, m in g.blocks}),
        (f.scale(one / 2), {d: m * (one / 2) for d, m in f.blocks}),
        (f.scale(0 * one), {d: m * 0 for d, m in f.blocks}),
        (f + g, {d: operator.add(dict(f.blocks).get(d, 0),
                                 dict(g.blocks).get(d, 0)) for d in (0, 1, 2)}),
        (f - f, {d: m - m for d, m in f.blocks}),
        (g - f, {d: operator.sub(dict(g.blocks).get(d, 0), m)
                 for d, m in f.blocks}),
        (f.to_float(), {d: m.astype(complex) for d, m in f.blocks}),
    ]
    for got, blocks in cases:
        want = GradedMap.build(v, v, 0, blocks, got.mode)
        assert [d for d, _ in got.blocks] == [d for d, _ in want.blocks]
        for (_, m), (_, w) in zip(got.blocks, want.blocks):
            assert m.shape == w.shape and m.dtype == w.dtype
            assert not m.flags.writeable and (m == w).all()
        assert (got.source, got.target, got.degree, got.mode) == (
            want.source, want.target, want.degree, want.mode)
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.blocks = ()
    assert [len(got.blocks) for got, _ in cases] == [1, 3, 0, 2, 0, 3, 3]


def _difference_is_zero(a, b, tol):
    """What ``GradedMap.equals`` decided by before it read the blocks in
    place: the difference map formed, then tested for zero."""
    if a.degree != b.degree:
        return a.is_zero(tol) and b.is_zero(tol)
    return (a - b).is_zero(tol)


def test_equals_agrees_with_the_zero_test_of_the_difference():
    """``equals`` reads the two maps' blocks in place and decides as the
    zero test of their difference does: NaN or inf in either map, -0.0, a
    block stored on one side only and zero maps of different degrees, in
    float at a tolerance and at none, and Fraction and GaussianRational
    blocks at tol None."""
    nan, inf = float("nan"), float("inf")
    v = space({0: 2, 1: 1})

    def fmap(degree, **blocks):
        return GradedMap.build(v, v, degree, {
            int(d[1:]): np.array(b, dtype=complex) for d, b in blocks.items()},
            FLOAT)

    zero_row = [[0.0, 0.0]]
    floats = [
        fmap(1, d0=zero_row), fmap(1, d0=[[1.0, 2.0]]),
        fmap(1, d0=[[1.0, 2.0 + 1e-12]]), fmap(1, d0=[[-0.0, 0.0]]),
        fmap(1, d0=[[nan, 0.0]]), fmap(1, d0=[[complex(0, nan), 1.0]]),
        fmap(1, d0=[[inf, 0.0]]), fmap(1, d0=[[-inf, 0.0]]),
        fmap(0, d0=[[1.0, 0.0], [0.0, 1.0]]),
        fmap(0, d0=[[1.0, 0.0], [0.0, 1.0]], d1=[[1.0]]),
        fmap(0, d1=[[1.0]]), fmap(0, d1=[[1e-12]]), fmap(0, d1=[[nan]]),
        GradedMap.zero(v, v, 0, FLOAT), GradedMap.zero(v, v, -1, FLOAT),
        GradedMap.zero(v, v, 1, FLOAT),
    ]
    # inf - inf is NaN on both routes, and numpy warns of it on both
    with np.errstate(invalid="ignore"):
        for a, b in itertools.product(floats, repeat=2):
            for tol in (None, 0.0, 1e-9):
                assert a.equals(b, tol) == _difference_is_zero(a, b, tol), (
                    a.blocks, b.blocks, tol)

    def xmap(degree, blocks):
        return GradedMap.build(v, v, degree, {
            d: matrix_from_rows(rows, EXACT) for d, rows in blocks.items()},
            EXACT)

    g, h = GaussianRational(1, 2), GaussianRational(Fraction(1, 3), -1)
    exact = [
        xmap(1, {0: [[1, 2]]}), xmap(1, {0: [[Fraction(2, 2), 2]]}),
        xmap(1, {0: [[1, Fraction(5, 2)]]}), xmap(1, {0: [[g, 2]]}),
        xmap(1, {0: [[GaussianRational(1, 2), GaussianRational(2)]]}),
        xmap(1, {0: [[1, GaussianRational(2)]]}), xmap(1, {0: [[h, 0]]}),
        xmap(0, {0: [[1, 0], [0, 1]]}), xmap(0, {0: [[1, 0], [0, 1]], 1: [[1]]}),
        xmap(0, {1: [[1]]}), xmap(0, {1: [[GaussianRational(1)]]}),
        GradedMap.zero(v, v, 0, EXACT), GradedMap.zero(v, v, 2, EXACT),
    ]
    for a, b in itertools.product(exact, repeat=2):
        assert a.equals(b) == _difference_is_zero(a, b, None), (
            a.blocks, b.blocks)
    other = space({0: 1, 1: 2})
    assert not floats[0].equals(GradedMap.zero(other, other, 1, FLOAT))


def test_float_zero_test_reads_entries_as_any_does():
    """The float zero test counts nonzero entries, which reads NaN,
    complex(0, nan), -0.0 and an empty block as ``.any()`` does."""
    nan = float("nan")
    cases = [[[nan]], [[complex(0, nan)]], [[complex(nan, 0)]], [[-0.0]],
             [[complex(-0.0, -0.0)]], [[0.0, 0.0]], [[0.0, 5e-324]],
             [[float("inf")]]]
    blocks = [np.array(c, dtype=complex) for c in cases]
    blocks += [np.zeros((0, 3), dtype=complex), np.zeros((2, 0), dtype=complex)]
    for b in blocks:
        assert glinalg._any_nonzero(b) is bool(b.any()), b


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_a_zero_map_scaled_is_itself(mode):
    """A map that stores no block is returned as it is by ``scale`` and
    negation, for any scalar and of any degree; a nonzero map is scaled
    into a new map."""
    v = space({0: 2, 1: 1})
    one = one_scalar(mode)
    for m in (GradedMap.zero(v, v, 1, mode), GradedMap.zero(v, v, -1, mode),
              GradedMap.build(v, v, 0, {0: zeros_matrix(2, 2, mode)}, mode)):
        for c in (one, -one, 2 * one, 0 * one):
            assert m.scale(c) is m
        assert -m is m
    ident = GradedMap.identity(v, mode)
    assert ident.scale(one) is not ident


@pytest.mark.parametrize("seed", range(6))
def test_exact_compose_forms_one_fraction_per_entry(monkeypatch, seed):
    """An exact compose of two maps whose rows are read runs in integer
    arithmetic and forms no Fraction: its result keeps its rows.  Its
    blocks, formed at their first read, form at most one Fraction per
    nonzero entry and multiply or add none."""
    import random
    rng = random.Random(seed)
    v = space({0: 3, 1: 4, 2: 3})
    f, g = (GradedMap.build(v, v, k, {d: sparse_matrix(
        rng, v.dim(d + k), v.dim(d), False, 0.6) for d in v.degrees()
        if v.dim(d + k)}, EXACT) for k in (1, -1))
    assert f.sparse_rows and g.sparse_rows       # read before counting
    calls = collections.Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("__new__", "__mul__", "__rmul__", "__add__", "__radd__",
                 "__sub__", "__rsub__", "__neg__"):
        monkeypatch.setattr(Fraction, name,
                            counting(name, getattr(Fraction, name)))
    out = compose(f, g)
    assert not calls and "blocks" not in vars(out)
    blocks = out.blocks
    monkeypatch.undo()
    entries = sum(bool(x) for _, m in blocks for x in m.flat)
    assert entries and 0 < calls.pop("__new__") <= entries
    assert not calls
    assert_blocks_equal(out, {d: f.block(d - 1) @ g.block(d)
                              for d in v.degrees() if v.dim(d - 1)})


def _random_terms(rng, v, degree, kind):
    """Seeded (map, coefficient) terms parallel on ``v`` at ``degree``:
    rational, Gaussian or float maps with absent blocks (float entries
    drawn with +-0.0, NaN and inf), coefficients 1, -1 and others."""
    special = [0.0, -0.0, complex(0.0, -0.0), float("nan"), float("inf"),
               1.5, -2.0, 0.5j]
    terms = []
    for _ in range(rng.randint(1, 4)):
        if kind == FLOAT:
            m = GradedMap.build(v, v, degree, {
                d: np.array([[rng.choice(special) if rng.random() < 0.5
                              else 0.0 for _ in range(v.dim(d))]
                             for _ in range(v.dim(d + degree))], dtype=complex)
                for d in v.degrees() if v.dim(d + degree)
                and rng.random() < 0.7}, FLOAT)
            c = rng.choice([1, -1, 1 + 0j, -1 + 0j, 0.5, complex(0, 2)])
        else:
            gaussian = kind == "gaussian"
            m = sparse_gmap(rng, v, v, degree, gaussian, 0.5)
            c = rng.choice([Fraction(1), -1, Fraction(-2, 3),
                            GaussianRational(1, -1) if gaussian else 3])
        terms.append((m, c))
    return terms


@pytest.mark.parametrize("kind", ["rational", "gaussian", FLOAT])
@pytest.mark.parametrize("seed", range(8))
def test_combination_matches_the_dense_sum(kind, seed):
    """``combination`` equals the dense sum of c block over its terms, in
    term order, a coefficient 1 or -1 adding or subtracting the block as
    it is; exact entries compare with ==, float ones bit for bit up to the
    sign of a zero.  Zero maps of any degree are left out, sums that
    cancel store no block, no terms give the zero map, and a nonzero map
    off the sum's degree or space raises ShapeError."""
    import random
    rng = random.Random(seed)
    mode = FLOAT if kind == FLOAT else EXACT
    v = space({0: 2, 1: 3, 2: 1})
    degree = rng.choice([-1, 0, 1])
    terms = _random_terms(rng, v, degree, kind)
    terms.insert(rng.randint(0, len(terms)),
                 (GradedMap.zero(v, v, degree + 1, mode), 2))
    with np.errstate(invalid="ignore", over="ignore"):
        got = glinalg.combination(terms, v, v, degree, mode)
        want = {}
        for d in v.degrees():
            if not v.dim(d + degree):
                continue
            for m, c in terms:
                if m.degree != degree:
                    continue
                b = m.block(d)
                x = b if c == 1 else -b if c == -1 else b * c
                want[d] = want[d] + x if d in want else x
    assert (got.source, got.target, got.degree, got.mode) == (
        v, v, degree, mode)
    if mode == EXACT:
        assert_blocks_equal(got, want)
    else:
        for d, w in want.items():
            assert np.array_equal(got.block(d), w, equal_nan=True), d
        assert all(m.flags.writeable is False and np.count_nonzero(m)
                   for _, m in got.blocks)

    if mode == FLOAT:   # NaN and inf do not cancel
        terms = [(m, c) for m, c in terms if c in (1, -1) and all(
            np.isfinite(b).all() for _, b in m.blocks)]
    cancel = terms + [(m, -c) for m, c in terms]
    assert glinalg.combination(cancel, v, v, degree, mode).blocks == ()
    none = glinalg.combination([], v, v, 3, mode)
    assert (none.blocks, none.degree, none.mode) == ((), 3, mode)
    bad = GradedMap.identity(v, mode) if degree else GradedMap.build(
        v, v, 1, {0: glinalg.identity_matrix(3, mode)[:, :2]}, mode)
    with pytest.raises(ShapeError):
        glinalg.combination(terms + [(bad, 1)], v, v, degree, mode)
    other = space({0: 2, 1: 2})
    with pytest.raises(ShapeError):
        glinalg.combination([(GradedMap.identity(other, mode), 1)], v, v, 0,
                            mode)


def test_an_exact_zero_combination_carries_its_rows():
    """An exact sum with no nonzero term, of no terms or of zero maps only,
    carries its (empty) ``sparse_rows`` as every other kernel result does,
    so nothing reads its blocks again."""
    v = space({0: 2, 1: 1})
    zeros = [(GradedMap.zero(v, v, d, EXACT), 2) for d in (0, 1)]
    for terms in ([], zeros):
        out = glinalg.combination(terms, v, v, 0, EXACT)
        assert out.blocks == () and "sparse_rows" in vars(out)
        assert out.sparse_rows == {}


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_supertrace_of_a_product_is_that_of_the_composite(gaussian, seed):
    """``supertrace(*maps)`` equals the supertrace of ``reduce(compose,
    maps)`` for k = 1 to 4 exact maps whose degrees sum to 0, and raises
    ShapeError when they do not."""
    import random
    rng = random.Random(seed)
    v = space({0: 2, 1: 2, 2: 1})
    for k in range(1, 5):
        degrees = [rng.choice([-1, 0, 1]) for _ in range(k - 1)]
        degrees.append(-sum(degrees))
        maps = [sparse_gmap(rng, v, v, d, gaussian, 0.6) for d in degrees]
        assert supertrace(*maps) == functools.reduce(compose, maps
                                                     ).supertrace()
        maps[-1] = sparse_gmap(rng, v, v, degrees[-1] + 1, gaussian, 0.6)
        with pytest.raises(ShapeError):
            supertrace(*maps)


@pytest.mark.parametrize("kind", ["rational", "gaussian", FLOAT])
def test_nonzero_entries_are_those_np_nonzero_reads(kind):
    """``nonzero_entries`` lists the positions that ``np.nonzero`` finds in
    each stored block, in the same order, with the block's own values and
    their types: exact maps read from their rows, float ones with +-0.0
    left out and NaN kept."""
    import random
    rng = random.Random(5)
    v = space({0: 2, 1: 3, 2: 1})
    for m, _ in (t for degree in (-1, 0, 1)
                 for t in _random_terms(rng, v, degree, kind)):
        got = m.nonzero_entries()
        want = [(d, i, j, b[i, j]) for d, b in m.blocks
                for i, j in zip(*b.nonzero())]
        assert [e[:3] for e in got] == [e[:3] for e in want]
        assert [type(e[3]) for e in got] == [type(e[3]) for e in want]
        if kind == FLOAT:
            assert np.array_equal([e[3] for e in got], [e[3] for e in want],
                                  equal_nan=True)
        else:
            assert [e[3] for e in got] == [e[3] for e in want]


def assert_rref_is_the_first_row_rref(matrix):
    """``rref`` of the sparse rows of a dense exact matrix gives the pivots
    and R of ``first_row_rref``, entry for entry and type for type: R's
    nonzero rows, in column order, and padded with zero rows."""
    want, want_pivots = first_row_rref(matrix)
    got, pivots = padded_rref(matrix)
    assert pivots == want_pivots and got.shape == want.shape
    assert all(type(x) is type(y) and x == y
               for x, y in zip(got.flat, want.flat))
    cols = matrix.shape[1]
    rows, pivots = rref(rows_of(matrix), cols)
    assert pivots == want_pivots and len(rows) == len(pivots)
    assert all(list(row) == sorted(row) and all(row.values())
               for row in rows)
    assert all(type(x) is type(y) and x == y for x, y in zip(
        densified(rows, cols).flat, want[:len(rows)].flat))


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("seed", range(30))
def test_rref_matches_the_first_row_rref(seed, gaussian):
    """On seeded Fraction and GaussianRational matrices, empty shapes
    included, with zero rows, zero columns and repeated rows, small or
    with numerators past 2^64."""
    import random
    rng = random.Random(seed)
    rows, cols = rng.randint(0, 7), rng.randint(0, 8)
    a = sparse_matrix(rng, rows, cols, gaussian,
                      rng.choice([0.1, 0.3, 0.6, 1.0]), rng.choice([1, BIG]))
    if rows and cols:
        a[rng.randrange(rows), :] = Fraction(0)
        a[:, rng.randrange(cols)] = Fraction(0)
        a[rng.randrange(rows)] = a[rng.randrange(rows)]
    assert_rref_is_the_first_row_rref(a)


def _recorded_rref_inputs(monkeypatch, run) -> list[np.ndarray]:
    """The matrices that the exact elimination (``glinalg._echelon``, which
    ``rref`` and ``sparse_pivots`` run) is handed while ``run()`` runs,
    each densified up to its last nonzero column."""
    seen, echelon = [], glinalg._echelon

    def recording(rows):
        seen.append(densified(rows, max((j + 1 for row in rows for j in row),
                                        default=0)))
        return echelon(rows)

    monkeypatch.setattr(glinalg, "_echelon", recording)
    run()
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("name", names(EXACT))
def test_rref_on_the_pivot_blocks_of_a_load(monkeypatch, name):
    """Every matrix that building an exact instance hands the elimination,
    the [m^T | 1] of ``sparse_pivots`` for each operator degree among
    them."""
    seen = _recorded_rref_inputs(monkeypatch, lambda: fresh(name))
    assert len(seen) > 3
    for matrix in seen:
        assert_rref_is_the_first_row_rref(matrix)


@pytest.mark.parametrize("name", names(EXACT))
def test_rref_on_the_boundary_matrix_of_the_cycle_basis(monkeypatch, name):
    """The boundary matrix of ``cycle_basis`` at length <= 3, handed over
    as sparse rows, reduces to the R and pivots of ``first_row_rref``."""
    from homotrace.hochschild import cycle_basis
    inst = instance(name)
    seen = _recorded_rref_inputs(
        monkeypatch, lambda: cycle_basis(inst.bundle.algebra, 3))
    assert len(seen) == 1
    assert_rref_is_the_first_row_rref(seen[0])
