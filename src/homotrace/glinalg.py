"""Graded vector spaces, degree-homogeneous maps, and exact elimination.

A map's blocks are dense numpy arrays: ``object`` dtype holding Fractions
(or GaussianRationals) in exact mode, ``complex128`` in float mode.  Maps
are stored block-per-source-degree; missing blocks are zero.  An exact
map that a kernel returns holds sparse integer rows and forms its blocks
when they are first read.  All values are immutable after construction.

The kernels pay only for nonzero work.  Every sum of graded maps is one
``combination`` (the sum of c m over (map, coefficient) terms;
``scale``, ``+`` and ``-`` call it) and every supertrace is
``supertrace(*maps)``, which forms only the product P of all maps but
the last, T, so no other module reads the exact row format.  An exact
map's rows (``GradedMap.sparse_rows``) hold each row's nonzero entries
as (column, numerator, denominator) in lowest terms, the numerator a
Python int or a Gaussian integer (``_ratio``).  The exact kernels run on
these rows in integer arithmetic: a term is a product of numerators over
a product of denominators, terms of one entry are added over a common
denominator (``_sums``), and each nonzero sum is reduced by a gcd
(``_lowest``), so ``compose`` and ``combination`` form no Fraction.  A
result keeps its rows (``_exact_map``) and forms its object blocks only
when something reads ``blocks``, one value per nonzero entry
(``_formed_blocks``); a map built from blocks reads its rows once.  Float
blocks stay in numpy: products are ``@``, a coefficient 1 or -1 adds or
subtracts a block as it is, a supertrace sums the diagonals of the
blocks P @ T that ``compose`` stores, magnitudes are array reductions
and a zero test counts nonzero entries, so a NaN entry is never read as
zero.  ``equals`` compares two maps block by block (exact: their rows),
and a zero map scaled is itself.  A kernel's float blocks are built in
one pass: frozen in place, exactly zero ones left out, neither copied
nor checked for shape as ``GradedMap.build`` does with blocks that
callers pass in.  Every ``GradedMap`` is made by the one private
constructor ``_graded_map``, which sets its fields without the frozen
dataclass's per-field ``__setattr__``; assigning to a field still
raises.  A map is ``nonzero`` when it stores a block (or a row), read
without forming blocks, so callers carry the rule "no stored block is
exactly zero" past this boundary by testing ``nonzero``: the transfer
forms no step or tail after a zero prefix and shares one zero map per
degree for its zero words and components, and the coherence defect and
the push-forward end a term at its first zero component.

Exact elimination is ``rref`` and what is read off one run of it (null
space with its pivots, inverse, pivot rows with the inverse of their
block); every greedy "keep it if it is independent of what is kept"
choice goes through ``ExactSpan``.  They take sparse rows or vectors
(dicts index -> exact scalar), return sparse rows, and run one
fraction-free reduction on sparse integer rows: a row is cleared to
integers once (``_integer_row``), a step is row <- a row - b pivot_row
on the pivot row's entries alone, and each reduced row is divided by its
content (``_eliminate``).  ``_echelon`` pivots on the candidate row with
the fewest nonzeros and then substitutes back.  ``ExactSpan`` also takes
an exact map, read off its rows, so a rejected candidate forms no value,
and it rejects a repeat of an earlier candidate with no elimination.
Over Q(i) the same code runs on Gaussian integers, with the content
taken over the real and imaginary parts.  Scaling a row changes neither
its span nor the reduced form, so ``rref`` forms its Fractions once, at
the end, as entry / pivot, ``ExactSpan`` forms none, and
``sparse_pivots`` hands on an integer inverse over one denominator.
Float rank decisions go through ``float_rank`` and the session
tolerance.

Sparse identities between sums of products are joins over nonzero
entries (``stored_entries`` and ``coo`` read them): ``join`` pairs the
entries of two coordinate lists that meet on an index, and ``key_sums``
sorts the terms of both sides by flat key once and sums them per key with
one ``np.add.reduceat``, on int64, object (Python ints, Fractions,
GaussianRationals) or complex arrays alike; ``first_unequal`` reads the
first key where the sides differ.  The algebra axioms and the action
identities of a dg module run this way (``dgcore``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from homotrace.errors import RankAmbiguousError, ShapeError
from homotrace.scalars import (EXACT, FLOAT, GaussianRational, one_scalar,
                               zero_scalar)

# Float rank decisions are "ambiguous" when a normalized singular value
# falls in (tol, AMBIGUITY_BAND * tol].
AMBIGUITY_BAND = 100.0


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def zeros_matrix(rows: int, cols: int, mode: str) -> np.ndarray:
    if mode == EXACT:
        m = np.empty((rows, cols), dtype=object)
        m[...] = zero_scalar(EXACT)
        return m
    return np.zeros((rows, cols), dtype=complex)


def densified(rows: list[dict], cols: int) -> np.ndarray:
    """The dense exact matrix of sparse rows (dicts column -> value)."""
    out = zeros_matrix(len(rows), cols, EXACT)
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[i, j] = x
    return out


def identity_matrix(n: int, mode: str) -> np.ndarray:
    m = zeros_matrix(n, n, mode)
    for i in range(n):
        m[i, i] = one_scalar(mode)
    return m


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; NaN if any entry is NaN.

    Float magnitudes are ``hypot(re, im)``, which is Python's
    ``abs(complex)`` bit for bit; numpy's complex ``abs`` differs from it
    in the last place.
    """
    return float(magnitudes(a).max(initial=0.0))


def magnitudes(a: np.ndarray) -> np.ndarray:
    """|x| of every entry as floats: ``abs(complex(x))`` on exact entries,
    ``hypot(re, im)`` on float ones."""
    if a.dtype == object:
        return np.array([abs(complex(x)) for x in a.flat],
                        dtype=float).reshape(a.shape)
    return np.hypot(a.real, a.imag)


def _any_nonzero(a: np.ndarray) -> bool:
    return bool(np.count_nonzero(a))


def _fresh(blocks) -> tuple[tuple[int, np.ndarray], ...]:
    """(source degree, block) pairs computed by a kernel, in degree order,
    as a map stores them: each block, new or a term's own, is frozen in
    place, and one with no nonzero entry is left out."""
    return tuple((d, _freeze(m)) for d, m in blocks if _any_nonzero(m))


def _ratio(x) -> tuple:
    """(n, d) with x = n / d for an exact scalar x: its numerator and
    denominator, or for a GaussianRational the Gaussian integer d x over
    the least common multiple d of its parts' denominators, as
    ``_cleared`` reads it.  Equal values give equal pairs."""
    if type(x) is GaussianRational:
        d = math.lcm(x.re.denominator, x.im.denominator)
        return x * d, d
    return x.numerator, x.denominator


def _read_rows(block: np.ndarray) -> tuple:
    """The nonzero entries of each row of an exact block, as (column, n,
    d) in column order (``_ratio``)."""
    return tuple(tuple((j, *_ratio(x)) for j, x in enumerate(row) if x)
                 for row in block.tolist())


def _sums(terms) -> list:
    """(column, n, d) per column that the (column, n, d) terms reach, in
    column order, n / d the sum of its terms: numerators are added as they
    are when the denominators agree, else over their least common
    multiple; no sum is reduced."""
    nums: dict = {}
    dens: dict = {}
    for j, n, d in terms:
        e = dens.get(j)
        if e is None:
            nums[j], dens[j] = n, d
        elif e == d:
            nums[j] += n
        else:
            g = math.gcd(e, d)
            nums[j], dens[j] = nums[j] * (d // g) + n * (e // g), e // g * d
    return [(j, nums[j], dens[j]) for j in sorted(nums)]


def _exact_value(n, d):
    """n / d for an int or Gaussian integer n and a positive int d: one
    Fraction, times the Gaussian integer in Q(i)."""
    return Fraction(n, d) if type(n) is int else n * Fraction(1, d)


def _exact_sum(terms):
    """The sum of the n / d of (n, d) terms, formed once (``_sums``)."""
    got = _sums((0, n, d) for n, d in terms)
    return _exact_value(*got[0][1:]) if got else zero_scalar(EXACT)


def _lowest(n, d) -> tuple:
    """(n, d) over their gcd, the gcd of d and both parts of a Gaussian
    integer n: the pair that ``_ratio`` reads off the value n / d, with no
    value formed."""
    g = (math.gcd(n, d) if type(n) is int
         else math.gcd(n.re.numerator, n.im.numerator, d))
    return (n, d) if g == 1 else (_divided(n, g), d // g)


def _exact_map(source, target, degree: int, parts) -> "GradedMap":
    """The exact map whose rows at source degree d hold the sums of the
    (column, n, d) terms of each row, for (d, terms per row) in ``parts``,
    in degree order: each nonzero sum in lowest terms (``_lowest``).  The
    map keeps these rows and forms no value; a degree with no nonzero sum
    is not stored, and the blocks are formed when first read."""
    rows = {}
    for d, terms in parts:
        read = [tuple([t if t[2] == 1 else (t[0], *_lowest(*t[1:]))
                       for t in (row if len(row) == 1 else _sums(row))
                       if t[1]]) if row else () for row in terms]
        if any(read):
            rows[d] = tuple(read)
    return _graded_map(source, target, degree, None, EXACT, rows)


def _formed_blocks(m: "GradedMap") -> tuple:
    """The blocks of an exact map that keeps only its rows: one frozen
    block per stored degree, one value per row entry (``_exact_value``)."""
    out = []
    for d, rows in m.sparse_rows.items():
        block = zeros_matrix(m.target.dim(d + m.degree), m.source.dim(d),
                             EXACT)
        for i, row in enumerate(rows):
            for j, n, e in row:
                block[i, j] = _exact_value(n, e)
        out.append((d, _freeze(block)))
    return tuple(out)


@dataclass(frozen=True)
class GradedVectorSpace:
    """Finite-support map degree -> dimension, with basis labels for reports."""

    dims: tuple[tuple[int, int], ...]
    labels: tuple[tuple[int, tuple[str, ...]], ...] = ()

    @staticmethod
    def make(dims: dict[int, int], labels: dict[int, list[str]] | None = None
             ) -> "GradedVectorSpace":
        clean = {d: n for d, n in dims.items() if n > 0}
        lab = {}
        for d, n in clean.items():
            given = (labels or {}).get(d)
            if given is not None:
                if len(given) != n:
                    raise ShapeError(f"{n} labels expected in degree {d}", degree=d)
                lab[d] = tuple(given)
            else:
                lab[d] = tuple(f"d{d}_{i}" for i in range(n))
        return GradedVectorSpace(
            dims=tuple(sorted(clean.items())),
            labels=tuple(sorted(lab.items())),
        )

    def __post_init__(self):
        object.__setattr__(self, "_dim_of", dict(self.dims))
        object.__setattr__(self, "total_dim", sum(self._dim_of.values()))
        object.__setattr__(self, "positions", {lbl: (d, i) for d, names in
                           self.labels for i, lbl in enumerate(names)})

    def dim(self, degree: int) -> int:
        return self._dim_of.get(degree, 0)

    def degrees(self) -> list[int]:
        return [d for d, _ in self.dims]

    def offsets(self) -> dict[int, int]:
        """Degree -> index of its first vector in the flat basis."""
        out, off = {}, 0
        for d, n in self.dims:
            out[d], off = off, off + n
        return out

    def label(self, degree: int, index: int) -> str:
        for d, names in self.labels:
            if d == degree:
                return names[index]
        return f"d{degree}_{index}"

    def labels_in(self, degree: int) -> tuple[str, ...]:
        for d, names in self.labels:
            if d == degree:
                return names
        return ()

    def euler_characteristic(self) -> int:
        return sum((-1) ** (d % 2) * n for d, n in self.dims)


@dataclass(frozen=True, eq=False)
class GradedMap:
    """Degree-homogeneous linear map; block per source degree.

    ``build`` stores only blocks with a nonzero entry, so a map with no
    stored block is exactly zero: it is not ``nonzero``.  An exact map
    that a kernel returns keeps its ``sparse_rows`` and forms ``blocks``
    at their first read (``_formed_blocks``).
    """

    source: GradedVectorSpace
    target: GradedVectorSpace
    degree: int
    blocks: tuple[tuple[int, np.ndarray], ...]
    mode: str

    @staticmethod
    def build(source: GradedVectorSpace, target: GradedVectorSpace, degree: int,
              blocks: dict[int, np.ndarray], mode: str) -> "GradedMap":
        stored = {}
        for d, m in blocks.items():
            rows, cols = target.dim(d + degree), source.dim(d)
            if m.shape != (rows, cols):
                raise ShapeError(
                    f"block at source degree {d} has shape {m.shape}, "
                    f"expected {(rows, cols)}", degree=d)
            if rows and cols and _any_nonzero(m):
                stored[d] = _freeze(np.array(m, copy=True))
        return _graded_map(source, target, degree,
                           tuple(sorted(stored.items())), mode)

    @staticmethod
    def zero(source: GradedVectorSpace, target: GradedVectorSpace, degree: int,
             mode: str) -> "GradedMap":
        return _graded_map(source, target, degree, (), mode)

    @staticmethod
    def identity(space: GradedVectorSpace, mode: str) -> "GradedMap":
        blocks = {d: identity_matrix(n, mode) for d, n in space.dims}
        return GradedMap.build(space, space, 0, blocks, mode)

    @cached_property
    def sparse_rows(self) -> dict[int, tuple]:
        """Source degree -> the rows of its exact block (``_read_rows``),
        read once per map: the blocks are frozen, so the rows cannot go
        stale, and the kernels set them on the maps they return."""
        return {d: _read_rows(m) for d, m in self.blocks}

    @cached_property
    def nonzero(self) -> bool:
        """Whether the map stores a block (an exact kernel result: a row),
        which is false exactly when the map is zero.  Read without forming
        blocks; ``_graded_map`` sets it on every map it makes."""
        fields = self.__dict__
        return bool(fields.get("blocks", fields.get("sparse_rows")))

    def block(self, source_degree: int) -> np.ndarray:
        for d, m in self.blocks:
            if d == source_degree:
                return m
        return zeros_matrix(self.target.dim(source_degree + self.degree),
                            self.source.dim(source_degree), self.mode)

    def __add__(self, other: "GradedMap") -> "GradedMap":
        if self.degree != other.degree:
            # a zero map has no meaningful degree
            if not other.nonzero:
                return self
            if not self.nonzero:
                return other
        return combination([(self, 1), (other, 1)], self.source, self.target,
                           self.degree, self.mode)

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        if self.degree != other.degree and not (self.nonzero
                                                and other.nonzero):
            return self + other.scale(-one_scalar(other.mode))
        return combination([(self, 1), (other, -1)], self.source, self.target,
                           self.degree, self.mode)

    def __neg__(self) -> "GradedMap":
        return self.scale(-one_scalar(self.mode))

    def scale(self, c) -> "GradedMap":
        """c times the map (``combination``); a zero map is itself."""
        if not self.nonzero:
            return self
        return combination([(self, c)], self.source, self.target,
                           self.degree, self.mode)

    def to_float(self) -> "GradedMap":
        """The map in float mode: itself if it is float, else cast."""
        return self if self.mode == FLOAT else _graded_map(
            self.source, self.target, self.degree,
            _fresh((d, m.astype(complex)) for d, m in self.blocks), FLOAT)

    def is_zero(self, tol: float | None = None) -> bool:
        """Exactly zero (not ``nonzero``) when tol is None, else every
        entry within tol."""
        if tol is None:
            return not self.nonzero
        return all(max_abs(m) <= tol for _, m in self.blocks)

    def equals(self, other: "GradedMap", tol: float | None = None) -> bool:
        if (self.source.dims != other.source.dims
                or self.target.dims != other.target.dims):
            return False
        if self.degree != other.degree:
            # the zero map carries no meaningful degree
            return self.is_zero(tol) and other.is_zero(tol)
        if tol is None and self.mode == EXACT:
            return self.sparse_rows == other.sparse_rows
        mine, theirs = dict(self.blocks), dict(other.blocks)
        return all(max_abs(mine.get(d, 0) - theirs.get(d, 0)) <= (tol or 0.0)
                   for d in mine.keys() | theirs.keys())

    def max_abs(self) -> float:
        """The largest of the blocks' ``max_abs`` (0.0 for the zero map);
        NaN if any block holds a NaN."""
        tops = [max_abs(m) for _, m in self.blocks]
        return (math.nan if any(map(math.isnan, tops))
                else max(tops, default=0.0))

    def supertrace(self):
        """The map's supertrace (``supertrace``)."""
        return supertrace(self)

    def nonzero_entries(self) -> list[tuple]:
        """(source degree, row, column, the block's entry) per nonzero
        entry, in that order: formed from the rows (exact, as
        ``_formed_blocks`` forms it, so no block is formed) or read by
        ``np.nonzero`` (float), so no exact entry is tested for zero."""
        if self.mode == EXACT:
            return [(d, i, j, _exact_value(n, e))
                    for d, rows in self.sparse_rows.items()
                    for i, row in enumerate(rows) for j, n, e in row]
        return [(d, i, j, m[i, j]) for d, m in self.blocks
                for i, j in zip(*m.nonzero())]


# An exact kernel result stores only its rows, so its ``blocks`` are formed
# at their first read; a stored ``blocks`` shadows this non-data descriptor.
# (A ``__getattr__`` would do the same, but it would slow every attribute
# read of every map.)
GradedMap.blocks = cached_property(_formed_blocks)
GradedMap.blocks.__set_name__(GradedMap, "blocks")


def _graded_map(source: GradedVectorSpace, target: GradedVectorSpace,
                degree: int, blocks: tuple, mode: str,
                rows: dict | None = None) -> GradedMap:
    """The GradedMap of parts its caller vouches for (frozen blocks of the
    right shapes, in degree order, none of them zero, and the blocks'
    ``sparse_rows`` when given; blocks None when only the rows are), its
    fields set straight into the instance dictionary: the frozen
    dataclass's own ``__init__`` pays a ``__setattr__`` call per field."""
    m = object.__new__(GradedMap)
    fields = m.__dict__
    fields["source"], fields["target"], fields["degree"] = source, target, degree
    fields["mode"] = mode
    if blocks is not None:
        fields["blocks"] = blocks
    if rows is not None:
        fields["sparse_rows"] = rows
    fields["nonzero"] = bool(rows if blocks is None else blocks)
    return m


def compose(f: GradedMap, g: GradedMap) -> GradedMap:
    """f after g; degree adds."""
    if f.mode != g.mode:
        raise ShapeError("cannot compose maps of different scalar modes")
    if g.target.dims != f.source.dims:
        for d in set(g.target.degrees()) | set(f.source.degrees()):
            if g.target.dim(d) != f.source.dim(d):
                raise ShapeError(
                    f"composition mismatch in degree {d}: "
                    f"{g.target.dim(d)} vs {f.source.dim(d)}", degree=d)
    degree = f.degree + g.degree
    if f.mode != EXACT:
        f_blocks = dict(f.blocks)
        return _graded_map(g.source, f.target, degree, _fresh(
            (d, f_blocks[d + g.degree] @ gm) for d, gm in g.blocks
            if d + g.degree in f_blocks), f.mode)
    f_rows = f.sparse_rows
    return _exact_map(g.source, f.target, degree, [
        (d, [[(j, xn * yn, xd * yd) for k, xn, xd in row
              for j, yn, yd in right[k]] for row in left])
        for d, right in g.sparse_rows.items()
        if (left := f_rows.get(d + g.degree)) is not None])


def combination(terms, source: GradedVectorSpace, target: GradedVectorSpace,
                degree: int, mode: str) -> GradedMap:
    """The sum of c m over the (m, c) terms, from source to target at the
    given degree.  A map that stores no block is left out, whatever its
    degree; the others must be parallel to the sum (ShapeError otherwise),
    and with none left the sum is the zero map.  Exact: each map's rows,
    times c (``_ratio``) unless c is 1, are joined per output row and summed
    once (``_exact_map``), so terms that cancel form no value.  Float: the
    blocks in term order, the first starting the sum, each added or
    subtracted as it is when c is 1 or -1, else times c."""
    kept = []
    for m, c in terms:
        if not m.nonzero:
            continue
        if (m.degree != degree or m.source.dims != source.dims
                or m.target.dims != target.dims):
            raise ShapeError("maps are not parallel "
                             "(source/target/degree differ)")
        kept.append((m, c))
    if not kept and mode == EXACT:
        return _exact_map(source, target, degree, [])
    if not kept:
        return _graded_map(source, target, degree, (), mode)
    if mode != EXACT:
        acc: dict = {}
        for m, c in kept:
            for d, b in m.blocks:
                x = acc.get(d)
                if c == -1:
                    acc[d] = -b if x is None else x - b
                else:
                    b = b if c == 1 else b * c
                    acc[d] = b if x is None else x + b
        return _graded_map(source, target, degree,
                           _fresh(sorted(acc.items())), mode)
    rows: dict = {}
    for m, c in kept:
        read = m.sparse_rows
        if c != 1:
            cn, cd = _ratio(c)
            read = {d: [[(j, n * cn, e * cd) for j, n, e in row]
                        for row in part] for d, part in read.items()}
        for d, part in read.items():
            rows[d] = ([[*a, *x] for a, x in zip(rows[d], part)] if d in rows
                       else part)
    return _exact_map(source, target, degree,
                      [(d, rows[d]) for d in sorted(rows)])


def supertrace(*maps):
    """str(f_1 ... f_k): the sum over source degrees d of (-1)^d times the
    trace of the composite's block at d; the total degree must be 0, and
    for k = 1 every block square.  Only the composite P of all maps but
    the last, T, is formed.  Exact: one integer sum over the pairs of row
    entries P[i,j] T[j,i] (over the diagonal entries when k = 1), and one
    value formed (``_exact_sum``).  Float: the diagonal of each block P @
    T that ``compose`` stores, summed in degree order, so the value and
    its type are those of the composite's supertrace."""
    *head, t = maps
    if sum(m.degree for m in maps) != 0:
        raise ShapeError("supertrace needs a degree-0 endomorphism")
    if not head:
        for d, _ in (t.sparse_rows.items() if t.mode == EXACT else t.blocks):
            if t.source.dim(d) != t.target.dim(d):
                raise ShapeError("supertrace needs an endomorphism", degree=d)
        if t.mode == EXACT:
            return _exact_sum(
                (n if d % 2 == 0 else -n, e)
                for d, rows in t.sparse_rows.items()
                for i, row in enumerate(rows) for j, n, e in row if j == i)
        squares = t.blocks
    else:
        p = reduce(compose, head)
        if t.mode == EXACT:
            p_rows = p.sparse_rows
            return _exact_sum(
                (pn * tn if d % 2 == 0 else -pn * tn, pd * td)
                for d, rows in t.sparse_rows.items() if d + t.degree in p_rows
                for i, row in enumerate(p_rows[d + t.degree])
                for j, pn, pd in row for c, tn, td in rows[j] if c == i)
        p_blocks = dict(p.blocks)
        squares = _fresh((d, p_blocks[d + t.degree] @ m) for d, m in t.blocks
                         if d + t.degree in p_blocks)
    total = zero_scalar(t.mode)
    for d, m in squares:
        tr = zero_scalar(t.mode)
        for i in range(m.shape[0]):
            tr = tr + m[i, i]
        total = total + ((-1) ** (d % 2)) * tr
    return total


def supercommutator(f: GradedMap, g: GradedMap) -> GradedMap:
    """{f, g} = f g - (-1)^{|f||g|} g f on endomorphisms of one space."""
    if f.source.dims != f.target.dims or g.source.dims != g.target.dims:
        raise ShapeError("supercommutator needs endomorphisms")
    if f.source.dims != g.source.dims:
        raise ShapeError("supercommutator needs endomorphisms of the same space")
    fg, gf = compose(f, g), compose(g, f)
    return fg + gf if f.degree % 2 and g.degree % 2 else fg - gf


def bar_signs(degrees) -> list[tuple[int, int]]:
    """Koszul signs of the shifted bar word b_1 ... b_m, one pair per slot.

    sigma_i = (-1)^(sum_{l<i} (deg b_l - 1)) is the passage sign of an odd
    map moved to slot i (the differential insertion); sigma_i (-1)^(deg
    b_i) is the sign of cutting after slot i (the merge b_i b_{i+1}, or
    the split into b_1..b_i and b_{i+1}..b_m).
    """
    out, sigma = [], 1
    for d in degrees:
        own = sigma if d % 2 == 0 else -sigma
        out.append((sigma, own))
        sigma = -own
    return out


# ---------------------------------------------------------------------------
# Plain-matrix elimination helpers


def _content(values) -> int:
    """The gcd of integers: of Python ints and of both parts of each
    Gaussian integer (0 when all are zero)."""
    try:
        return math.gcd(*values)
    except TypeError:                   # Gaussian integers among them
        return math.gcd(*(p for x in values for p in (
            (x,) if type(x) is int else (x.re.numerator, x.im.numerator))))


def _divided(x, g: int):
    """An integer x divided by an integer g that divides it."""
    return x // g if type(x) is int else x * Fraction(1, g)


def _norm(p) -> int:
    """|p| of an integer, |p|^2 = p conj(p) of a Gaussian integer."""
    return abs(p) if type(p) is int else (p * p.conjugate()).re.numerator


def _primitive(row: dict) -> dict:
    """A sparse integer row divided by its content."""
    try:
        g = math.gcd(*row.values())
    except TypeError:                   # Gaussian integers among them
        g = _content(row.values())
    if g <= 1:
        return row
    try:
        return {j: x // g for j, x in row.items()}
    except TypeError:                   # Gaussian integers among them
        return {j: _divided(x, g) for j, x in row.items()}


def _integer_row(entries) -> dict:
    """The sparse integer row {key: n D / d} of (key, n, d) entries with
    nonzero n / d (as ``_ratio`` reads them), D the least common multiple
    of the d, divided by its content."""
    entries = list(entries)
    lcm = math.lcm(*[d for _, _, d in entries])
    return _primitive({j: n for j, n, _ in entries} if lcm == 1 else
                      {j: n * (lcm // d) for j, n, d in entries})


def _eliminate(row: dict, pivot_row: dict, c: int) -> dict:
    """row <- a row - b pivot_row on sparse integer rows, with a =
    pivot_row[c] and b = row[c] divided by their content, so that row[c]
    becomes 0; the second term touches only the pivot row's entries, and
    an entry that cancels is dropped.  The result is divided by its
    content."""
    a, b = pivot_row[c], row[c]
    try:
        g = math.gcd(a, b)
    except TypeError:                   # a Gaussian integer among them
        g = _content((a, b))
    if g != 1:
        a, b = _divided(a, g), _divided(b, g)
    out = dict(row) if a == 1 else {j: a * x for j, x in row.items()}
    for j, y in pivot_row.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    return _primitive(out) if out else out


def _echelon(rows: list[dict]) -> list[tuple[int, dict]]:
    """(pivot column, row) per row of the reduced row echelon form of the
    matrix with the given sparse rows (dicts column -> exact scalar), in
    pivot order: each row a primitive integer row (``_integer_row``),
    nonzero at its pivot and 0 at every other pivot, so R's row is it
    divided by its pivot entry.  Forward, the columns in order: the rows
    that lead at a column are the candidates, the one with the fewest
    nonzeros is the pivot row, and each other candidate is cleared by it
    (``_eliminate``) and leads further right.  Then back substitution
    clears every pivot column above its row.  For a fixed column order the
    reduced form is unique, so the choice of pivot row changes no
    output."""
    leading: dict[int, list[dict]] = {}
    for row in rows:
        if row := _integer_row((j, *_ratio(x)) for j, x in row.items() if x):
            leading.setdefault(min(row), []).append(row)
    heap = list(leading)
    heapq.heapify(heap)
    out = []
    while heap:
        c = heapq.heappop(heap)
        group = leading.pop(c)
        pivot = min(group, key=len)
        for row in group:
            if row is not pivot and (row := _eliminate(row, pivot, c)):
                lead = min(row)
                if lead not in leading:
                    leading[lead] = []
                    heapq.heappush(heap, lead)
                leading[lead].append(row)
        out.append((c, pivot))
    at = {c: k for k, (c, _) in enumerate(out)}
    for k in reversed(range(len(out))):
        c, row = out[k]
        for p in [j for j in row if j != c and j in at]:
            row = _eliminate(row, out[at[p]][1], p)
        out[k] = (c, row)
    return out


def _over(x, p):
    """The entry x / p of R, for integers x and p: a Fraction of ints, else
    a GaussianRational."""
    return Fraction(x, p) if type(x) is type(p) is int else x / p


def rref(rows: list[dict], cols: int) -> tuple:
    """Reduced row echelon form over exact scalars of the matrix with the
    given sparse rows (dicts column -> exact scalar) and ``cols`` columns;
    returns (R, pivot columns), R the list of its nonzero rows, one per
    pivot, as dicts column -> value in column order.  ShapeError if an
    entry lies outside the columns.

    Fraction-free, on sparse integer rows: ``_echelon`` clears each row to
    integers once and reduces them, pivoting on the sparsest candidate
    row, and the entries of R are formed once, at the end, as entry /
    pivot.  Scaling a row changes neither its span nor the reduced form,
    so R is the one that Fraction elimination gives.
    """
    if any(not 0 <= j < cols for row in rows for j in row):
        raise ShapeError(f"a row has an entry outside its {cols} columns")
    echelon = _echelon(rows)
    return ([{j: _over(row[j], row[c]) for j in sorted(row)}
             for c, row in echelon], [c for c, _ in echelon])


def nullspace_and_pivots(rows: list[dict], cols: int) -> tuple:
    """A deterministic basis of the kernel of the matrix with the given
    sparse rows and ``cols`` columns, as dicts index -> value in index
    order, and the pivot columns of the same elimination (``rref``); exact
    scalars.  The basis vector of a free column is 1 there and minus R's
    column at the pivots; the standard vectors at the pivots span a
    complement of the kernel."""
    r, pivots = rref(rows, cols)
    at = set(pivots)
    kernel = {fc: {fc: Fraction(1)} for fc in range(cols) if fc not in at}
    for pc, row in zip(pivots, r):
        for fc, x in row.items():
            if fc != pc:
                kernel[fc][pc] = -x
    return [dict(sorted(v.items())) for v in kernel.values()], pivots


def _flat_entries(m: "GradedMap"):
    """(flat index, n, d) per nonzero entry of an exact map, read off its
    rows: the blocks raveled in source degree order, an absent block's
    place kept."""
    rows, out, off = m.sparse_rows, [], 0
    for d, n in m.source.dims:
        if d in rows:
            out += [(off + i * n + j, num, den) for i, row in enumerate(rows[d])
                    for j, num, den in row]
        off += n * m.target.dim(d + m.degree)
    return out


class ExactSpan:
    """The span of the exact vectors kept so far, grown one candidate at a time.

    Each kept vector is stored as a sparse primitive integer row
    (``_integer_row``) reduced by ``_eliminate``: 0 at the pivots of the
    vectors kept before it and nonzero at its own, its first nonzero
    column.  ``add`` therefore decides independence with one pass over the
    stored rows, and keeping every candidate that ``add`` accepts, in
    order, picks the same vectors as the pivot columns of one elimination
    of all the candidates.  A candidate may be given at any nonzero scale
    (integer blocks over a dropped denominator, say): the decision is the
    same.  A candidate map is read off its rows (``_flat_entries``), so
    no value or block of it is formed.  Every candidate offered lies in
    the span from then on, so its primitive row and that row's negative
    are remembered, and a candidate that repeats one (most of a closure's
    rejected products do) is rejected with no elimination.
    """

    def __init__(self):
        self._rows: list[tuple[int, dict]] = []
        self._offered: set[tuple] = set()

    def add(self, vec) -> bool:
        """Keep ``vec`` (a sparse vector, dict index -> exact scalar, or an
        exact ``GradedMap`` over its flat entries) if it lies outside the
        span; report whether it did."""
        if isinstance(vec, GradedMap):
            if not vec.nonzero:
                return False
            v = _integer_row(_flat_entries(vec))
        else:
            v = _integer_row((j, *_ratio(x)) for j, x in vec.items() if x)
        key = tuple(v.items())
        if key in self._offered:
            return False
        self._offered.update((key, tuple((j, -x) for j, x in key)))
        for p, row in self._rows:
            if p in v and not (v := _eliminate(v, row, p)):
                return False
        if not v:
            return False
        self._rows.append((min(v), v))
        return True


def invert_exact(rows: list[dict]) -> list[dict]:
    """The inverse of the square exact matrix m with the given sparse rows,
    as sparse rows: the right half of one ``rref`` of [m | 1].  ShapeError
    if m is not square (n rows, n columns) or singular."""
    n = len(rows)
    if any(j >= n for row in rows for j in row):
        raise ShapeError("inversion needs a square matrix")
    r, pivots = rref([{**row, n + i: 1} for i, row in enumerate(rows)], 2 * n)
    if pivots[:n] != list(range(n)):
        raise ShapeError("matrix is singular")
    return [{j - n: x for j, x in row.items() if j >= n} for row in r]


def _cleared(values: list) -> tuple[list, int]:
    """(D values, D) for D the least common multiple of the denominators of
    exact scalars: Python ints, and Gaussian integers (GaussianRationals
    with integer parts) for the GaussianRationals."""
    d = math.lcm(*[math.lcm(x.re.denominator, x.im.denominator)
                   if type(x) is GaussianRational else x.denominator
                   for x in values])
    return [x * d if type(x) is GaussianRational
            else x.numerator * (d // x.denominator) for x in values], d


def clear_denominators(t: np.ndarray) -> tuple[np.ndarray, int, int | None]:
    """(D t, D, bound) for D the least common multiple of the denominators
    of the exact array t.  D t holds Python ints, or GaussianRationals with
    integer parts where t holds GaussianRationals; bound is the largest
    |entry| of D t, or None when it holds a GaussianRational."""
    idx = np.nonzero(t.astype(bool))  # np.nonzero tests objects twice
    ints, d = _cleared(t[idx].tolist())
    out = np.zeros(t.shape, dtype=object)
    out[idx] = ints
    gauss = any(type(x) is GaussianRational for x in ints)
    return out, d, None if gauss else max(map(abs, ints), default=0)


def coo(t: np.ndarray, dtype) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The indices and values, as ``dtype``, of the nonzero entries of t;
    only those values are converted."""
    idx = np.nonzero(t.astype(bool))
    return idx, t[idx].astype(dtype)


def stored_entries(maps) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """(map, row, column) over the flat bases and the value of every
    nonzero entry of the maps' stored blocks, in that order (a map's
    blocks follow its source degrees, so its rows ascend).  The blocks
    are raveled into one array, read for nonzero entries once."""
    meta = np.array([(k, b.size, b.shape[1], m.target.offsets()[d + m.degree],
                      m.source.offsets()[d]) for k, m in enumerate(maps)
                     for d, b in m.blocks], dtype=int).reshape(-1, 5).T
    flat = np.concatenate([np.zeros(0)] + [
        b.ravel() for m in maps for _, b in m.blocks])
    at = flat.astype(bool).nonzero()[0]
    start = meta[1].cumsum() - meta[1]
    blk = start.searchsorted(at, "right") - 1
    r, c = np.divmod(at - start[blk], meta[2, blk])
    return (meta[0, blk], r + meta[3, blk], c + meta[4, blk]), flat[at]


def join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (a, b) with left[a] == right[b]: each entry of ``left``
    meets the run of its value in ``right`` sorted stably; pairs in order
    of a, then b."""
    order = right.argsort(kind="stable")
    right = right[order]
    lo = right.searchsorted(left, "left")
    count = right.searchsorted(left, "right") - lo
    a = np.arange(len(left)).repeat(count)
    return a, order[np.arange(len(a)) + (lo + count - count.cumsum()).repeat(
        count)]


def key_sums(lhs: list, rhs: list) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys that the terms of two sides reach, sorted, and the
    sum of each side per key as the two columns of one array.  Each side
    is a list of (flat keys, values) terms, each term adding its value at
    its key.  The terms of both sides are sorted by key, once (stably, so
    a key's terms keep their order), and summed per key by one
    np.add.reduceat."""
    parts = [(k, v, side) for side, terms in enumerate((lhs, rhs))
             for k, v in terms]
    keys = np.concatenate([k for k, _, _ in parts])
    vals = np.zeros((len(keys), 2),
                    dtype=np.result_type(*(v for _, v, _ in parts)))
    off = 0
    for k, v, side in parts:
        vals[off:off + len(k), side] = v
        off += len(k)
    if not keys.size:
        return keys, vals
    order = keys.argsort(kind="stable")
    keys = keys[order]
    starts = np.concatenate([[True], keys[1:] != keys[:-1]]).nonzero()[0]
    sums = np.add.reduceat(vals[order], starts, axis=0)
    return keys[starts], sums


def first_unequal(shape: tuple[int, ...], lhs: list, rhs: list,
                  tol: float | None) -> tuple[int, ...] | None:
    """The smallest index of ``shape`` at which two sums differ: exactly
    when tol is None, else by more than tol times the largest sum of
    either side (at least 1; a NaN sum is left out of that scale, and
    fails).  Each side is a list of (index arrays, values) terms, each
    term adding its value at its index; ``key_sums`` sums them per flat
    key."""
    keys, sums = key_sums(*([(np.ravel_multi_index(idx, shape), v)
                             for idx, v in side] for side in (lhs, rhs)))
    diff = sums[:, 0] - sums[:, 1]
    bad = (diff.astype(bool) if tol is None else ~(magnitudes(diff) <= tol * (
        np.fmax.reduce(magnitudes(sums).ravel(), initial=1.0))))
    hit = np.flatnonzero(bad)
    return (tuple(map(int, np.unravel_index(keys[hit[0]], shape)))
            if hit.size else None)


def float_rank(svals: np.ndarray, tol: float) -> int:
    """Rank from singular values; raises inside the ambiguity band."""
    if svals.size == 0:
        return 0
    scale = max(1.0, float(svals[0]))
    rank = 0
    for s in svals:
        rel = float(s) / scale
        if rel > AMBIGUITY_BAND * tol:
            rank += 1
        elif rel > tol:
            raise RankAmbiguousError(
                f"relative singular value {rel:.3e} (scale {scale:.3e}) "
                f"sits in the ambiguity band ({tol:.1e}, "
                f"{AMBIGUITY_BAND * tol:.1e}]")
    return rank


def pivot_rows(matrix: np.ndarray, tol: float) -> list[int]:
    """One row per column of a float matrix, picked by Gaussian elimination
    with partial pivoting (Golub & Van Loan, 3.4), so the square block on
    those rows is invertible.  The columns must be linearly independent by
    ``float_rank`` (ShapeError otherwise)."""
    rows: list[int] = []
    if float_rank(np.linalg.svd(matrix, compute_uv=False), tol) == matrix.shape[1]:
        work = np.array(matrix, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(matrix.shape[1]):    # columns <= j: not read again
                rows.append(int(np.abs(work[:, j]).argmax()))
                work[:, j + 1:] -= (work[:, j, None] / work[rows[-1], j]
                                    * work[rows[-1], j + 1:])
    if len(rows) < matrix.shape[1]:
        raise ShapeError("matrix columns are linearly dependent")
    return rows


def sparse_pivots(pos: np.ndarray, col: np.ndarray, val: np.ndarray,
                  cols: int, mode: str, tol: float) -> tuple:
    """Pivot entries of the matrix m whose column col[e] holds val[e] at row
    pos[e], on the distinct positions in ascending order: (the pivot
    positions, one per column, F, D), coordinates at them being solved
    with F / D.  Float: F the square block of m on the ``pivot_rows``, D
    1.  Exact: F / D the inverse of that block, transposed, which is the
    right half of the reduced form of [m^T | 1] whose pivot columns are
    the pivot rows; F holds its integer rows (``_echelon``), each times D
    over its pivot entry, with D the least common multiple of the pivot
    entries' norms (``_norm``).  ShapeError if the columns are dependent."""
    keys = pos[pos.argsort(kind="stable")]
    keys = keys[keys.searchsorted(keys) == np.arange(len(keys))]
    at = keys.searchsorted(pos)
    if mode != EXACT:
        m = zeros_matrix(len(keys), cols, mode)
        m[at, col] = val
        piv = pivot_rows(m, tol)
        return keys[piv], m[piv], 1
    n = len(keys)
    rows = [{n + c: 1} for c in range(cols)]
    for i, c, x in zip(at.tolist(), col.tolist(), val.tolist()):
        rows[c][i] = x
    echelon = _echelon(rows)
    if echelon and echelon[-1][0] >= n:
        raise ShapeError("matrix columns are linearly dependent")
    d = math.lcm(*[_norm(row[c]) for c, row in echelon])
    inverse = np.zeros((cols, cols), dtype=object)
    for i, (c, row) in enumerate(echelon):
        p = row[c]              # 1 / p = conj(p) / |p|^2 over Q(i)
        f = d // p if type(p) is int else p.conjugate() * (d // _norm(p))
        for j, x in row.items():
            if j >= n:
                inverse[i, j - n] = x * f
    return keys[[c for c, _ in echelon]], inverse, d


def sum_dtype(mode: str, bound: int | None) -> type:
    """The dtype of sums of scaled values: complex in float mode; exact
    integer sums bounded by ``bound`` in int64 when it fits, else object
    (bound None: GaussianRationals)."""
    if mode != EXACT:
        return complex
    return np.int64 if bound is not None and bound < 2 ** 63 else object
