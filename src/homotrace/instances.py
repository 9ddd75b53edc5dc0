"""Deterministic generators of validated bundle + splitting test instances.

Three families:
* matrix instances: End(M) acting on a small graded complex (preset T1);
* torus instances: the truncated Fourier model of the del-bar complex on a
  flat complex torus, with the commutative algebra of Fourier multipliers
  generated by the constant-coefficient operators up to the order cap;
* random instances: seeded exact bundles with a random square-zero
  differential and a random unital operator subalgebra closed under
  product and differential, the span closure of two random operators
  formed with glinalg's exact map arithmetic (over Q, or Q(i) when an
  operator has a Gaussian entry).

Every generator, the float copy (``to_float_instance``) and the file
loader build an instance one way, ``build_instance``: it passes the
operators (matrix units, mode projectors, the closed random span, cast
or read operators) to ``dgcore.algebra_from_operators``, which reads the
structure constants, unit and differential off them and proves closure,
and validates the dg axioms and the splitting invariants.  So what
``gen`` writes is what a load of that file builds.
"""

from __future__ import annotations

import cmath
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from homotrace.dgcore import (
    DgModuleBundle,
    Splitting,
    ValidationReport,
    algebra_from_operators,
    build_splitting_hodge,
    build_splitting_projector,
    check_splitting,
    matrix_units,
    validate_bundle,
)
from homotrace.errors import CapError, ClosureError, InputError, ShapeError
from homotrace.glinalg import (
    ExactSpan,
    GradedMap,
    GradedVectorSpace,
    compose,
    densified,
    invert_exact,
    supercommutator,
    zeros_matrix,
)
from homotrace.scalars import EXACT, FLOAT, one_scalar, session_tol

MAX_TOTAL_DIM = 64
# slots of one chain-file term: the store keeps every prefix of every
# rotation, so a term of k slots costs memory of order k^3 (trace --cyclic
# 0 to 3 on a term at the cap of T1 or r11: 0.2-0.4 s and 43-46 MB each)
MAX_CHAIN_SLOTS = 128
# verify's --max-arity: the defects up to arity k store every prefix of
# every bar term, of order k^3 slots (T1 at 32: 0.5 s and 68 MB; r11:
# 1.2 s and 147 MB; both about three times that at 48)
MAX_ARITY = 32
# declared operators of one instance: the load tables only the product
# rows with a sum at a pivot; 64 is End of the largest matrix instance
# (module dimension 8), kept until the module view's join is measured
MAX_ALGEBRA_DIM = 64
# module dimension of a matrix instance, whose algebra is all of End(M)
MAX_MATRIX_DIM = 8
MAX_RANDOM_DIM = 12
DEFAULT_ORDER_CAP = 2
DEFAULT_CLOSURE_BOUND = 48

# (degree, terms): the nonzero (flat index, value) pairs in index order
Element = tuple[int, tuple[tuple[int, object], ...]]


@dataclass
class Instance:
    """A validated bundle with its splitting and user-facing named elements,
    each stored as an ``Element``: its nonzero coordinates as (flat index,
    value) pairs in ascending index order, the values as given."""

    bundle: DgModuleBundle
    splitting: Splitting
    elements: dict[str, Element]
    validation: tuple[ValidationReport, ValidationReport]  # bundle, splitting
    meta: dict = field(default_factory=dict)

    @property
    def mode(self) -> str:
        return self.bundle.mode

    def element(self, name: str) -> Element:
        """The element so named as (degree, terms), else the basis operator
        of that name as (its degree, ((its index, 1),))."""
        got = self.elements.get(name)
        if got is not None:
            return got
        flat = self.bundle.algebra.flat_by_name(name)
        if flat is None:
            raise InputError(f"unknown operator {name!r}")
        return (self.bundle.algebra.basis_degree(flat),
                ((flat, one_scalar(self.mode)),))


def _distinct(names, message: str) -> None:
    """InputError ``message`` on the first name that repeats, if one does."""
    for name, count in Counter(names).items():
        if count > 1:
            raise InputError(message.format(name))


def map_from_triplets(space: GradedVectorSpace, degree: int, trips,
                      mode: str) -> GradedMap:
    """The map of the given degree on ``space`` with entry dst <- src equal
    to value for each (source label, target label, value) triplet and 0
    elsewhere: how the Q and operators of a file, a matrix instance and a
    torus are read."""
    pos = space.positions
    if len(pos) < space.total_dim:
        _distinct([lbl for d in space.degrees() for lbl in space.labels_in(d)],
                  "module label {!r} is declared twice")
    blocks = {d: zeros_matrix(space.dim(d + degree), space.dim(d), mode)
              for d in space.degrees() if space.dim(d + degree)}
    for src, dst, value in trips:
        if src not in pos or dst not in pos:
            raise InputError(f"unknown module label in entry {src}->{dst}")
        (ds, i), (dt, j) = pos[src], pos[dst]
        if dt != ds + degree:
            raise InputError(
                f"entry {src}->{dst} does not have degree {degree}")
        blocks[ds][j, i] = value
    return GradedMap.build(space, space, degree, blocks, mode)


def build_instance(space: GradedVectorSpace, q: GradedMap,
                   operators: list[GradedMap], names: list[str], mode: str,
                   tol: float | None, elements: list, meta: dict) -> Instance:
    """The instance of the algebra that the named operators on (space, Q)
    span, with the projector splitting in exact mode and the Hodge one in
    float at ``tol`` (None: the session tolerance): the one way an
    ``Instance`` is built.  ``elements`` lists (name, degree, [(operator
    name, value), ...]), each kept as an ``Element`` without its zero
    values.  A zero-dimensional module, more than ``MAX_ALGEBRA_DIM``
    operators, a repeated name or a coordinate of another degree than its
    element's is an InputError; failed axiom or splitting checks are a
    ShapeError naming each with its witness."""
    if not space.dims:
        raise InputError("the module is zero-dimensional")
    if len(operators) > MAX_ALGEBRA_DIM:
        raise InputError(f"the instance declares {len(operators)} operators, "
                         f"above the cap {MAX_ALGEBRA_DIM}")
    tol = session_tol(mode, tol)
    if not compose(q, q).is_zero(tol):
        raise InputError("Q-squared: differential does not square to zero")
    _distinct(names, "operator name {!r} is declared twice")
    bundle = algebra_from_operators(space, q, operators, names, mode, tol)
    splitting = (build_splitting_projector(space, q) if mode == EXACT
                 else build_splitting_hodge(space, q, tol=tol))
    algebra = bundle.algebra
    _distinct([name for name, _, _ in elements],
              "element {!r} is declared twice")
    named = {}
    for name, degree, coords in elements:
        _distinct([op for op, _ in coords],
                  f"element {name!r} lists operator {{!r}} twice")
        terms = []
        for op, value in coords:
            k = algebra.flat_by_name(op)
            if k is None:
                raise InputError(f"unknown operator {op!r} in element {name!r}")
            if algebra.basis_degree(k) != degree:
                raise InputError(
                    f"element {name!r} declares degree {degree}, but "
                    f"{op!r} has degree {algebra.basis_degree(k)}")
            if value:
                terms.append((k, value))
        named[name] = (degree, tuple(sorted(terms)))
    rep = validate_bundle(bundle, tol)
    srep = check_splitting(space, q, splitting, tol)
    for what, report in (("instance", rep), ("splitting", srep)):
        if not report.ok:
            raise ShapeError(f"{what} fails validation: " + ", ".join(
                c.name + (f" [{c.witness}]" if c.witness else "")
                for c in report.failures()))
    return Instance(bundle=bundle, splitting=splitting, elements=named,
                    meta=meta, validation=(rep, srep))


def matrix_instance(dims: dict[int, int],
                    q_entries: list[tuple[str, str, object]] | None = None,
                    labels: dict[int, list[str]] | None = None) -> Instance:
    """End(M) acting on the complex M with the given differential entries."""
    total = sum(dims.values())
    if total > MAX_MATRIX_DIM:
        raise InputError("matrix instances are capped at module dimension "
                         f"{MAX_MATRIX_DIM}")
    space = GradedVectorSpace.make(dims, labels)
    q = map_from_triplets(space, 1, [(src, dst, Fraction(val))
                                     for src, dst, val in q_entries or []],
                          EXACT)
    entries, maps, names = matrix_units(space, EXACT)
    identity = [(name, Fraction(1)) for (sd, i, td, j), name
                in zip(entries, names) if (sd, i) == (td, j)]
    return build_instance(space, q, maps, names, EXACT, None,
                          [("Id", 0, identity)],
                          {"kind": "matrix", "dims": dict(dims)})


def t1_instance() -> Instance:
    """The canonical 3-dimensional example: e1, e2 in degree 0, f in degree 1,
    Q e1 = f."""
    inst = matrix_instance({0: 2, 1: 1},
                           q_entries=[("e1", "f", Fraction(1))],
                           labels={0: ["e1", "e2"], 1: ["f"]})
    inst.meta["preset"] = "T1"
    return inst


def torus_instance(truncation: int, tau: complex | tuple = 1j,
                   order_cap: int = DEFAULT_ORDER_CAP,
                   tol: float | None = None) -> Instance:
    """Truncated Fourier model of the flat-torus del-bar complex.

    Modes phi_{m,n} with |m|,|n| <= truncation in degrees 0 and 1; the
    differential acts diagonally by the del-bar multiplier.  The algebra
    is the commutative multiplier algebra spanned by the mode projectors
    P(m,n) (the closure of the constant-coefficient operators, which act
    diagonally and preserve the truncation exactly), read off them by
    ``algebra_from_operators``.  Named elements give the constant-coefficient
    derivative powers up to the order cap.  Checks hold to ``tol``.
    """
    total = 2 * (2 * truncation + 1) ** 2
    if truncation < 1:
        raise InputError("truncation must be >= 1")
    if order_cap < 1:
        raise InputError("order cap below 1 leaves no derivative operators")
    if total > MAX_TOTAL_DIM:
        raise InputError(
            f"total dimension {total} exceeds the cap {MAX_TOTAL_DIM}")
    if isinstance(tau, tuple):
        tau = complex(float(tau[0]), float(tau[1]))
    tau = complex(tau)
    if tau.imag == 0:
        raise InputError("torus modulus must have nonzero imaginary part")
    modes = [(m, n) for m in range(-truncation, truncation + 1)
             for n in range(-truncation, truncation + 1)]
    n_modes = len(modes)
    denom = tau - tau.conjugate()
    # d/dz and d/dzbar multipliers on exp(2 pi i (m u + n v)), z = u + tau v
    lam = {mn: 2j * cmath.pi * (-tau.conjugate() * mn[0] + mn[1]) / denom
           for mn in modes}
    mubar = {mn: 2j * cmath.pi * (tau * mn[0] - mn[1]) / denom for mn in modes}
    projectors = [f"P({m},{n})" for m, n in modes]
    elements = [("Id", 0, [(p, one_scalar(FLOAT)) for p in projectors])]
    try:
        elements += [("ddz" if k == 1 else f"ddz{k}", 0, [
            (p, lam[mn] ** k) for p, mn in zip(projectors, modes)])
            for k in range(1, order_cap + 1)]
    except OverflowError as exc:
        raise InputError(f"the derivative multipliers up to order {order_cap} "
                         "are outside the double range") from exc

    phi = [f"phi({m},{n})" for m, n in modes]
    space = GradedVectorSpace.make({0: n_modes, 1: n_modes},
                                   {0: phi, 1: [f"{p}dzb" for p in phi]})
    q = map_from_triplets(space, 1, [(p, f"{p}dzb", mubar[mn])
                                     for p, mn in zip(phi, modes)], FLOAT)
    maps = [map_from_triplets(space, 0, [(x, x, 1.0) for x in (p, f"{p}dzb")],
                              FLOAT) for p in phi]
    meta = {"kind": "torus", "truncation": truncation,
            "tau": [tau.real, tau.imag], "order_cap": order_cap,
            "modes_per_degree": n_modes}
    return build_instance(space, q, maps, projectors, FLOAT, tol, elements,
                          meta)


def torus_element(instance: Instance, order: int) -> Element:
    """Constant-coefficient derivative of the given order; errors above cap."""
    cap = instance.meta.get("order_cap", DEFAULT_ORDER_CAP)
    if order > cap:
        raise CapError(f"operator order {order} exceeds the instance cap {cap}")
    name = "Id" if order == 0 else ("ddz" if order == 1 else f"ddz{order}")
    return instance.element(name)


# ---------------------------------------------------------------------------
# Random exact instances


def _random_square_zero(rng: random.Random, space: GradedVectorSpace
                        ) -> GradedMap:
    """Q from a random two-role basis split (sources map to targets only),
    conjugated by a random rational change of basis."""
    role = {d: [rng.random() < 0.5 for _ in range(n)] for d, n in space.dims}
    blocks = {}
    for d, n in space.dims:
        m = space.dim(d + 1)
        if m == 0:
            continue
        b = zeros_matrix(m, n, EXACT)
        targets = [i for i in range(m) if not role[d + 1][i]]
        for j in range(n):
            if role[d][j]:
                for i in targets:
                    b[i, j] = Fraction(rng.randint(-2, 2))
        blocks[d] = b
    q = GradedMap.build(space, space, 1, blocks, EXACT)
    s_blocks, si_blocks = {}, {}
    for d, n in space.dims:
        while True:
            s = [{j: Fraction(x) for j in range(n)
                  if (x := rng.randint(-1, 1))} for _ in range(n)]
            try:
                si = invert_exact(s)
                break
            except ShapeError:
                continue
        s_blocks[d], si_blocks[d] = densified(s, n), densified(si, n)
    smap = GradedMap.build(space, space, 0, s_blocks, EXACT)
    simap = GradedMap.build(space, space, 0, si_blocks, EXACT)
    return compose(smap, compose(q, simap))


def _closure(space: GradedVectorSpace, q: GradedMap,
             generators: list[GradedMap], bound: int) -> list[GradedMap]:
    """Unital span closure under composition and {Q, .}; exact, over Q or
    Q(i).

    Every candidate is a ``GradedMap``: b m and m b are ``compose``, and
    {Q, m} is ``supercommutator``.  These keep their integer rows and form
    no value, so a candidate that is thrown away forms no Fraction.
    Operators of different degrees are independent, so independence is
    decided in one ``ExactSpan`` per degree, which reads each candidate
    map's rows.  The queue is last in, first out: a kept operator queues
    its bracket, then b m and m b for each kept b.
    """
    basis: list[GradedMap] = []
    spans: dict[int, ExactSpan] = {}

    def try_add(m: GradedMap) -> bool:
        if not spans.setdefault(m.degree, ExactSpan()).add(m):
            return False
        basis.append(m)
        if len(basis) > bound:
            raise ClosureError(
                f"algebra closure exceeded the dimension bound {bound}")
        return True

    try_add(GradedMap.identity(space, EXACT))
    queue = list(generators)
    while queue:
        m = queue.pop()
        if try_add(m):
            queue.append(supercommutator(q, m))
            for b in list(basis):
                queue.append(compose(b, m))
                queue.append(compose(m, b))
    return basis


def to_float_instance(instance: Instance, tol: float | None = None) -> Instance:
    """Float copy of an exact instance (a float one as it is): its Q,
    operators and elements cast to doubles and built again at ``tol``
    (``build_instance``), with the Hodge (Laplacian) splitting."""
    bundle = instance.bundle
    if bundle.mode == FLOAT:
        return instance
    a = bundle.algebra
    names = [a.basis_name(k) for k in range(a.n_basis)]
    try:
        q, operators = bundle.q.to_float(), [r.to_float() for r in bundle.rho]
        elements = [(name, deg, [(names[k], complex(v)) for k, v in terms])
                    for name, (deg, terms) in instance.elements.items()]
    except OverflowError as exc:
        raise InputError(f"a coefficient is outside the double range: {exc}"
                         ) from exc
    return build_instance(bundle.space, q, operators, names, FLOAT, tol,
                          elements, {**instance.meta, "scalar": FLOAT})


def _random_generators(seed: int, dims: dict[int, int]
                       ) -> tuple[GradedVectorSpace, GradedMap,
                                  list[GradedMap]]:
    """The module, the random square-zero Q and the two random generators
    that ``random_instance`` closes, from one seeded generator."""
    rng = random.Random(seed)
    space = GradedVectorSpace.make(dims)
    q = _random_square_zero(rng, space)
    degrees = space.degrees()
    gens = []
    for _ in range(2):
        d_src = rng.choice(degrees)
        d_tgt = rng.choice(degrees)
        rows, cols = space.dim(d_tgt), space.dim(d_src)
        b = zeros_matrix(rows, cols, EXACT)
        entries = max(1, (rows * cols) // 2)
        for _ in range(entries):
            b[rng.randrange(rows), rng.randrange(cols)] = Fraction(
                rng.randint(-2, 2))
        gens.append(GradedMap.build(space, space, d_tgt - d_src,
                                    {d_src: b}, EXACT))
    return space, q, gens


def random_instance(seed: int, dims: dict[int, int]) -> Instance:
    """Deterministic exact bundle from a seed: random square-zero Q and a
    random unital operator subalgebra closed under d and product."""
    total = sum(dims.values())
    if not any(n > 0 for n in dims.values()):
        raise InputError("random instances need a positive dimension")
    if total > MAX_RANDOM_DIM:
        raise InputError(f"random instances are capped at total dimension "
                         f"{MAX_RANDOM_DIM}, got {total}")
    space, q, gens = _random_generators(seed, dims)
    basis_maps = _closure(space, q, gens, DEFAULT_CLOSURE_BOUND)
    names, count = [], {}
    for m in basis_maps:
        i = count.get(m.degree, 0)
        count[m.degree] = i + 1
        names.append(f"b{m.degree}_{i}")
    # the closure's first operator, b0_0, is the identity
    return build_instance(space, q, basis_maps, names, EXACT, None,
                          [("Id", 0, [("b0_0", one_scalar(EXACT))])],
                          {"kind": "random", "seed": seed, "dims": dict(dims),
                           "algebra_dim": len(basis_maps)})
