"""Homotopy transfer of a module action to an A-infinity morphism.

The engine evaluates the operator-valued connection form built from the
propagator exp[-dt kappa - t Delta], Delta = {Q, kappa} (pi1 in projector
kind), whose heat kernel it reads off the spectrum, ``r_kappa`` and
``lambda1`` that the splitting keeps (on its ``float_copy`` in floats),
and checks the transferred morphism's coherence relations.  Every input, a
basis index or a homogeneous ``Slot``, is read once (``_elements``), but
``transfer_closed`` reads a word of basis indices as one store read: the
``on_basis`` component of the reversed word, eps applied once.  The form's
top component integrates to the word p rho h rho ... h rho i: in closed
form, or by quadrature over the gap cube of the same word with each
h replaced by the heat kernel L diag(e^(-t lam)) (R kappa), whose integral
over t in (0, inf) is h.  Each gap appears in one heat kernel only, so by
Fubini the cube integral is the word with each h replaced by L G (R
kappa), G the integral of diag(e^(-t lam)): one adaptive Gauss-Legendre
integral over the compactified gap (chart t = -ln(1-sigma)/mu, mu the
spectral gap), at any arity.  The closed form is built from factors kept
per morphism: the step h rho(b) of a basis element grows a stored prefix p
rho(b_1) h ... rho(b_j) by one compose, and its tail h rho(b) i closes a
prefix into a component with one more; its supertrace is
``glinalg.supertrace`` of the same two factors, which does not form it.
Each sum of maps is one ``glinalg.combination``.  ``transfer_closed``
keeps the morphism of the last (bundle, splitting) pair it was given, so
repeated calls on one pair share these factors and the components.

Signs.  In chain order the transferred component is

  f_m(b_1, ..., b_m) = p rho(b_1) h rho(b_2) ... h rho(b_m) i

(``AInfinityMorphism.on_basis``), with no sign of its own.  Moving Q
through it with {Q, h} = 1 - ip, pQ = 0 and Qi = 0 gives the bar relation
f b - b f = 0 with the two Koszul signs of ``glinalg.bar_signs``
(``ainfinity_defect``).  Its d and merge terms come from
``DgAlgebra.bar_terms``, the one source of the bar terms of a basis word,
which the Hochschild differential expands too.  The integral over the gap
cube gives the word acting right to left, a_1 first, times its
top-coefficient sign eps(k, degrees) = (-1)^(k-1) * (-1)^(sum_{j>=2} (j-1)
deg a_j).  eps belongs only to the two word-order functions
``transfer_closed`` and ``transfer_quadrature``: each is eps times f_k on
the reversed word.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from homotrace.dgcore import (DgModuleBundle, EndoAlgebra, Splitting,
                              endomorphism_algebra)
from homotrace.errors import QuadratureBudgetError, ShapeError
from homotrace.glinalg import (AMBIGUITY_BAND, GradedMap, GradedVectorSpace,
                               bar_signs, combination, compose, supertrace)
from homotrace.quadrature import (DEFAULT_BUDGET, DEFAULT_ORDER, _cell_cost,
                                  integrate_interval)
from homotrace.scalars import FLOAT, one_scalar, session_tol, zero_scalar

# ---------------------------------------------------------------------------
# Inputs: a basis index or a Slot, read as (degree, nonzero terms)


@dataclass(frozen=True, eq=False)
class Slot:
    """A homogeneous algebra element destined for one tensor slot."""

    degree: int
    coeffs: np.ndarray  # over the flat algebra basis


def _basis_degree(algebra, item) -> int | None:
    """The degree of an input that is a basis index of the algebra, an int
    (a bool too) or a numpy integer in range(n_basis); None for any other
    input."""
    if isinstance(item, (int, np.integer)) and 0 <= item < algebra.n_basis:
        return algebra.basis_degree(item)
    return None


def _elements(bundle: DgModuleBundle, inputs) -> list[tuple[int, list]]:
    """Each input as (degree, [(basis index, coefficient), ...]): a basis
    index b as (deg b, [(b, 1)]), a Slot as its declared degree and its
    nonzero coefficients, each of which must be of that degree.  Any other
    input, or none, raises ShapeError."""
    a, out = bundle.algebra, []
    one = one_scalar(a.mode)
    for item in inputs:
        if isinstance(item, Slot):
            terms = [(k, item.coeffs[k])
                     for k in np.flatnonzero(item.coeffs).tolist()]
            if any(a.basis_degree(k) != item.degree for k, _ in terms):
                raise ShapeError("rho of a non-homogeneous element, or of "
                                 "one off its declared degree")
            out.append((item.degree, terms))
        elif (degree := _basis_degree(a, item)) is not None:
            out.append((degree, [(int(item), one)]))
        else:
            raise ShapeError(f"cannot interpret {item!r} as an algebra "
                             "element")
    if not out:
        raise ShapeError("transfer needs at least one input")
    return out


def _rho(bundle: DgModuleBundle, element: tuple[int, list]) -> GradedMap:
    """rho of one read input, in float arithmetic."""
    return combination([(bundle.rho[k], c) for k, c in element[1]],
                       bundle.space, bundle.space, element[0],
                       bundle.mode).to_float()


# ---------------------------------------------------------------------------
# Configuration points and the propagator


@dataclass(frozen=True)
class ConfigurationPoint:
    """Gap coordinates t_i > 0 (math.inf allowed) between consecutive points."""

    gaps: tuple[float, ...]

    def __post_init__(self):
        for t in self.gaps:
            if not (t >= 0.0):
                raise ShapeError(f"gap {t} is negative")


class PropagatorCache:
    """The gap propagator of one splitting in float arithmetic: ``value``
    reads the heat factors its ``float_copy`` keeps."""

    def __init__(self, splitting: Splitting):
        self.splitting = splitting.float_copy

    def value(self, t: float) -> tuple[GradedMap, GradedMap]:
        return _heat_kernel(self.splitting, t)


def _heat_kernel(splitting: Splitting, t: float
                 ) -> tuple[GradedMap, GradedMap]:
    """(even(t), odd(t)) in the splitting's mode.  From its spectrum
    Delta_d = L_d diag(lam_d) R_d, both kinds use one formula: even(t) =
    exp(-t Delta) = L diag(e^(-t lam)) R and odd(t) = -even(t) kappa = -L
    diag(e^(-t lam)) (R kappa); in the projector kind lam is 0 or 1, so
    even(t) = pi0 + e^-t pi1 and odd(t) = -e^-t kappa.  At t = 0 and t =
    inf the weights e^(-t lam) are booleans (all 1; 1 where lam = 0),
    exact in either arithmetic."""
    if t < 0:
        raise ShapeError(f"propagator needs t >= 0, got {t}")
    spec, space = splitting.spectrum, splitting.kappa.source
    limit = t == 0 or math.isinf(t)
    lw = {d: l * ((lam == 0) | (t == 0) if limit else np.exp(-t * lam))
          for d, (l, lam, _) in spec.items()}
    even = {d: lw[d] @ r for d, (_, _, r) in spec.items()}
    odd = {d: -(lw[d - 1] @ x) for d, x in splitting.r_kappa.blocks}
    return (GradedMap.build(space, space, 0, even, splitting.mode),
            GradedMap.build(space, space, -1, odd, splitting.mode))


def propagator(t: float, splitting: Splitting) -> tuple[GradedMap, GradedMap]:
    """Even part and dt-coefficient of the gap propagator at gap length t:
    (exp(-t Delta), -exp(-t Delta) kappa), by the one formula of
    ``_heat_kernel``.  (id, -kappa) at t = 0 and (pi0, 0) at t = inf;
    exact there in exact mode, float otherwise.
    """
    exact_limit = t in (0, math.inf)
    return _heat_kernel(splitting if exact_limit else splitting.float_copy,
                        float(t))


# ---------------------------------------------------------------------------
# The operator-valued form


@dataclass(frozen=True, eq=False)
class OperatorForm:
    """Inhomogeneous operator-valued form on the gap coordinates.

    ``components[S]`` is the coefficient of the wedge of dt_i, i in S, in
    ascending order; S ranges over subsets of range(k-1).
    """

    arity: int
    gaps: tuple[float, ...]
    components: dict[frozenset, GradedMap]

    def component(self, subset) -> GradedMap:
        key = frozenset(subset)
        got = self.components.get(key)
        if got is not None:
            return got
        any_map = next(iter(self.components.values()))
        space = any_map.source
        return GradedMap.zero(space, space, 0, FLOAT)


def operator_form(inputs, point: ConfigurationPoint, splitting: Splitting,
                  bundle: DgModuleBundle) -> OperatorForm:
    """The full propagator-and-action form at one configuration point.

    Composition order: pi0 . rho(a_k) . P(t_{k-1}) . rho(a_{k-1}) ... P(t_1)
    . rho(a_1) . pi0, expanded into form components with Koszul signs from
    moving each dt past the graded operators to its left.
    """
    return _form([_rho(bundle, x) for x in _elements(bundle, inputs)], point,
                 splitting)


def _form(rhos: list[GradedMap], point: ConfigurationPoint,
          splitting: Splitting) -> OperatorForm:
    """``operator_form`` on the float rho of each input."""
    k = len(rhos)
    if len(point.gaps) != k - 1:
        raise ShapeError(f"{k} inputs need {k - 1} gaps, got {len(point.gaps)}")
    cache = PropagatorCache(splitting)
    pi0 = cache.splitting.pi0
    terms: list[tuple[frozenset, GradedMap]] = [
        (frozenset(), compose(pi0, rhos[k - 1]))]
    for j in range(k - 2, -1, -1):
        even, odd = cache.value(point.gaps[j])
        new_terms: list[tuple[frozenset, GradedMap]] = []
        for subset, x in terms:
            sign = (-1) ** ((x.degree % 2) + len(subset))
            new_terms.append((subset, compose(compose(x, even), rhos[j])))
            odd_part = compose(compose(x, odd), rhos[j])
            new_terms.append((subset | {j}, odd_part.scale(complex(sign))))
        terms = new_terms
    components = {subset: compose(x, pi0) for subset, x in terms}
    return OperatorForm(arity=k, gaps=point.gaps, components=components)


def _epsilon(degrees: list[int]) -> int:
    """eps(k, degrees) of the module docstring, as the int 1 or -1: its
    exponent's parity is that of k - 1 plus the degrees of the slots a_2,
    a_4 and so on."""
    return -1 if (len(degrees) - 1 + sum(degrees[1::2])) % 2 else 1


_closed: AInfinityMorphism | None = None


def transfer_closed(inputs, splitting: Splitting,
                    bundle: DgModuleBundle) -> GradedMap:
    """Fully integrated transferred component, in closed form.

    F_k(a_1,...,a_k) = eps * project . rho(a_k) . h . rho(a_{k-1}) . h ...
    h . rho(a_1) . include, with h the normalized homotopy: eps times the
    chain-order component on the reversed word.  Exact in exact mode;
    degree sum(deg a_i) + 1 - k on the cohomology space.  The components
    come from one stored morphism, kept for the last pair matched by
    ``is``, never ``==``: bundles and splittings are frozen with read-only
    blocks, so nothing stored goes stale, and a call on another pair
    replaces it, so memory is one pair's components, as for a caller
    holding ``transferred_morphism`` (a new morphism on every call).

    A word of basis indices is one ``on_basis`` read of the reversed word:
    the stored frozen component itself when eps = 1, else its ``scale(-1)``
    (a zero component is returned as itself either way).  Inputs holding
    a ``Slot`` are read by ``_elements`` and summed over the choices of one
    term per input, which also gives the stored component itself where
    eps times the coefficients is exactly one.
    """
    global _closed
    f = _closed
    if f is None or f.bundle is not bundle or f.splitting is not splitting:
        f = _closed = AInfinityMorphism(bundle, splitting)
    inputs = tuple(inputs)
    degrees = [_basis_degree(bundle.algebra, b) for b in inputs]
    if degrees and None not in degrees:
        m = f.on_basis(tuple(map(int, reversed(inputs))))
        return m if _epsilon(degrees) == 1 else m.scale(-1)
    elements = _elements(bundle, inputs)
    return f._combination(elements[::-1], _epsilon([d for d, _ in elements]))


def transfer_quadrature(inputs, splitting: Splitting, bundle: DgModuleBundle,
                        rel_tol: float | None = None,
                        order: int = DEFAULT_ORDER,
                        budget: int = DEFAULT_BUDGET
                        ) -> tuple[GradedMap, float]:
    """Transferred component by quadrature over the open gap cube: the
    word of ``transfer_closed``, eps applied to rho(a_1), integrated by
    ``_quadrature`` to ``rel_tol``.  Returns (value, error estimate)."""
    elements = _elements(bundle, inputs)
    rhos = [_rho(bundle, x) for x in elements]
    rhos[0] = rhos[0].scale(_epsilon([d for d, _ in elements]))
    return _quadrature(rhos[::-1], splitting, rel_tol, order, budget)


def _quadrature(rhos: list[GradedMap], splitting: Splitting,
                rel_tol: float | None, order: int, budget: int
                ) -> tuple[GradedMap, float]:
    """p rho_1 h ... h rho_k i, rhos in chain order, with each h replaced by
    the heat kernel L diag(e^(-t lam)) (R kappa) and integrated over the
    gaps t in (0, inf)^(k-1).  Each gap appears in one heat weight only, so
    by Fubini the integral is A_(k-1) G ... G A_0 with G = int_0^inf
    diag(e^(-t lam)) dt, A_0 = (R kappa) rho_k i, A_j = (R kappa)
    rho_(k-j) L and A_(k-1) = p rho_1 L.  G is integrated by
    ``integrate_interval``, never read off as 1/lam, in the spectral chart
    t = -ln(1-sigma)/mu with mu = ``splitting.lambda1`` (1 when no lam is
    positive, where R kappa is zero).  Each heat weight times the Jacobian
    1/(mu (1-sigma)) is then (1-sigma)^(lam/mu - 1)/mu, bounded on [0, 1]
    since lam/mu >= 1, and a polynomial when lam/mu is an integer; it is
    set to 0 where lam = 0, whose rows of R kappa are zero.  Returns
    (value, error estimate): for the error e of G per entry, g = max G and
    induced inf-norms, the bound ((g+e)^(k-1) - g^(k-1)) prod ||A_j|| on
    the inf-norm, so on every entry, of the difference to the integral.  A
    budget error carries the product and the bound for its best G.  A
    factor that stores no block makes the product exactly zero: it is
    returned with estimate 0 and G is not integrated, after the order and
    budget checks ``integrate_interval`` makes before its first
    evaluation.
    """
    if rel_tol is None:
        rel_tol = AMBIGUITY_BAND * session_tol(FLOAT, None)
    splitting = splitting.float_copy
    include, project = splitting.include, splitting.project
    if len(rhos) == 1:
        return compose(compose(project, rhos[0]), include), 0.0

    spec, rk = splitting.spectrum, splitting.r_kappa
    space = splitting.kappa.source
    ell = GradedMap.build(space, space, 0,
                          {d: l for d, (l, _, _) in spec.items()}, FLOAT)
    factors = ([compose(compose(rk, rhos[-1]), include)]
               + [compose(compose(rk, rho), ell) for rho in rhos[-2:0:-1]]
               + [compose(compose(project, rhos[0]), ell)])
    if not all(a.blocks for a in factors):
        _cell_cost(order, budget)
        return GradedMap.zero(include.source, project.target,
                              sum(a.degree for a in factors), FLOAT), 0.0
    # induced inf-norms: largest absolute row sum, each row in one block
    norms = math.prod(max((np.abs(m).sum(axis=1).max() for _, m in a.blocks),
                          default=0.0) for a in factors)
    mu = splitting.lambda1 or 1.0
    lams = [lam for _, lam, _ in spec.values()]
    lam = np.concatenate(lams)
    # exponent lam/mu - 1 and factor 1/mu where lam > 0, (0, 0) where
    # lam = 0, so no weight is unbounded
    power, factor = np.where(lam > 0, lam / mu - 1.0, 0.0), (lam > 0) / mu

    def integrated(g: np.ndarray, err: float) -> tuple[GradedMap, float]:
        parts = np.split(g, np.cumsum([len(x) for x in lams])[:-1])
        heat = GradedMap.build(space, space, 0, {
            d: np.diag(x) for d, x in zip(spec, parts)}, FLOAT)
        value = factors[0]
        for a in factors[1:]:
            value = compose(a, compose(heat, value))
        top, k = float(np.max(g)), len(factors) - 1
        return value, float(((top + err) ** k - top ** k) * norms)

    try:
        g, err = integrate_interval(
            lambda sigma: (1.0 - sigma)[:, None] ** power * factor,
            rel_tol=rel_tol, order=order, budget=budget)
    except QuadratureBudgetError as exc:
        best, est = ((None, exc.estimate) if exc.best is None
                     else integrated(exc.best, exc.estimate))
        raise QuadratureBudgetError(str(exc), best=best, estimate=est) from exc
    return integrated(g, err)


# ---------------------------------------------------------------------------
# The transferred morphism and its coherence defect


@dataclass
class AInfinityMorphism:
    """Transferred components, evaluated on demand and cached per basis tuple.

    ``method`` selects closed-form or quadrature evaluation (``_quadrature``
    at ``rel_tol``).  Each cached component keeps its quadrature error
    estimate under the same key (0 in closed form), and ``reads`` collects
    the basis tuples ``on_basis`` returned, cached or not, until the
    caller clears it; ``error_of(f.reads)`` is then the error carried by
    the values computed since.
    """

    bundle: DgModuleBundle
    splitting: Splitting
    method: str = "closed"
    rel_tol: float | None = None
    budget: int = DEFAULT_BUDGET
    reads: set = field(default_factory=set, repr=False, init=False)
    _cache: dict = field(default_factory=dict, repr=False, init=False)
    _coords: dict = field(default_factory=dict, repr=False, init=False)
    _errors: dict = field(default_factory=dict, repr=False, init=False)
    _words: dict = field(default_factory=dict, repr=False, init=False)
    _steps: dict = field(default_factory=dict, repr=False, init=False)
    _tails: dict = field(default_factory=dict, repr=False, init=False)
    _supertraces: dict = field(default_factory=dict, repr=False, init=False)
    _zeros: dict = field(default_factory=dict, repr=False, init=False)

    def __post_init__(self):
        if self.method not in ("closed", "quadrature") or (
                self.method == "quadrature" and self.bundle.mode != FLOAT):
            raise ShapeError(f"cannot evaluate method {self.method!r} on a "
                             f"{self.bundle.mode} bundle")

    def on_basis(self, flats: tuple[int, ...]) -> GradedMap:
        """f_m(b_1, ..., b_m) = p rho(b_1) h ... h rho(b_m) i, in chain order,
        with no sign of its own: in closed form the stored word of b_1 ...
        b_(m-1) times the tail h rho(b_m) i of b_m, one compose (p rho(b) i
        for m = 1), and no compose and no tail when that word is zero; by
        ``_quadrature`` at any arity."""
        got = self._cache.get(flats)
        if got is None:
            est = 0.0
            if self.method == "quadrature":
                got, est = _quadrature(
                    [self.bundle.rho[b] for b in flats], self.splitting,
                    self.rel_tol, DEFAULT_ORDER, self.budget)
            else:
                prefix, tail = self._halves(flats)
                got = (self._zero(self.m0, prefix.degree - 1
                                  + self.bundle.rho[flats[-1]].degree)
                       if tail is None else self._kept(compose(prefix, tail)))
            self._cache[flats], self._errors[flats] = got, est
        self.reads.add(flats)
        return got

    def supertrace(self, flats: tuple[int, ...]):
        """str f_m(b_1, ..., b_m) for a word of degree m - 1: in closed form
        ``supertrace`` of the two factors of ``_halves``, kept per word,
        without forming the component; by quadrature of ``on_basis``."""
        if self.method == "quadrature":
            return supertrace(self.on_basis(flats))
        got = self._supertraces.get(flats)
        if got is None:
            prefix, tail = self._halves(flats)
            got = self._supertraces[flats] = (
                zero_scalar(prefix.mode) if tail is None
                else supertrace(prefix, tail))
        return got

    @cached_property
    def target(self) -> EndoAlgebra:
        """End(M0) with zero differential, the push-forward's target; built
        once per morphism."""
        return endomorphism_algebra(self.m0, self.bundle.mode)

    def coordinates(self, flats: tuple[int, ...]) -> list:
        """The nonzero coordinates (k, c) of f_m(b_1, ..., b_m) over the
        basis of ``target``: kept beside the component, so read once per
        morphism, and never for a zero component.  The tuple is
        recorded in ``reads`` as ``on_basis`` records it."""
        got = self._coords.get(flats)
        if got is None:
            m = self.on_basis(flats)
            got = self._coords[flats] = (self.target.coordinates(m)
                                         if m.blocks else [])
        else:
            self.reads.add(flats)
        return got

    def error_of(self, components) -> float:
        """The summed error estimates of the given evaluated components,
        in basis-tuple order."""
        return sum(self._errors[flats] for flats in sorted(components))

    def _halves(self, flats: tuple[int, ...]
                ) -> tuple[GradedMap, GradedMap | None]:
        """The closed-form f_m as prefix times tail: the stored word of b_1
        ... b_(m-1) and the tail h rho(b_m) i (the word of b_1 and include
        for m = 1).  The tail is None, and not formed, when the word is
        zero."""
        if len(flats) == 1:
            return self._word(flats), self.splitting.include
        prefix = self._word(flats[:-1])
        return prefix, self._tail(flats[-1]) if prefix.blocks else None

    def _word(self, flats: tuple[int, ...]) -> GradedMap:
        """p rho(b_1) h ... h rho(b_j), kept per prefix: p rho(b_1), then
        the stored prefix times the step h rho(b_j), one compose each; a
        zero prefix gives a zero word without forming the step.  A loop,
        not a recursion, so a word of any length fits the stack: it walks
        back to the longest stored prefix and extends it forward."""
        words = self._words
        word = words.get(flats)
        if word is not None:
            return word
        missing = [flats]               # longest first
        prefix = flats[:-1]
        while prefix and prefix not in words:
            missing.append(prefix)
            prefix = prefix[:-1]
        word = words[prefix] if prefix else None
        for key in reversed(missing):
            b = key[-1]
            if word is None:
                word = compose(self.splitting.project, self.bundle.rho[b])
            elif word.blocks:
                word = compose(word, self._step(b))
            else:
                word = self._zero(word.source, word.degree - 1
                                  + self.bundle.rho[b].degree)
            word = words[key] = self._kept(word)
        return word

    def _zero(self, source: GradedVectorSpace, degree: int) -> GradedMap:
        """The zero map of a word (source: the module) or a component (M0)
        of that degree, one per (source, degree) and shared by all."""
        key = (source is self.m0, degree)
        if key not in self._zeros:
            self._zeros[key] = GradedMap.zero(source, self.m0, degree,
                                              self.bundle.mode)
        return self._zeros[key]

    def _kept(self, m: GradedMap) -> GradedMap:
        """m as the store keeps it: the shared ``_zero`` when m is zero."""
        return m if m.blocks else self._zero(m.source, m.degree)

    def _step(self, b: int) -> GradedMap:
        """h rho(b), kept per basis element."""
        if b not in self._steps:
            self._steps[b] = compose(self.splitting.homotopy,
                                     self.bundle.rho[b])
        return self._steps[b]

    def _tail(self, b: int) -> GradedMap:
        """h rho(b) i, kept per basis element."""
        if b not in self._tails:
            self._tails[b] = compose(self._step(b), self.splitting.include)
        return self._tails[b]

    def _combination(self, elements: list[tuple[int, list]],
                     eps=1) -> GradedMap:
        """eps times the multilinear extension of ``on_basis`` to read
        inputs: one ``combination`` of the component of every choice of
        one term per input, times eps and its coefficients' product.  A
        single choice is the component scaled, so the stored component
        itself when it is zero or the product is exactly one."""
        terms = []
        for pick in itertools.product(*(t for _, t in elements)):
            flats, coeffs = zip(*pick)
            terms.append((self.on_basis(flats),
                          math.prod(coeffs, start=eps)))
        if len(terms) == 1:
            m, c = terms[0]
            return m if c == 1 else m.scale(c)
        return combination(terms, self.m0, self.m0, sum(
            d for d, _ in elements) + 1 - len(elements), self.bundle.mode)

    @property
    def m0(self) -> GradedVectorSpace:
        return self.splitting.m0


def transferred_morphism(bundle: DgModuleBundle, splitting: Splitting,
                         method: str = "closed",
                         rel_tol: float | None = None,
                         budget: int = DEFAULT_BUDGET) -> AInfinityMorphism:
    return AInfinityMorphism(bundle=bundle, splitting=splitting, method=method,
                             rel_tol=rel_tol, budget=budget)


def ainfinity_defect(f: AInfinityMorphism, inputs) -> GradedMap:
    """The bar relation of f on the basis word b_1 ... b_m; zero iff it holds.

    Moving Q through p rho(b_1) h ... h rho(b_m) i with {Q, h} = 1 - ip,
    pQ = 0 and Qi = 0 gives f applied to the bar terms of the word
    (``DgAlgebra.bar_terms``) minus the cuts, with cut_i from ``bar_signs``:

      sum_i sigma_i f(.., d b_i, ..) + sum_{i<m} cut_i f(.., b_i b_{i+1}, ..)
        - sum_{i<m} cut_i f(b_1..b_i) f(b_{i+1}..b_m)

    ``inputs`` are flat basis indices; any other input raises ShapeError.
    A zero component ends its term: a zero bar term is not added, and a cut
    whose left side is zero neither reads its right side nor composes.  The
    terms are summed by one ``combination``.
    """
    a = f.bundle.algebra
    degrees = [_basis_degree(a, b) for b in inputs]
    if None in degrees:
        raise ShapeError(f"ainfinity_defect takes basis indices, got {inputs!r}")
    word = tuple(map(int, inputs))
    terms = [(f.on_basis(w), c) for w, c in a.bar_terms(word)]
    for i, (_, cut) in enumerate(bar_signs(degrees)[:-1]):
        if not (left := f.on_basis(word[:i + 1])).blocks:
            continue
        if (right := f.on_basis(word[i + 1:])).blocks:
            terms.append((compose(left, right), -cut))
    return combination(terms, f.m0, f.m0, sum(degrees) + 2 - len(word),
                       a.mode)


def almost_closed_check(inputs, point: ConfigurationPoint, splitting: Splitting,
                        bundle: DgModuleBundle, step: float) -> float:
    """Residual between the algebraic differential of the form and its
    finite-difference de Rham differential at an interior point.

    Central differences; the residual decays at O(step^2).
    """
    if step <= 0:
        raise ShapeError(f"step must be positive, got {step}")
    elements = _elements(bundle, inputs)
    rhos = [_rho(bundle, x) for x in elements]
    k, degs = len(rhos), [d for d, _ in elements]

    # per subset S, the terms of the algebraic side minus the de Rham side,
    # maps of degree sum(degs) + 1 - |S|, summed once
    sums: dict[frozenset, list] = {}
    for i, (deg, terms) in enumerate(elements):
        suffix = sum(degs[i + 1:]) % 2
        d_terms = [(m, c * x) for b, c in terms
                   for m, x in bundle.algebra.differential_terms[b]]
        form = _form(rhos[:i] + [_rho(bundle, (deg + 1, d_terms))]
                     + rhos[i + 1:], point, splitting)
        for subset, val in form.components.items():
            sums.setdefault(subset, []).append((val, complex((-1) ** suffix)))

    base = _form(rhos, point, splitting)
    for i in range(k - 1):
        up, dn = list(point.gaps), list(point.gaps)
        up[i] += step
        dn[i] -= step
        if dn[i] <= 0:
            raise ShapeError(f"step {step} too large for gap {point.gaps[i]}")
        fu = _form(rhos, ConfigurationPoint(tuple(up)), splitting)
        fd = _form(rhos, ConfigurationPoint(tuple(dn)), splitting)
        for subset in base.components:
            if i in subset:
                continue
            deriv = (fu.component(subset) - fd.component(subset)).scale(
                complex(1.0 / (2 * step)))
            sign = -(-1) ** sum(1 for j in subset if j < i)
            sums.setdefault(subset | {i}, []).append((deriv, complex(sign)))

    residual = 0.0
    for subset, terms in sums.items():
        residual = max(residual, combination(
            terms, bundle.space, bundle.space, sum(degs) + 1 - len(subset),
            FLOAT).max_abs())
    return residual
