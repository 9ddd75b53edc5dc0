"""Homotopy transfer of a module action to an A-infinity morphism.

The engine evaluates the operator-valued connection form built from the
propagator exp[-dt kappa - t pi1] (or its Laplacian variant), integrates
it in closed form or by adaptive quadrature over the compactified gap
cube (chart t = sigma/(1-sigma)), and checks the transferred morphism's
coherence relations.

Signs.  In chain order the transferred component is

  f_m(b_1, ..., b_m) = p rho(b_1) h rho(b_2) ... h rho(b_m) i

(``AInfinityMorphism.on_basis``), with no sign of its own.  Moving Q
through it with {Q, h} = 1 - ip, pQ = 0 and Qi = 0 gives the bar relation
f b - b f = 0 with the two Koszul signs of ``glinalg.bar_signs``, the same
ones the Hochschild differential uses (``ainfinity_defect``).  The integral
over the gap cube gives the word acting right to left, a_1 first
(``transfer_closed``, ``transfer_quadrature``), times its top-coefficient
sign eps(k, degrees) = (-1)^(k-1) * (-1)^(sum_{j>=2} (j-1) deg a_j); that
is the only normalisation, and ``on_basis`` reverses the word and divides
it out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from homotrace.dgcore import DgModuleBundle, Splitting
from homotrace.errors import ShapeError
from homotrace.glinalg import GradedMap, GradedVectorSpace, bar_signs, compose
from homotrace.quadrature import DEFAULT_BUDGET, DEFAULT_ORDER, integrate_cube
from homotrace.scalars import EXACT, FLOAT, one_scalar

# ---------------------------------------------------------------------------
# Slots: homogeneous inputs normalized to (degree, coefficient vector)


@dataclass(frozen=True)
class Slot:
    """A homogeneous algebra element destined for one tensor slot."""

    degree: int
    coeffs: np.ndarray  # over the flat algebra basis

    @staticmethod
    def basis(bundle: DgModuleBundle, k: int) -> "Slot":
        a = bundle.algebra
        v = a._zero_vec()
        v[k] = one_scalar(a.mode)
        return Slot(a.basis_degree(k), v)


def as_slot(bundle: DgModuleBundle, item) -> Slot:
    if isinstance(item, Slot):
        return item
    if isinstance(item, (int, np.integer)):
        return Slot.basis(bundle, int(item))
    raise ShapeError(f"cannot interpret {item!r} as an algebra element")


def _slot_rho(bundle: DgModuleBundle, slot: Slot) -> GradedMap:
    return bundle.rho_vector(slot.coeffs)


def _slot_diff(bundle: DgModuleBundle, slot: Slot) -> Slot:
    a = bundle.algebra
    out = a._zero_vec()
    for k in range(a.n_basis):
        c = slot.coeffs[k]
        if c:
            out = out + c * a.diff_flat(k)
    return Slot(slot.degree + 1, out)


def _slot_mul(bundle: DgModuleBundle, x: Slot, y: Slot) -> Slot:
    return Slot(x.degree + y.degree,
                bundle.algebra.mul_vectors(x.coeffs, y.coeffs))


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

    @staticmethod
    def from_sigma(sigma) -> "ConfigurationPoint":
        return ConfigurationPoint(tuple(
            math.inf if s >= 1.0 else s / (1.0 - s) for s in sigma))

    def sigma(self) -> tuple[float, ...]:
        return tuple(1.0 if math.isinf(t) else t / (1.0 + t) for t in self.gaps)


class PropagatorCache:
    """Per-splitting data for fast propagator evaluation (float arithmetic)."""

    def __init__(self, splitting: Splitting):
        self.kind = splitting.kind
        self.space = splitting.pi0.source
        self.pi0 = _to_float(splitting.pi0)
        self.pi1 = _to_float(splitting.pi1)
        self.kappa = _to_float(splitting.kappa)
        if splitting.kind == "laplacian":
            self.eig = {}
            for d in self.space.degrees():
                m = splitting.delta.block(d)
                h = np.asarray(m, dtype=complex)
                vals, vecs = np.linalg.eigh((h + h.conj().T) / 2)
                self.eig[d] = (vals, vecs)

    def value(self, t: float) -> tuple[GradedMap, GradedMap]:
        if t < 0:
            raise ShapeError(f"propagator needs t >= 0, got {t}")
        space = self.space
        if math.isinf(t):
            return self.pi0, GradedMap.zero(space, space, -1, FLOAT)
        if self.kind == "projector":
            w = math.exp(-t)
            return (self.pi0 + self.pi1.scale(complex(w)),
                    self.kappa.scale(complex(-w)))
        blocks = {}
        for d, (vals, vecs) in self.eig.items():
            w = np.exp(-t * np.clip(vals, 0.0, None))
            blocks[d] = vecs @ np.diag(w.astype(complex)) @ vecs.conj().T
        even = GradedMap.build(space, space, 0, blocks, FLOAT)
        return even, compose(even, self.kappa).scale(complex(-1.0))


def _to_float(f: GradedMap) -> GradedMap:
    if f.mode == FLOAT:
        return f
    blocks = {}
    for d, m in f.blocks:
        blocks[d] = np.array([[complex(x) for x in row] for row in m],
                             dtype=complex).reshape(m.shape)
    return GradedMap.build(f.source, f.target, f.degree, blocks, FLOAT)


def propagator(t: float, splitting: Splitting) -> tuple[GradedMap, GradedMap]:
    """Even part and dt-coefficient of the gap propagator at gap length t.

    Projector kind: (pi0 + e^-t pi1, -e^-t kappa); Laplacian kind:
    (exp(-t Delta), -exp(-t Delta) kappa).  At t = inf: (pi0, 0).  Exact
    for t in {0, inf} in exact mode, float otherwise.
    """
    if t in (0, 0.0) and splitting.mode == EXACT:
        space = splitting.pi0.source
        return (GradedMap.identity(space, EXACT), splitting.kappa.scale(-1))
    if t == math.inf and splitting.mode == EXACT:
        space = splitting.pi0.source
        return (splitting.pi0, GradedMap.zero(space, space, -1, EXACT))
    return PropagatorCache(splitting).value(float(t))


# ---------------------------------------------------------------------------
# The operator-valued form


@dataclass(frozen=True)
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

    def top(self) -> GradedMap:
        return self.component(range(self.arity - 1))


def operator_form(inputs, point: ConfigurationPoint, splitting: Splitting,
                  bundle: DgModuleBundle,
                  cache: PropagatorCache | None = None) -> OperatorForm:
    """The full propagator-and-action form at one configuration point.

    Composition order: pi0 . rho(a_k) . P(t_{k-1}) . rho(a_{k-1}) ... P(t_1)
    . rho(a_1) . pi0, expanded into form components with Koszul signs from
    moving each dt past the graded operators to its left.
    """
    slots = [as_slot(bundle, x) for x in inputs]
    k = len(slots)
    if len(point.gaps) != k - 1:
        raise ShapeError(f"{k} inputs need {k - 1} gaps, got {len(point.gaps)}")
    if cache is None:
        cache = PropagatorCache(splitting)
    rhos = [_to_float(_slot_rho(bundle, s)) for s in slots]
    pi0 = cache.pi0
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
    components: dict[frozenset, GradedMap] = {}
    for subset, x in terms:
        val = compose(x, pi0)
        if subset in components:
            components[subset] = components[subset] + val
        else:
            components[subset] = val
    return OperatorForm(arity=k, gaps=point.gaps, components=components)


def _epsilon(degrees: list[int], mode: str):
    k = len(degrees)
    exponent = (k - 1) + sum(j * degrees[j] for j in range(1, k))
    return one_scalar(mode) * ((-1) ** (exponent % 2))


def transfer_closed(inputs, splitting: Splitting,
                    bundle: DgModuleBundle) -> GradedMap:
    """Fully integrated transferred component, in closed form.

    F_k(a_1,...,a_k) = eps * project . rho(a_k) . h . rho(a_{k-1}) . h ...
    h . rho(a_1) . include, with h the normalized homotopy.  Exact in
    exact mode; degree sum(deg a_i) + 1 - k on the cohomology space.
    """
    slots = [as_slot(bundle, x) for x in inputs]
    k = len(slots)
    if k < 1:
        raise ShapeError("transfer needs at least one input")
    h = splitting.homotopy
    acc = compose(splitting.project, _slot_rho(bundle, slots[k - 1]))
    for j in range(k - 2, -1, -1):
        acc = compose(compose(acc, h), _slot_rho(bundle, slots[j]))
    acc = compose(acc, splitting.include)
    return acc.scale(_epsilon([s.degree for s in slots], bundle.mode))


def transfer_quadrature(inputs, splitting: Splitting, bundle: DgModuleBundle,
                        rel_tol: float = 1e-8, order: int = DEFAULT_ORDER,
                        budget: int = DEFAULT_BUDGET, max_arity: int = 4
                        ) -> tuple[GradedMap, float]:
    """Transferred component by adaptive quadrature over the open gap cube.

    Integrates the top form component in sigma coordinates (t =
    sigma/(1-sigma), Jacobian 1/(1-sigma)^2 per axis) and conjugates onto
    the cohomology space.  Returns (value, error estimate).
    """
    slots = [as_slot(bundle, x) for x in inputs]
    k = len(slots)
    if k > max_arity:
        raise ShapeError(f"arity {k} above configured maximum {max_arity}")
    cache = PropagatorCache(splitting)
    rhos = [_to_float(_slot_rho(bundle, s)) for s in slots]
    pi0 = cache.pi0
    include = _to_float(splitting.include)
    project = _to_float(splitting.project)
    m0 = splitting.m0
    out_degree = sum(s.degree for s in slots) + 1 - k

    shapes = [(d, m0.dim(d), m0.dim(d + out_degree)) for d in m0.degrees()]
    size = sum(r * c for _, c, r in shapes)

    if k == 1:
        val = compose(compose(project, rhos[0]), include)
        return val, 0.0

    def top_at(t_vals: np.ndarray) -> GradedMap:
        acc = compose(pi0, rhos[k - 1])
        for j in range(k - 2, -1, -1):
            _, odd = cache.value(float(t_vals[j]))
            sign = (-1) ** ((acc.degree % 2) + (k - 2 - j))
            acc = compose(compose(acc, odd).scale(complex(sign)), rhos[j])
        return acc

    def integrand(sigma: np.ndarray) -> np.ndarray:
        t_vals = sigma / (1.0 - sigma)
        jac = float(np.prod(1.0 / (1.0 - sigma) ** 2))
        g = compose(compose(project, top_at(t_vals)), include)
        flat = np.zeros(size, dtype=complex)
        off = 0
        for d, cols, rows in shapes:
            if rows and cols:
                flat[off:off + rows * cols] = np.asarray(
                    g.block(d), dtype=complex).ravel()
            off += rows * cols
        return flat * jac

    def unflatten(vec: np.ndarray) -> GradedMap:
        blocks = {}
        off = 0
        for d, cols, rows in shapes:
            if rows and cols:
                blocks[d] = vec[off:off + rows * cols].reshape(rows, cols)
            off += rows * cols
        return GradedMap.build(m0, m0, out_degree, blocks, FLOAT)

    from homotrace.errors import QuadratureBudgetError
    try:
        vec, est = integrate_cube(integrand, k - 1, rel_tol=rel_tol,
                                  order=order, budget=budget)
    except QuadratureBudgetError as exc:
        raise QuadratureBudgetError(str(exc), best=unflatten(exc.best),
                                    estimate=exc.estimate) from exc
    return unflatten(vec), est


# ---------------------------------------------------------------------------
# The transferred morphism and its coherence defect


@dataclass
class AInfinityMorphism:
    """Transferred components, evaluated on demand and cached per basis tuple.

    ``method`` selects closed-form or quadrature evaluation; quadrature
    error estimates accumulate in ``quad_error``.
    """

    bundle: DgModuleBundle
    splitting: Splitting
    method: str = "closed"
    rel_tol: float = 1e-8
    budget: int = DEFAULT_BUDGET
    quad_error: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False)

    def on_basis(self, flats: tuple[int, ...]) -> GradedMap:
        """f_m(b_1, ..., b_m) = p rho(b_1) h ... h rho(b_m) i, in chain order.

        The integral gives the word acting right to left with its top
        coefficient sign eps; both are undone here.
        """
        got = self._cache.get(flats)
        if got is None:
            word = list(reversed(flats))
            if self.method == "quadrature" and self.bundle.mode == FLOAT:
                got, est = transfer_quadrature(
                    word, self.splitting, self.bundle, rel_tol=self.rel_tol,
                    budget=self.budget, max_arity=max(4, len(flats)))
                self.quad_error += est
            else:
                got = transfer_closed(word, self.splitting, self.bundle)
            a = self.bundle.algebra
            got = got.scale(_epsilon([a.basis_degree(x) for x in word],
                                     self.bundle.mode))
            self._cache[flats] = got
        return got

    def value(self, slots: list) -> GradedMap:
        """Multilinear evaluation; expands element slots over the basis."""
        slots = [as_slot(self.bundle, s) for s in slots]
        n = self.bundle.algebra.n_basis
        out = None
        stack: list[tuple[tuple[int, ...], object]] = [((), None)]
        for s in slots:
            new = []
            for flats, coeff in stack:
                for k in range(n):
                    c = s.coeffs[k]
                    if not c:
                        continue
                    new.append((flats + (k,), c if coeff is None else coeff * c))
            stack = new
        for flats, coeff in stack:
            term = self.on_basis(flats).scale(coeff)
            out = term if out is None else out + term
        if out is None:
            m0 = self.splitting.m0
            deg = sum(s.degree for s in slots) + 1 - len(slots)
            return GradedMap.zero(m0, m0, deg, self.bundle.mode)
        return out

    @property
    def m0(self) -> GradedVectorSpace:
        return self.splitting.m0


def transferred_morphism(bundle: DgModuleBundle, splitting: Splitting,
                         method: str = "closed", rel_tol: float = 1e-8,
                         budget: int = DEFAULT_BUDGET) -> AInfinityMorphism:
    return AInfinityMorphism(bundle=bundle, splitting=splitting, method=method,
                             rel_tol=rel_tol, budget=budget)


def ainfinity_defect(f: AInfinityMorphism, inputs,
                     bundle: DgModuleBundle | None = None) -> GradedMap:
    """The bar relation of f on the word b_1 ... b_m; zero iff it holds.

    Moving Q through p rho(b_1) h ... h rho(b_m) i with {Q, h} = 1 - ip,
    pQ = 0 and Qi = 0 gives, with (sigma_i, cut_i) from ``bar_signs``:

      sum_i sigma_i f(.., d b_i, ..)
        + sum_{i<m} cut_i [f(.., b_i b_{i+1}, ..) - f(b_1..b_i) f(b_{i+1}..b_m)]
    """
    bundle = bundle or f.bundle
    slots = [as_slot(bundle, x) for x in inputs]
    m = len(slots)
    one = one_scalar(bundle.mode)
    total = GradedMap.zero(f.m0, f.m0, sum(s.degree for s in slots) + 2 - m,
                           bundle.mode)
    signs = bar_signs([s.degree for s in slots])
    for i, (sigma, _) in enumerate(signs):
        word = slots[:i] + [_slot_diff(bundle, slots[i])] + slots[i + 1:]
        total = total + f.value(word).scale(one * sigma)
    for i, (_, cut) in enumerate(signs[:-1]):
        merged = _slot_mul(bundle, slots[i], slots[i + 1])
        term = f.value(slots[:i] + [merged] + slots[i + 2:]) - compose(
            f.value(slots[:i + 1]), f.value(slots[i + 1:]))
        total = total + term.scale(one * cut)
    return total


def almost_closed_check(inputs, point: ConfigurationPoint, splitting: Splitting,
                        bundle: DgModuleBundle, step: float) -> float:
    """Residual between the algebraic differential of the form and its
    finite-difference de Rham differential at an interior point.

    Central differences; the residual decays at O(step^2).
    """
    if step <= 0:
        raise ShapeError(f"step must be positive, got {step}")
    slots = [as_slot(bundle, x) for x in inputs]
    k = len(slots)
    degs = [s.degree for s in slots]
    cache = PropagatorCache(splitting)

    alg_side: dict[frozenset, GradedMap] = {}
    for i in range(k):
        suffix = sum(degs[i + 1:]) % 2
        new_slots = list(slots)
        new_slots[i] = _slot_diff(bundle, slots[i])
        form = operator_form(new_slots, point, splitting, bundle, cache)
        for subset, val in form.components.items():
            signed = val.scale(complex((-1) ** suffix))
            if subset in alg_side:
                alg_side[subset] = alg_side[subset] + signed
            else:
                alg_side[subset] = signed

    tau_side: dict[frozenset, GradedMap] = {}
    base = operator_form(slots, point, splitting, bundle, cache)
    for i in range(k - 1):
        up = list(point.gaps)
        dn = list(point.gaps)
        up[i] += step
        dn[i] -= step
        if dn[i] <= 0:
            raise ShapeError(f"step {step} too large for gap {point.gaps[i]}")
        fu = operator_form(slots, ConfigurationPoint(tuple(up)), splitting,
                           bundle, cache)
        fd = operator_form(slots, ConfigurationPoint(tuple(dn)), splitting,
                           bundle, cache)
        for subset in base.components:
            if i in subset:
                continue
            deriv = (fu.component(subset) - fd.component(subset)).scale(
                complex(1.0 / (2 * step)))
            reorder = (-1) ** sum(1 for j in subset if j < i)
            key = subset | {i}
            signed = deriv.scale(complex(reorder))
            if key in tau_side:
                tau_side[key] = tau_side[key] + signed
            else:
                tau_side[key] = signed

    residual = 0.0
    for subset in set(alg_side) | set(tau_side):
        a = alg_side.get(subset)
        t = tau_side.get(subset)
        if a is None:
            diff = t
        elif t is None:
            diff = a
        else:
            diff = a - t
        residual = max(residual, diff.max_abs())
    return residual
