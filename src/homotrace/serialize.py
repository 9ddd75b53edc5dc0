"""Instance and chain file formats (JSON), with exact-value-preserving round trips.

Exact rationals are encoded as numerator/denominator strings, Gaussian
rationals as {"re", "im"} string pairs, floats as JSON numbers (repr
round-trip), complex values as [re, im] pairs.  Files carry the operators
only ("products" and "splitting" stay null): loading derives the
structure constants, unit and differential from the operators
(``algebra_from_operators``) and fails if one escapes their span.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from homotrace.dgcore import (
    DgModuleBundle,
    algebra_from_operators,
    build_splitting_hodge,
    build_splitting_projector,
)
from homotrace.errors import InputError, ShapeError
from homotrace.glinalg import (
    GradedMap,
    GradedVectorSpace,
    compose,
    zeros_matrix,
)
from homotrace.hochschild import HochschildChain
from homotrace.instances import Instance, _validated
from homotrace.scalars import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    decode_value,
    encode_value,
)

INSTANCE_FORMAT = "homotrace-instance/1"
CHAINS_FORMAT = "homotrace-chains/1"


def _triplets(space: GradedVectorSpace, m: GradedMap) -> list:
    out = []
    for d in space.degrees():
        blk = m.block(d)
        for j in range(blk.shape[1]):
            for i in range(blk.shape[0]):
                if blk[i, j]:
                    out.append([space.label(d, j),
                                space.label(d + m.degree, i),
                                encode_value(blk[i, j])])
    return out


def instance_to_dict(instance: Instance) -> dict:
    bundle = instance.bundle
    space = bundle.space
    a = bundle.algebra
    module = [[d, space.dim(d), list(space.labels_in(d))]
              for d in space.degrees()]
    algebra = []
    for k in range(a.n_basis):
        deg = a.basis_degree(k)
        algebra.append([a.basis_name(k), deg,
                        _triplets(space, bundle.rho_flat(k))])
    elements = []
    for name in sorted(instance.elements):
        deg, vec = instance.elements[name]
        coords = [[a.basis_name(i), encode_value(vec[i])]
                  for i in range(a.n_basis) if vec[i]]
        elements.append([name, deg, coords])
    return {
        "format": INSTANCE_FORMAT,
        "scalar": bundle.mode,
        "module": module,
        "Q": _triplets(space, bundle.q),
        "algebra": algebra,
        "elements": elements,
        "products": None,
        "splitting": None,
        "meta": instance.meta,
    }


def save_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, sort_keys=True, indent=1)
        fh.write("\n")


@contextmanager
def _reading(what: str):
    """A field that is missing or of the wrong shape is bad input."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            ZeroDivisionError, ShapeError) as exc:
        raise InputError(f"malformed {what}: {type(exc).__name__}: {exc}"
                         ) from exc


def _check_format(data, fmt: str, what: str) -> None:
    if not isinstance(data, dict):
        raise InputError(f"not {what} (the top level is a JSON "
                         f"{type(data).__name__}, not an object)")
    if data.get("format") != fmt:
        raise InputError(f"not {what} (format {data.get('format')!r})")


def _map_from_triplets(space: GradedVectorSpace, degree: int, trips: list,
                       mode: str) -> GradedMap:
    pos = {}
    for d in space.degrees():
        for i, lbl in enumerate(space.labels_in(d)):
            pos[lbl] = (d, i)
    blocks = {d: zeros_matrix(space.dim(d + degree), space.dim(d), mode)
              for d in space.degrees() if space.dim(d + degree)}
    for src, dst, enc in trips:
        if src not in pos or dst not in pos:
            raise InputError(f"unknown module label in entry {src}->{dst}")
        (ds, i), (dt, j) = pos[src], pos[dst]
        if dt != ds + degree:
            raise InputError(
                f"entry {src}->{dst} does not have degree {degree}")
        blocks[ds][j, i] = decode_value(enc, mode)
    return GradedMap.build(space, space, degree, blocks, mode)


def instance_from_dict(data: dict, tol: float = DEFAULT_TOL) -> Instance:
    _check_format(data, INSTANCE_FORMAT, "an instance file")
    mode = data.get("scalar")
    if mode not in (EXACT, FLOAT):
        raise InputError(f"unknown scalar mode {mode!r}")
    if data.get("products"):
        raise InputError("explicit products in files are not supported; "
                         "omit the field to derive them from the operators")
    if data.get("splitting"):
        raise InputError("explicit splittings in files are not supported yet; "
                         "omit the field to derive one")
    with _reading("instance file"):
        dims, labels = {}, {}
        for d, n, labs in data["module"]:
            dims[int(d)] = int(n)
            labels[int(d)] = list(labs)
        space = GradedVectorSpace.make(dims, labels)
        q = _map_from_triplets(space, 1, data["Q"], mode)
        names, maps = [], []
        for name, deg, trips in data["algebra"]:
            names.append(name)
            maps.append(_map_from_triplets(space, int(deg), trips, mode))
        raw_elements = [
            (name, int(deg), [(bname, decode_value(enc, mode))
                              for bname, enc in coords])
            for name, deg, coords in (data.get("elements") or [])]
        meta = dict(data.get("meta") or {})
    if not compose(q, q).is_zero(None if mode == EXACT else tol):
        raise InputError("Q-squared: differential does not square to zero")

    algebra, rho = algebra_from_operators(space, q, maps, names, mode, tol)
    bundle = DgModuleBundle(algebra=algebra, space=space, q=q, rho=rho,
                            mode=mode)
    if mode == EXACT:
        splitting = build_splitting_projector(space, q)
    else:
        splitting = build_splitting_hodge(space, q, tol=tol)

    elements = {}
    for name, deg, coords in raw_elements:
        vec = algebra._zero_vec()
        for bname, value in coords:
            k = algebra.flat_by_name(bname)
            if k is None:
                raise InputError(f"unknown operator {bname!r} in element {name!r}")
            vec[k] = value
        elements[name] = (deg, vec)
    return _validated(bundle, splitting, elements, meta,
                      None if mode == EXACT else tol)


def load_instance(path: str, tol: float = DEFAULT_TOL) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read instance file {path}: {exc}") from exc
    return instance_from_dict(data, tol)


# ---------------------------------------------------------------------------
# Chain files


def chains_to_dict(chains: list[tuple[str, list[tuple[object, list[str]]]]]
                   ) -> dict:
    payload = []
    for name, terms in chains:
        payload.append({
            "name": name,
            "terms": [{"coeff": encode_value(c), "slots": list(slots)}
                      for c, slots in terms],
        })
    return {"format": CHAINS_FORMAT, "chains": payload}


def load_chains(path: str, instance: Instance
                ) -> list[tuple[str, HochschildChain]]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read chain file {path}: {exc}") from exc
    _check_format(data, CHAINS_FORMAT, "a chain file")
    algebra = instance.bundle.algebra
    out = []
    with _reading("chain file"):
        for entry in data["chains"]:
            name = entry.get("name") or f"chain{len(out)}"
            chain = HochschildChain.zero(algebra)
            for term in entry["terms"]:
                coeff = decode_value(term["coeff"], instance.mode)
                slot_vecs = []
                for slot_name in term["slots"]:
                    _, vec = instance.element(slot_name)
                    slot_vecs.append(vec)
                stack = [((), coeff)]
                for vec in slot_vecs:
                    stack = [(fl + (idx,), c * v) for fl, c in stack
                             for idx, v in enumerate(vec) if v]
                    if not stack:
                        break
                for fl, c in stack:
                    chain.add_term(fl, c)
            out.append((name, chain))
    return out
