"""Instance and chain file formats (JSON), with exact-value-preserving round trips.

Exact rationals are encoded as numerator/denominator strings, Gaussian
rationals as {"re", "im"} string pairs, floats as JSON numbers (repr
round-trip), complex values as [re, im] pairs.  Files carry the operators
only ("products" and "splitting" stay null).  Loading only parses: the
instance is built as the generators build theirs
(``instances.build_instance``, where a tolerance of None is the session
one), which derives the structure constants, unit and differential from
the operators and fails if one escapes their span.
"""

from __future__ import annotations

import itertools
import json
import math
from contextlib import contextmanager

from homotrace.errors import InputError, ShapeError
from homotrace.glinalg import GradedMap, GradedVectorSpace, coo
from homotrace.hochschild import HochschildChain
from homotrace.instances import (MAX_CHAIN_SLOTS, Instance, build_instance,
                                 map_from_triplets)
from homotrace.scalars import (
    EXACT,
    FLOAT,
    decode_value,
    encode_value,
)

INSTANCE_FORMAT = "homotrace-instance/1"
CHAINS_FORMAT = "homotrace-chains/1"


def _triplets(space: GradedVectorSpace, m: GradedMap) -> list:
    """[source label, target label, value] of each nonzero entry of the
    stored blocks of m, by source degree, then column, then row."""
    out = []
    for d, blk in m.blocks:
        src, tgt = space.labels_in(d), space.labels_in(d + m.degree)
        (cols, rows), vals = coo(blk.T, blk.dtype)
        out += [[src[j], tgt[i], encode_value(x)] for j, i, x in zip(
            cols.tolist(), rows.tolist(), vals.tolist())]
    return out


def instance_to_dict(instance: Instance) -> dict:
    bundle = instance.bundle
    space = bundle.space
    a = bundle.algebra
    module = [[d, space.dim(d), list(space.labels_in(d))]
              for d in space.degrees()]
    algebra = [[a.basis_name(k), a.basis_degree(k), _triplets(space, m)]
               for k, m in enumerate(bundle.rho)]
    elements = [[name, deg, [[a.basis_name(k), encode_value(v)]
                             for k, v in terms]]
                for name, (deg, terms) in sorted(instance.elements.items())]
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
    data = instance_to_dict(instance)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write instance file {path}: {exc}") from exc


@contextmanager
def _reading(what: str):
    """A field that is missing or of the wrong shape is bad input."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            ZeroDivisionError, OverflowError, ShapeError) as exc:
        raise InputError(f"malformed {what}: {type(exc).__name__}: {exc}"
                         ) from exc


def _check_format(data, fmt: str, what: str) -> None:
    if not isinstance(data, dict):
        raise InputError(f"not {what} (the top level is a JSON "
                         f"{type(data).__name__}, not an object)")
    if data.get("format") != fmt:
        raise InputError(f"not {what} (format {data.get('format')!r})")


def _decoded(trips: list, mode: str) -> list:
    return [(src, dst, decode_value(enc, mode)) for src, dst, enc in trips]


def _degree(value, what: str) -> int:
    """A declared degree: an integer that numpy's int64 holds, since the
    loader reads degrees into int64 arrays."""
    degree = int(value)
    if not -2 ** 63 <= degree < 2 ** 63:
        raise InputError(f"{what} declares a degree outside the int64 range")
    return degree


def _name(name) -> str:
    if not isinstance(name, str):
        raise TypeError(f"name {name!r} is not a string")
    return name


def instance_from_dict(data: dict, tol: float | None = None) -> Instance:
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
            d = _degree(d, "the module")
            dims[d] = int(n)
            labels[d] = list(labs)
        space = GradedVectorSpace.make(dims, labels)
        q = map_from_triplets(space, 1, _decoded(data["Q"], mode), mode)
        names = [_name(name) for name, _, _ in data["algebra"]]
        maps = [map_from_triplets(space, _degree(deg, f"operator {name!r}"),
                                  _decoded(trips, mode), mode)
                for name, deg, trips in data["algebra"]]
        elements = [
            (_name(name), _degree(deg, f"element {name!r}"),
             [(_name(op), decode_value(enc, mode)) for op, enc in coords])
            for name, deg, coords in (data.get("elements") or [])]
        meta = dict(data.get("meta") or {})
    return build_instance(space, q, maps, names, mode, tol, elements, meta)


def load_instance(path: str, tol: float | None = None) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:    # JSONDecodeError is a ValueError
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
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read chain file {path}: {exc}") from exc
    _check_format(data, CHAINS_FORMAT, "a chain file")
    algebra = instance.bundle.algebra
    out = []
    with _reading("chain file"):
        for entry in data["chains"]:
            name = entry.get("name") or f"chain{len(out)}"
            chain = HochschildChain.zero(algebra)
            for term in entry["terms"]:
                slots = term["slots"]
                if len(slots) > MAX_CHAIN_SLOTS:
                    raise InputError(
                        f"chain {name!r} has a term of {len(slots)} slots, "
                        f"above the cap {MAX_CHAIN_SLOTS}")
                coeff = decode_value(term["coeff"], instance.mode)
                for pick in itertools.product(*(
                        instance.element(slot)[1] for slot in slots)):
                    chain.add_term(tuple(k for k, _ in pick), math.prod(
                        (v for _, v in pick), start=coeff))
            out.append((name, chain))
    return out
