"""JSON payload parsing and report encoding for the command-line surface.

All payloads are strict: unknown fields are rejected.  Integers beyond 2^53
travel as decimal strings in both directions so reports survive JSON parsers
with double-precision number semantics.
"""
from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING

from .errors import InputError, decimal

if TYPE_CHECKING:
    from .abelian import PresentedModule
    from .mccoy import RingMatrix
    from .quiver import Quiver, QuiverRep
    from .rings import Ideal, Ring, RingElem

_JSON_SAFE = 2 ** 53


def parse_int(value, what: str = "integer") -> int:
    if isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        text = value.strip()
        if re.fullmatch(r"-?\d+", text):
            try:
                return int(text)
            except ValueError as exc:  # past the interpreter's int-string limit
                raise InputError(f"{what} cannot be read: {exc}") from None
    raise InputError(f"{what} must be an integer or decimal string, got {value!r}")


def encode_int(n: int):
    return n if abs(n) <= _JSON_SAFE else decimal(n)


def _require_keys(obj: dict, required: set, optional: set, what: str) -> None:
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise InputError(f"{what} is missing fields: {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise InputError(f"{what} has unknown fields: {sorted(unknown)}")


def parse_array(value, what: str, rows: bool = False) -> list:
    """value itself if it is a JSON array (of row arrays when `rows`)."""
    if not isinstance(value, list) or (rows and not all(isinstance(r, list) for r in value)):
        raise InputError(f"{what} must be an array" + (" of row arrays" if rows else ""))
    return value


# ---------------------------------------------------------------------------
# rings and elements
# ---------------------------------------------------------------------------

_MONOMIAL_RE = re.compile(
    r"^\s*(?P<coeff>\d+)?\s*(?:x(?:\^(?P<xe>\d+))?)?\s*(?:y(?:\^(?P<ye>\d+))?)?\s*$")


def _parse_monomial_text(term: str):
    """'2x^2y' -> (coeff, (2, 1)); bare 'x', 'y', '3' all work."""
    m = _MONOMIAL_RE.match(term)
    if not m or not term.strip():
        raise InputError(f"cannot parse monomial {term!r}")
    body = term.replace(" ", "")
    coeff = int(m.group("coeff")) if m.group("coeff") else 1
    xe = 0
    ye = 0
    if "x" in body:
        xe = int(m.group("xe")) if m.group("xe") else 1
    if "y" in body:
        ye = int(m.group("ye")) if m.group("ye") else 1
    return coeff, (xe, ye)


def parse_bivariate_text(ring: Ring, text: str) -> RingElem:
    """Parse a +/- separated sum of monomials like 'x+y' or '2x^2 - 3y'; a sign
    with no term after it, two signs in a row or a space inside a term is refused."""
    if not re.fullmatch(r"\s*[+-]?\s*[^\s+-]+(?:\s*[+-]\s*[^\s+-]+)*\s*", text):
        raise InputError(f"malformed bivariate element {text!r}")
    terms = []
    for signed in re.findall(r"[+-]?\s*[^\s+-]+", text):
        sign = -1 if signed.startswith("-") else 1
        body = signed.lstrip("+-").lstrip()
        coeff, mono = _parse_monomial_text(body)
        terms.append((mono, sign * coeff))
    return ring.bipoly(terms)


def parse_ring(obj) -> Ring:
    from .rings import (KIND_BIPOLY, KIND_FP, KIND_POLY, KIND_POLYQUOT, KIND_Z,
                        KIND_ZMOD, Ring, _prime)
    _require_keys(obj, {"kind"}, {"n", "p", "modulus", "rels"}, "ring")
    kind = obj["kind"]
    if kind == KIND_Z:
        _require_keys(obj, {"kind"}, set(), "ring Z")
        return Ring.integers()
    if kind == KIND_ZMOD:
        _require_keys(obj, {"kind", "n"}, set(), "ring Z/n")
        return Ring.integers_mod(parse_int(obj["n"], "modulus n"))
    if kind == KIND_FP:
        _require_keys(obj, {"kind", "p"}, set(), "prime field")
        return Ring.prime_field(parse_int(obj["p"], "characteristic p"))
    if kind == KIND_POLY:
        _require_keys(obj, {"kind", "p"}, set(), "polynomial ring")
        return Ring.poly_ring(parse_int(obj["p"], "characteristic p"))
    if kind == KIND_POLYQUOT:
        _require_keys(obj, {"kind", "p", "modulus"}, set(), "polynomial quotient")
        coeffs = [parse_int(c, "modulus coefficient")
                  for c in parse_array(obj["modulus"], "modulus")]
        return Ring.poly_quotient(parse_int(obj["p"], "characteristic p"), coeffs)
    if kind == KIND_BIPOLY:
        _require_keys(obj, {"kind", "p"}, {"rels"}, "bivariate quotient")
        # a prime p first: the relation loop reduces coefficients mod p
        p = _prime(parse_int(obj["p"], "characteristic p"), "F_p[x,y] quotient")
        rels = []
        for item in parse_array(obj.get("rels", []), "relation monomials"):
            if isinstance(item, str):
                coeff, mono = _parse_monomial_text(item)
                if coeff % p == 0:
                    raise InputError(f"relation {item!r} vanishes modulo {p}")
                rels.append(mono)
            elif isinstance(item, (list, tuple)) and len(item) == 2:
                rels.append((parse_int(item[0]), parse_int(item[1])))
            else:
                raise InputError(f"cannot parse relation monomial {item!r}")
        return Ring.bivariate_quotient(p, rels)
    raise InputError(f"unknown ring kind {kind!r}")


def ring_to_json(ring: Ring) -> dict:
    from .rings import (KIND_BIPOLY, KIND_FP, KIND_POLY, KIND_POLYQUOT, KIND_Z,
                        KIND_ZMOD, _mono_str)
    if ring.kind == KIND_Z:
        return {"kind": KIND_Z}
    if ring.kind == KIND_ZMOD:
        return {"kind": KIND_ZMOD, "n": encode_int(ring.n)}
    if ring.kind == KIND_FP:
        return {"kind": KIND_FP, "p": ring.p}
    if ring.kind == KIND_POLY:
        return {"kind": KIND_POLY, "p": ring.p}
    if ring.kind == KIND_POLYQUOT:
        return {"kind": KIND_POLYQUOT, "p": ring.p, "modulus": list(ring.modulus)}
    return {"kind": KIND_BIPOLY, "p": ring.p, "rels": [_mono_str(m) for m in ring.rels or ()]}


def parse_element(ring: Ring, value) -> RingElem:
    if ring.n is not None:
        return ring.from_int(parse_int(value, "ring element"))
    if ring.modulus is not None:
        if isinstance(value, list):
            return ring.poly([parse_int(c, "coefficient") for c in value])
        if isinstance(value, (int, str)) and not (isinstance(value, str) and "x" in value):
            return ring.from_int(parse_int(value, "ring element"))
        raise InputError(f"univariate elements are coefficient lists, got {value!r}")
    if isinstance(value, str):
        return parse_bivariate_text(ring, value)
    if isinstance(value, int):
        return ring.from_int(parse_int(value, "ring element"))
    raise InputError(f"bivariate elements are strings like 'x+y', got {value!r}")


def parse_ideal(ring: Ring, gens) -> Ideal:
    from .rings import Ideal
    return Ideal(ring, [parse_element(ring, g) for g in parse_array(gens, "ideal generators")])


def parse_matrix(ring: Ring, rows) -> RingMatrix:
    from .mccoy import RingMatrix
    parse_array(rows, "matrix", rows=True)
    width = {len(r) for r in rows}
    if len(width) > 1:
        raise InputError("matrix rows must have equal length")
    data = [[parse_element(ring, e) for e in row] for row in rows]
    return RingMatrix.from_rows(ring, data) if rows else RingMatrix(ring, 0, 0, [])


# ---------------------------------------------------------------------------
# modules and quiver representations
# ---------------------------------------------------------------------------


def parse_module(obj) -> PresentedModule:
    from .abelian import PresentedModule
    _require_keys(obj, {"ring", "generators", "relations"}, set(), "module")
    ring = parse_ring(obj["ring"])
    gens = parse_int(obj["generators"], "generator count")
    matrix = [[parse_int(x, "relation entry") for x in row]
              for row in parse_array(obj["relations"], "relations", rows=True)]
    return PresentedModule(ring, gens, matrix)


def module_to_json(m: PresentedModule) -> dict:
    return {
        "ring": ring_to_json(m.ring),
        "generators": m.gens,
        "relations": [[encode_int(x) for x in row] for row in m.relations],
    }


def parse_quiver(obj) -> Quiver:
    from .quiver import Quiver
    _require_keys(obj, {"vertices", "arrows"}, set(), "quiver")
    count = parse_int(obj["vertices"], "vertex count")
    arrows = []
    for arrow in parse_array(obj["arrows"], "arrows"):
        if not isinstance(arrow, list) or len(arrow) != 2:
            raise InputError("arrows are [source, target] pairs (0-indexed)")
        arrows.append((parse_int(arrow[0]), parse_int(arrow[1])))
    return Quiver(count, arrows)


def parse_rep(obj) -> QuiverRep:
    from .quiver import QuiverRep
    _require_keys(obj, {"quiver", "p", "dims", "maps"}, set(), "representation")
    quiver = parse_quiver(obj["quiver"])
    p = parse_int(obj["p"], "characteristic p")
    dims = [parse_int(d, "dimension") for d in parse_array(obj["dims"], "dims")]
    maps = [[[parse_int(x, "matrix entry") for x in row]
             for row in parse_array(mat, "arrow map", rows=True)]
            for mat in parse_array(obj["maps"], "maps")]
    return QuiverRep(quiver, p, dims, maps)


def rep_to_json(x: QuiverRep) -> dict:
    return {
        "quiver": {"vertices": x.quiver.vertex_count,
                   "arrows": [[s, t] for s, t in x.quiver.arrows]},
        "p": x.p,
        "dims": list(x.dims),
        "maps": [[[v for v in row] for row in m] for m in x.maps],
    }


def dumps_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))
