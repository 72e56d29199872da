"""Ring-bundle documents: parsing, canonical serialization, class literals.

A ring bundle is a single JSON document:

    {
      "name": "blp4",
      "n": 4,
      "hodge": [1, 2, 2, 2, 1],
      "basis": [["1"], ["H", "E"], ...],
      "products": [{"da": 1, "ia": 0, "db": 1, "ib": 0, "out": ["1", "0"]}, ...],
      "integral": ["1"],
      "samples": [{"name": "omega", "flag": "kahler", "coeffs": ["2", "-1"]}]
    }

Rationals are exact strings "p/q" (the denominator is omitted when 1).
Product records store each unordered pair once; a document carrying both
orders with different outputs is rejected as a commutativity violation.
Serialization is canonical (sorted keys, reduced rationals, records sorted by
(da, ia, db, ib), zero products omitted), so parse then serialize
canonicalizes any valid document and round-trips canonical ones byte-exactly.
Product vectors are dense and mostly "0", so parsing converts each distinct
literal once per document and serialization writes each distinct entry once.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

from .errors import BundleSemanticError, BundleSyntaxError
from .linalg import MAX_LITERAL_DIGITS, int_from_str, rational_from_str, rational_to_str
from .ring import (
    FLAG_NONE,
    POSITIVE_FLAGS,
    ClassVector,
    IntersectionRing,
    RingSample,
    canonical_product_key,
    validate_ring,
)

_REQUIRED_FIELDS = ("name", "n", "hodge", "basis", "products", "integral")
# Every digit to "0": a run of digits becomes a run of zeros of its length.
_DIGITS_TO_ZERO = str.maketrans("123456789", "0" * 9)


def _semantic(message: str, path: str, constraint: str) -> BundleSemanticError:
    return BundleSemanticError(message, path=path, constraint=constraint)


def _want(value, typ, path: str, suffix: str = ""):
    """``value`` when it is a ``typ``; the path ``path + suffix`` is joined only to refuse."""
    # bool is an int subclass but never a valid count/index in this format.
    if not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
        raise _semantic(
            f"expected {typ.__name__}, got {type(value).__name__}", path + suffix, "type"
        )
    return value


def _check_fields(value, path: str, required: tuple, allowed: tuple = ()) -> None:
    """Refuse a ``value`` that is not an object, lacks a ``required`` field or has a
    field that is neither required nor ``allowed``."""
    _want(value, dict, path)
    for key in required:
        if key not in value:
            raise _semantic(f"missing field {key!r}", path, "required-field")
    # Every required field is present, so only a longer object has another field.
    for key in value if len(value) > len(required) else ():
        if key not in required and key not in allowed:
            raise _semantic(f"unknown field {key!r}", path, "unknown-field")


def _rational_list(value, path: str, memo: dict[str, Fraction]) -> tuple[Fraction, ...]:
    """Parse a list of rational strings; ``memo`` caches successful parses per document.

    A list whose every entry is a literal already in ``memo`` is looked up whole;
    only a miss, or a value that is not a list, takes the loop that checks,
    parses and names each entry.
    """
    if isinstance(value, list):
        try:
            return tuple(map(memo.__getitem__, value))
        except (KeyError, TypeError):
            pass
    for i, c in enumerate(_want(value, list, path)):
        if _want(c, str, f"{path}[{i}]") not in memo:
            try:
                memo[c] = rational_from_str(c)
            except ValueError as exc:
                raise _semantic(str(exc), f"{path}[{i}]", "rational") from None
    return tuple(map(memo.__getitem__, value))


def parse_ring_bundle(text: str, source: str = "<string>") -> IntersectionRing:
    """Parse and fully validate a ring bundle document.

    Syntax problems raise :class:`BundleSyntaxError` with line/column;
    constraint violations raise :class:`BundleSemanticError` carrying the
    field path and the name of the first failing constraint. The document and
    each product and sample record take exactly their fields: a missing one is
    a ``required-field`` error and any other an ``unknown-field`` error at the
    object's path. ``samples``, when present, is a list like every list field.
    :func:`validate_ring` raises :class:`ValidationLimitError` beyond its limit.
    JSON integers go through :func:`int_from_str` when the text holds a run of
    more digits than a literal may have, so none is converted past the bound.
    """
    try:
        long_run = "0" * (MAX_LITERAL_DIGITS + 1) in text.translate(_DIGITS_TO_ZERO)
        doc = json.loads(text, parse_int=int_from_str if long_run else None)
    except json.JSONDecodeError as exc:
        raise BundleSyntaxError(f"{source}: {exc.msg}", line=exc.lineno, col=exc.colno) from None
    except ValueError as exc:
        raise _semantic(str(exc), "$", "integer") from None

    _check_fields(doc, "$", _REQUIRED_FIELDS, ("samples",))

    name = _want(doc["name"], str, "name")
    n = _want(doc["n"], int, "n")
    hodge = [_want(h, int, f"hodge[{i}]") for i, h in enumerate(_want(doc["hodge"], list, "hodge"))]
    basis = []
    for p, row in enumerate(_want(doc["basis"], list, "basis")):
        basis.append([_want(lab, str, f"basis[{p}][{i}]") for i, lab in enumerate(_want(row, list, f"basis[{p}]"))])
        for i, lab in enumerate(basis[-1]):
            if any(ch in "+-*" or ch.isspace() for ch in lab):
                raise _semantic(f"label {lab!r} contains +, -, * or whitespace", f"basis[{p}][{i}]", "label")

    literals: dict[str, Fraction] = {}
    products = {}
    seen: dict[tuple[int, int, int, int], tuple[int, tuple[Fraction, ...]]] = {}
    for r, rec in enumerate(_want(doc["products"], list, "products")):
        path = f"products[{r}]"
        _check_fields(rec, path, ("da", "ia", "db", "ib", "out"))
        da = _want(rec["da"], int, path, ".da")
        ia = _want(rec["ia"], int, path, ".ia")
        db = _want(rec["db"], int, path, ".db")
        ib = _want(rec["ib"], int, path, ".ib")
        out = _rational_list(rec["out"], path + ".out", literals)
        key = canonical_product_key(da, ia, db, ib)
        if key in seen:
            prev_record, prev_out = seen[key]
            constraint = "commutativity" if prev_out != out else "duplicate-product"
            raise _semantic(
                f"pair ({da},{ia})x({db},{ib}) already given by products[{prev_record}]"
                + ("" if prev_out == out else " with a different output"),
                path, constraint,
            )
        seen[key] = (r, out)
        products[(da, ia, db, ib)] = out

    integral = _rational_list(doc["integral"], "integral", literals)

    samples = []
    for s, rec in enumerate(_want(doc.get("samples", []), list, "samples")):
        path = f"samples[{s}]"
        _check_fields(rec, path, ("name", "flag", "coeffs"))
        flag = _want(rec["flag"], str, path, ".flag")
        if flag not in POSITIVE_FLAGS:
            raise _semantic(f"flag must be kahler or nef, got {flag!r}", f"{path}.flag", "flag")
        coeffs = _rational_list(rec["coeffs"], f"{path}.coeffs", literals)
        sample = _want(rec["name"], str, path, ".name")
        if any(x.name == sample for x in samples):
            raise _semantic(f"sample name {sample!r} is already declared", f"{path}.name", "duplicate-sample")
        samples.append(RingSample(sample, flag, coeffs))

    try:
        ring = IntersectionRing(name, n, hodge, basis, products, integral, samples)
    except ValueError as exc:
        raise _semantic(str(exc), "$", "structure") from None

    report = validate_ring(ring)
    if not report.ok:
        first = report.issues[0]
        err = _semantic(first.message, first.location, first.check)
        err.issues = report.issues
        raise err
    return ring


def serialize_ring_bundle(ring: IntersectionRing) -> str:
    """Canonical serialization: stable ordering, reduced rationals, newline-terminated.

    Each entry object is written once by ``rational_to_str`` and its text reused
    wherever it stands: product vectors are dense and mostly zero, and a parsed
    ring holds one Fraction per distinct literal, so a parsed ring's rationals are
    written once per distinct literal. Entries are keyed by identity, as hashing a
    Fraction costs more than writing it.
    """
    vectors = [*ring.products.values(), ring.integral, *(s.coeffs for s in ring.samples)]
    entries = {id(c): c for c in chain.from_iterable(vectors)}
    text = {i: rational_to_str(c) for i, c in entries.items()}

    def strs(values) -> list[str]:
        return list(map(text.__getitem__, map(id, values)))

    records = []
    for key in sorted(ring.products):
        da, ia, db, ib = key
        records.append({"da": da, "ia": ia, "db": db, "ib": ib, "out": strs(ring.products[key])})
    doc = {
        "name": ring.name,
        "n": ring.n,
        "hodge": list(ring.hodge),
        "basis": [list(row) for row in ring.basis_labels],
        "products": records,
        "integral": strs(ring.integral),
        "samples": [{"name": s.name, "flag": s.flag, "coeffs": strs(s.coeffs)} for s in ring.samples],
    }
    return _json_text(doc) + "\n"


def _json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    With ``indent`` set, the standard library writes through its pure-Python
    encoder; this walk appends to one list and escapes strings with the C
    ``encode_basestring_ascii``.
    """
    out: list[str] = []
    _write_json(value, out, "\n")
    return "".join(out)


def _write_json(value, out: list[str], newline: str) -> None:
    """Append the JSON of ``value`` at the indentation that ``newline`` carries.

    Dicts with str keys, lists, tuples, str, int, bool and None are written
    here; anything else is ``json.dumps``'s, re-indented.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict) and all(isinstance(key, str) for key in value):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))


# -- class literals ------------------------------------------------------------

def parse_class_literal(ring: IntersectionRing, degree: int, text: str) -> ClassVector:
    """Parse a human-written class like "3*H - 1/2*E" in the given degree.

    Whitespace (every character for which ``str.isspace`` holds) is dropped and
    the text is split once at every + and -, after an implied leading +, into
    signs and terms. A term is a rational coefficient, a '*' and a basis label
    of that degree, or a bare label (coefficient 1).
    An empty term is a dangling sign when it ends the text and a misplaced
    sign otherwise. Coefficients are real rationals.
    """
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty class literal")
    coeffs = [Fraction(0)] * ring.dim(degree)
    parts = re.split(r"([+-])", compact if compact[0] in "+-" else "+" + compact)
    for k in range(1, len(parts), 2):
        term = parts[k + 1]
        if not term:
            where = "dangling" if k + 2 == len(parts) else "misplaced"
            raise ValueError(f"{where} sign in class literal {text!r}")
        coef_text, label = term.split("*", 1) if "*" in term else ("1", term)
        coef = rational_from_str(coef_text)
        try:
            idx = ring.label_index(degree, label)
        except KeyError:
            raise ValueError(
                f"unknown degree-{degree} basis label {label!r} in {text!r}"
            ) from None
        coeffs[idx] += -coef if parts[k] == "-" else coef
    return ring.class_vector(degree, coeffs, FLAG_NONE)


def resolve_class(ring: IntersectionRing, degree: int, text: str) -> ClassVector:
    """Resolve "sample:NAME" to a declared sample, else parse a literal."""
    if text.startswith("sample:"):
        name = text[len("sample:"):]
        try:
            cls = ring.sample(name)
        except KeyError:
            raise ValueError(f"ring {ring.name!r} has no sample {name!r}") from None
        if cls.degree != degree:
            raise ValueError(f"sample {text!r} has degree {cls.degree}, wanted {degree}")
        return cls
    return parse_class_literal(ring, degree, text)
