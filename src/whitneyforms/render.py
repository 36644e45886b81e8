"""Every external text format of forms, cochains and scalars: JSON, "p/q", text, LaTeX.

A scalar goes over the wire as "p/q", or "p" when its denominator is 1
(:func:`parse_rational`, :func:`format_rational`); forms and cochains as
JSON objects of such strings (:func:`form_to_json`, :func:`form_from_json`,
:func:`cochain_to_json`, :func:`cochain_from_json`); and :func:`emit`
prints either as JSON, plain text or LaTeX. Nothing else in the package
imports this module at its top: the command line loads it in the
subcommands that read or print a form or cochain, ``verify`` to write a
failing cell's counterexample, and the package on the first read of one
of these names, so that a process that reads and prints no form or
cochain never compiles it.

Rendered terms print positive-first (each group ordered by multi-index),
unit coefficients are dropped, and multi-term coefficients are
parenthesized, so a form reads the way it would be written by hand:
"x1 dx2 - x2 dx1", "(1 - x2) dx1 + x1 dx2", "6 dx1^dx2^dx3".
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Mapping

from .forms import AffineForm, MultiIndex
from .linalg import exact_int, exact_rational
from .simplicial import AffineFunction, Cochain, Face, check_unknowns, permutation_sign

__all__ = [
    "parse_rational",
    "format_rational",
    "form_to_json",
    "form_from_json",
    "cochain_to_json",
    "cochain_from_json",
    "render_affine",
    "render_form",
    "render_cochain",
    "emit",
]

# ASCII digits only: Unicode \d would read full-width or Arabic-Indic digits as a number
_RATIONAL_PATTERN = re.compile(r"[+-]?\d+(/[1-9]\d*)?", re.ASCII)


def parse_rational(value: object) -> Fraction:
    """Parse the wire format "p/q" (or "p"); plain ints are accepted too.

    Floats and decimal strings are rejected: they would silently smuggle
    rounding error into a pipeline whose whole point is exactness.
    """
    if isinstance(value, (Fraction, int)) or (
        isinstance(value, str) and _RATIONAL_PATTERN.fullmatch(value.strip())
    ):
        return exact_rational(value)
    raise ValueError(f"not an exact rational: {value!r}")


def format_rational(value: Fraction | int) -> str:
    """Render as "p/q", or just "p" when the denominator is 1."""
    return str(Fraction(value))


def form_to_json(form: AffineForm) -> dict:
    """JSON form: one entry per multi-index with "const" and "grad" strings."""
    return {
        "n": form.n,
        "k": form.k,
        "terms": [
            {
                "dx": list(idx),
                "const": format_rational(f.constant),
                "grad": [format_rational(g) for g in f.gradient],
            }
            for idx, f in sorted(form.coeffs.items())
        ],
    }


def form_from_json(data: Mapping) -> AffineForm:
    """Parse a form; dx lists may come unsorted and are folded by parity.

    n, k and the dx indices must be JSON integers: a float, bool or string
    raises ValueError instead of being truncated or coerced, and so does an
    (n, k) with more than MAX_UNKNOWNS unknowns.
    """
    try:
        n = exact_int(data["n"])
        k = exact_int(data["k"])
        raw_terms = data.get("terms", [])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed form JSON: {exc}") from exc
    check_unknowns(n, k)  # before any of the (n+1)*C(n,k) entries is allocated
    acc: dict[MultiIndex, AffineFunction] = {}
    try:
        for entry in raw_terms:
            try:
                if not isinstance(entry["dx"], list) or not isinstance(entry["grad"], list):
                    raise ValueError("malformed form term: dx and grad must be lists")
                dx = tuple(exact_int(i) for i in entry["dx"])
                const = parse_rational(entry["const"])
                grad = tuple(parse_rational(g) for g in entry["grad"])
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed form term: {exc}") from exc
            if len(set(dx)) != len(dx):
                raise ValueError(f"repeated index in dx {list(dx)}")
            sign = permutation_sign(dx)
            key = tuple(sorted(dx))
            f = sign * AffineFunction(n, const, grad)
            acc[key] = acc[key] + f if key in acc else f
    except TypeError as exc:  # "terms" that is no list, such as 5 or null
        raise ValueError(f"malformed form JSON: {exc}") from exc
    return AffineForm(n, k, acc)


def cochain_to_json(c: Cochain) -> dict:
    """JSON form: faces as increasing vertex lists, coefficients as "p/q"."""
    return {
        "n": c.n,
        "k": c.k,
        "terms": [
            {"face": list(key), "coeff": format_rational(coeff)}
            for key, coeff in sorted(c.terms.items())
        ],
    }


def cochain_from_json(data: dict) -> Cochain:
    """Parse a cochain; faces may come in any vertex order and are folded.

    n, k and the face labels must be JSON integers: a float, bool or string
    raises ValueError instead of being truncated or coerced, and so does an
    (n, k) with more than MAX_UNKNOWNS unknowns.
    """
    try:
        n = exact_int(data["n"])
        k = exact_int(data["k"])
        check_unknowns(n, k)  # before any face or any of the C(n+1,k+1) entries is built
        raw_terms = data.get("terms", [])
        if not all(isinstance(entry["face"], list) for entry in raw_terms):
            raise ValueError("malformed cochain JSON: every face must be a list of labels")
        items = [
            (Face(n, tuple(exact_int(v) for v in entry["face"])), parse_rational(entry["coeff"]))
            for entry in raw_terms
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed cochain JSON: {exc}") from exc
    return Cochain.from_terms(n, k, items)


def _scalar(value: Fraction, latex: bool) -> str:
    if latex and value.denominator != 1:
        sign = "-" if value < 0 else ""
        return f"{sign}\\tfrac{{{abs(value.numerator)}}}{{{value.denominator}}}"
    return format_rational(value)


def _variable(j: int, latex: bool) -> str:
    return f"x^{{{j}}}" if latex else f"x{j}"


def _monomials(f: AffineFunction, latex: bool) -> list[tuple[int, str]]:
    """(sign, magnitude text) per nonzero component, constant first."""
    out: list[tuple[int, str]] = []
    if f.constant:
        out.append((1 if f.constant > 0 else -1, _scalar(abs(f.constant), latex)))
    for j, g in enumerate(f.gradient, start=1):
        if not g:
            continue
        var = _variable(j, latex)
        text = var if abs(g) == 1 else f"{_scalar(abs(g), latex)} {var}"
        out.append((1 if g > 0 else -1, text))
    return out


def _join(parts: list[tuple[int, str]]) -> str:
    pieces: list[str] = []
    for i, (sign, text) in enumerate(parts):
        if i == 0:
            pieces.append(f"-{text}" if sign < 0 else text)
        else:
            pieces.append(f"{'-' if sign < 0 else '+'} {text}")
    return " ".join(pieces)


def render_affine(f: AffineFunction, style: str = "text") -> str:
    """An affine function as a signed sum of monomials; "0" when zero."""
    latex = style == "latex"
    parts = _monomials(f, latex)
    return _join(parts) if parts else "0"


def _leading_sign(f: AffineFunction) -> int:
    first = next((v for v in (f.constant, *f.gradient) if v), 1)
    return 1 if first > 0 else -1


def _positive_first(terms: list[tuple[int, str]]) -> str:
    """Join the positive terms first, each group in its given order; "0" if none."""
    return _join(sorted(terms, key=lambda t: t[0] < 0)) if terms else "0"


def _dx(idx: tuple[int, ...], latex: bool) -> str:
    if latex:
        return " \\wedge ".join(f"dx^{{{i}}}" for i in idx)
    return "^".join(f"dx{i}" for i in idx)


def render_form(form: AffineForm, style: str = "text") -> str:
    """A k-form as a signed sum of coefficient-times-dx terms; "0" when zero."""
    latex = style == "latex"
    if form.k == 0:
        f = form.coeffs.get((), AffineFunction.zero(form.n))
        return render_affine(f, style)
    terms: list[tuple[int, str]] = []
    for idx, f in sorted(form.coeffs.items()):
        sign = _leading_sign(f)
        monos = _monomials(sign * f, latex)
        body = f"({_join(monos)})" if len(monos) > 1 else monos[0][1]
        dx = _dx(idx, latex)
        terms.append((sign, dx if body == "1" else f"{body} {dx}"))
    return _positive_first(terms)


def render_cochain(c: Cochain, style: str = "text") -> str:
    """A cochain as a signed sum of coefficient-times-[face] terms."""
    latex = style == "latex"
    terms: list[tuple[int, str]] = []
    for verts, coeff in sorted(c.terms.items()):
        tag = "[" + ",".join(str(v) for v in verts) + "]"
        magnitude = abs(coeff)
        body = tag if magnitude == 1 else f"{_scalar(magnitude, latex)} {tag}"
        terms.append((1 if coeff > 0 else -1, body))
    return _positive_first(terms)


def emit(value: AffineForm | Cochain, fmt: str) -> None:
    """Print a form or a cochain as JSON (fmt "json"), or rendered as "text" or "latex"."""
    is_cochain = isinstance(value, Cochain)
    if fmt == "json":
        print(json.dumps(cochain_to_json(value) if is_cochain else form_to_json(value)))
    else:
        print((render_cochain if is_cochain else render_form)(value, fmt))
