"""Plain-text and LaTeX rendering of forms and cochains.

Terms print positive-first (each group ordered by multi-index), unit
coefficients are dropped, and multi-term coefficients are parenthesized,
so a form reads the way it would be written by hand: "x1 dx2 - x2 dx1",
"(1 - x2) dx1 + x1 dx2", "6 dx1^dx2^dx3".
"""

from __future__ import annotations

from fractions import Fraction

from .forms import AffineForm
from .linalg import format_rational
from .simplicial import AffineFunction, Cochain

__all__ = ["render_affine", "render_form", "render_cochain"]


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
