"""Textual syntax for loop-algebra elements.

Terms look like ``D(1,0;0,1)*x`` or ``t(1,0)*1`` or ``-2*D(1;0)*1``:
a D(u;r) or t(r) head, optional scalar prefixes and an optional B
coefficient.  B coefficients are polynomials in the presentation
generator x, e.g. ``(4*x - 4)`` or ``x^-1`` (laurent only).  Sums use
top-level + and -.  A coefficient term whose total x exponent exceeds
``EXPONENT_CAP`` in absolute value is refused.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .coeff import BElem, BPresentation
from .loop import LoopElem
from .scalars import GaussRat, parse_gauss


class ParseError(ValueError):
    pass


def _split_top(s: str, seps: str) -> List[str]:
    """Split on separators not nested in parentheses, keeping signs; a
    sign right after ``^`` belongs to the exponent."""
    parts = []
    depth = 0
    cur = ""
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses")
        if (depth == 0 and ch in seps and cur.strip()
                and not cur.rstrip().endswith("^")):
            parts.append(cur)
            cur = ch if ch in "+-" else ""
            continue
        cur += ch
    if depth != 0:
        raise ParseError("unbalanced parentheses")
    if cur.strip():
        parts.append(cur)
    return parts


def _signed_terms(s: str) -> List[Tuple[int, str]]:
    """The top-level + and - terms of s, each as its sign and its text
    with the leading signs stripped."""
    out = []
    for part in _split_top(s, "+-"):
        sign = 1
        part = part.strip()
        while part and part[0] in "+-":
            if part[0] == "-":
                sign = -sign
            part = part[1:].strip()
        out.append((sign, part))
    return out


_MONO = re.compile(r"^\s*x(?:\^(-?\d+))?\s*$")

# Building x^k modulo a polyquot modulus and evaluating it (BElem.psi,
# from cached powers) take O(log k) products, but the integers grow with
# k.  x^k modulo (x-10^6)^6 takes 0.11 s at the cap and 4.2 s at 10^5,
# and psi of x^k at 2/3+i 0.002 s and 0.095 s (2-core Xeon VM, Python
# 3.11.7), so the cap bounds the cost of one term.
EXPONENT_CAP = 10 ** 4
_EXPONENT_ERROR = f"x exponent beyond the cap {EXPONENT_CAP}"


def parse_b_elem(s: str, pres: BPresentation) -> BElem:
    """Parse a B coefficient: a sum of c, x^k and c*x^k terms."""
    s = s.strip()
    if s.startswith("(") and s.endswith(")") and _balanced(s[1:-1]):
        s = s[1:-1]
    out = pres.zero()
    for sign, part in _signed_terms(s):
        coeff = GaussRat(1)
        mono_exp = 0
        for factor in _split_top(part, "*"):
            factor = factor.strip()
            if factor.startswith("(") and factor.endswith(")"):
                factor = factor[1:-1].strip()
            m = _MONO.match(factor)
            if m:
                try:
                    mono_exp += int(m.group(1) or 1)
                except ValueError:  # more digits than int() converts
                    raise ParseError(_EXPONENT_ERROR) from None
                continue
            try:
                coeff = coeff * parse_gauss(factor)
            except ValueError as exc:
                raise ParseError(f"bad coefficient factor {factor!r}") from exc
        if abs(mono_exp) > EXPONENT_CAP:
            raise ParseError(_EXPONENT_ERROR)
        try:
            out = out + pres.from_poly({mono_exp: coeff * sign})
        except ValueError as exc:  # e.g. x in trivial B, x^-1 in polyquot
            raise ParseError(str(exc)) from exc
    return out


def _balanced(s: str) -> bool:
    try:
        return _split_top(s, "") is not None
    except ParseError:
        return False


_HEAD = re.compile(r"^(D|t)\((.*)\)$")


def parse_loop_expr(s: str, n: int, pres: BPresentation) -> LoopElem:
    terms = _signed_terms(s)
    if not terms:
        raise ParseError("empty expression")
    out = LoopElem.zero(n, pres)
    for sign, part in terms:
        head = None
        b = pres.one()
        scalar = GaussRat(sign)
        for factor in _split_top(part, "*"):
            factor = factor.strip()
            m = _HEAD.match(factor)
            if m:
                if head is not None:
                    raise ParseError("term has two D/t heads")
                head = (m.group(1), m.group(2))
                continue
            if "x" in factor:
                b = b * parse_b_elem(factor, pres)
                continue
            try:
                scalar = scalar * parse_gauss(factor.strip("()"))
            except ValueError as exc:
                raise ParseError(f"cannot parse factor {factor!r}") from exc
        if head is None:
            raise ParseError(f"term {part!r} has no D(u;r) or t(r) head")
        kind, body = head
        coeff = b.scale(scalar)
        if kind == "t":
            r = _parse_int_vec(body, n)
            out = out + LoopElem.t_part(n, pres, r, coeff)
        else:
            if ";" not in body:
                raise ParseError("D head needs the form D(u;r)")
            u_s, r_s = body.split(";", 1)
            try:
                u = [parse_gauss(x) for x in u_s.split(",")]
            except ValueError as exc:
                raise ParseError(f"bad direction {u_s!r}") from exc
            if len(u) != n:
                raise ParseError(f"u must have {n} components")
            r = _parse_int_vec(r_s, n)
            out = out + LoopElem.d_vec(n, pres, u, r, coeff)
    return out


def _parse_int_vec(s: str, n: int) -> Tuple[int, ...]:
    try:
        vec = tuple(int(x.strip()) for x in s.split(","))
    except ValueError as exc:
        raise ParseError(f"bad integer vector {s!r}") from exc
    if len(vec) != n:
        raise ParseError(f"degree must have {n} components")
    return vec


# -- printing ---------------------------------------------------------


def format_loop_elem(x: LoopElem) -> str:
    if x.is_zero():
        return "0"
    pieces = []
    for (kind, i, r), b in x.sorted_terms():
        deg = ",".join(str(a) for a in r)
        if kind == "t":
            head = f"t({deg})"
        else:
            u = ",".join("1" if j == i else "0" for j in range(1, x.n + 1))
            head = f"D({u};{deg})"
        bs = str(b)
        if bs.startswith("("):
            pieces.append(f"{head}*{bs}")
        else:
            # a real scalar becomes a prefix factor
            prefix = {"1": "", "-1": "-"}.get(bs, f"{bs}*")
            pieces.append(f"{prefix}{head}*1")
    out = pieces[0]
    for p in pieces[1:]:
        out += f" {p}" if p.startswith("-") else f" + {p}"
    return out
