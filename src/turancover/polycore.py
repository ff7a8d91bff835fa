"""Exact sparse multivariate polynomial arithmetic with integer coefficients.

Polynomials live in Z[x_1, ..., x_n].  This is the expanded oracle behind
the pair count of `diagonal.DifferenceProduct`: every polynomial it builds
is a product of differences x_i - x_j, or a derivative or identification of
one, so every coefficient is a plain ``int``.  Terms are stored sparsely as
a dict mapping exponent tuples (length n) to nonzero coefficients; zero
coefficients are never kept, so structural equality of the dicts is
polynomial equality.
"""

from __future__ import annotations

from math import perm
from operator import add
from typing import Iterable, Mapping

from .errors import InputError

Exponents = tuple[int, ...]


class Polynomial:
    """Immutable sparse polynomial with int coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, int] | None = None):
        if nvars < 1:
            raise InputError(f"nvars must be positive, got {nvars}")
        clean: dict[Exponents, int] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise InputError(f"exponent vector {exps} has length {len(exps)}, expected {nvars}")
            if any(e < 0 for e in exps):
                raise InputError(f"negative exponent in {exps}")
            if type(coeff) is not int:
                raise InputError(f"coefficient {coeff!r} of {exps} is not an int")
            clean[exps] = clean.get(exps, 0) + coeff
        self._set(nvars, {e: c for e, c in clean.items() if c})

    def _set(self, nvars: int, terms: dict[Exponents, int]) -> None:
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _from_terms(cls, nvars: int, terms: dict[Exponents, int]) -> "Polynomial":
        """Wrap `terms` that arithmetic built from valid polynomials: exponent
        vectors of length nvars, nonnegative, no zero coefficient.  None of
        __init__'s checks are repeated."""
        p = object.__new__(cls)
        p._set(nvars, terms)
        return p

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def difference(cls, i: int, j: int, nvars: int) -> "Polynomial":
        """The linear factor x_i - x_j, with 1-based indices (zero when i == j)."""
        for k in (i, j):
            if not 1 <= k <= nvars:
                raise InputError(f"variable index {k} out of range [1, {nvars}]")
        if i == j:
            return cls.zero(nvars)
        xi, xj = [0] * nvars, [0] * nvars
        xi[i - 1] = xj[j - 1] = 1
        return cls._from_terms(nvars, {tuple(xi): 1, tuple(xj): -1})

    # -- basics -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        # decreasing graded-lex order: total degree first, then lex
        for exps, c in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
            mono = "*".join(
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e > 0
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise InputError(f"arity mismatch: {self.nvars} vs {other.nvars}")
        out: dict[Exponents, int] = {}
        get = out.get
        # iterate the smaller factor on the outside
        a, b = (self.terms, other.terms)
        if len(a) > len(b):
            a, b = b, a
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(map(add, ea, eb))
                s = get(key, 0) + ca * cb
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Polynomial._from_terms(self.nvars, out)

    # -- calculus and identification ----------------------------------

    def derivative(self, i: int, order: int = 1) -> "Polynomial":
        """Exact order-th partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.nvars:
            raise InputError(f"variable index {i} out of range [1, {self.nvars}]")
        if order < 0:
            raise InputError("derivative order must be nonnegative")
        if order == 0:
            return self
        idx = i - 1
        # distinct terms differentiate to distinct terms, and perm(e, order),
        # the falling factorial e * (e-1) * ... * (e-order+1), is nonzero
        out: dict[Exponents, int] = {}
        for exps, c in self.terms.items():
            e = exps[idx]
            if e < order:
                continue
            new = list(exps)
            new[idx] = e - order
            out[tuple(new)] = c * perm(e, order)
        return Polynomial._from_terms(self.nvars, out)

    def identify(self, variables: Iterable[int]) -> "Polynomial":
        """Substitute every variable in `variables` by the minimum-index one.

        The arity is unchanged (the freed slots simply go unused).
        """
        S = sorted(set(variables))
        if not S:
            raise InputError("identification set must be nonempty")
        if S[0] < 1 or S[-1] > self.nvars:
            raise InputError(f"identification set {S} out of range [1, {self.nvars}]")
        rep = S[0] - 1
        merged = [s - 1 for s in S[1:]]
        if not merged:
            return self
        out: dict[Exponents, int] = {}
        get = out.get
        for exps, c in self.terms.items():
            new = list(exps)
            for m in merged:
                new[rep] += new[m]
                new[m] = 0
            key = tuple(new)
            s = get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return Polynomial._from_terms(self.nvars, out)

    # -- degree -------------------------------------------------------

    def degree_info(self) -> tuple[int | None, bool]:
        """(total degree, is_homogeneous); the zero polynomial reports (None, True)."""
        if self.is_zero:
            return None, True
        degs = {sum(e) for e in self.terms}
        return max(degs), len(degs) == 1

    def degree(self) -> int | None:
        return self.degree_info()[0]


def product(factors: Iterable[Polynomial], nvars: int) -> Polynomial:
    """Product of an iterable of polynomials (empty product is 1)."""
    result = Polynomial.one(nvars)
    for f in factors:
        result = result * f
        if result.is_zero:
            break
    return result


def vandermonde(n: int, indices: Iterable[int] | None = None) -> Polynomial:
    """Product of (x_a - x_b) over a < b drawn from `indices` (default all of [n])."""
    idx = sorted(indices) if indices is not None else list(range(1, n + 1))
    factors = [
        Polynomial.difference(idx[i], idx[j], n)
        for i in range(len(idx))
        for j in range(i + 1, len(idx))
    ]
    return product(factors, n)


__all__ = ["Polynomial", "product", "vandermonde"]
