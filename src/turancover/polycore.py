"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials live in Q[x_1, ..., x_n].  Every polynomial this library builds
(products of differences x_i - x_j, their derivatives and identifications)
has integer coefficients, so a coefficient is stored as a plain ``int``
whenever it is integral; a ``Fraction`` is kept only for a non-integral
value a caller supplies and for what arithmetic derives from it.  Terms are
stored sparsely as a dict mapping exponent tuples (length n) to nonzero
coefficients; zero coefficients are never kept, so structural equality of
the dicts is polynomial equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm
from operator import add
from typing import Iterable, Mapping

from .errors import InputError

Exponents = tuple[int, ...]
Coefficient = int | Fraction


def _grlex_key(exps: Exponents) -> tuple:
    # graded lexicographic: compare total degree first, then lex
    return (sum(exps), exps)


def _exact(c: Coefficient) -> Coefficient:
    """c as an int when it is integral, else unchanged (a Fraction)."""
    return c.numerator if c.denominator == 1 else c


class Polynomial:
    """Immutable sparse polynomial with exact coefficients: ints, and Fractions
    only where a value is not integral."""

    __slots__ = ("nvars", "terms", "_integral", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Coefficient] | None = None):
        if nvars < 1:
            raise InputError(f"nvars must be positive, got {nvars}")
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise InputError(f"exponent vector {exps} has length {len(exps)}, expected {nvars}")
            if any(e < 0 for e in exps):
                raise InputError(f"negative exponent in {exps}")
            clean[exps] = clean.get(exps, 0) + Fraction(coeff)
        clean = {e: _exact(c) for e, c in clean.items() if c}
        self._set(nvars, clean, all(type(c) is int for c in clean.values()))

    def _set(self, nvars: int, terms: dict[Exponents, Coefficient], integral: bool) -> None:
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_integral", integral)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _from_terms(cls, nvars: int, terms: dict[Exponents, Coefficient], integral: bool) -> "Polynomial":
        """Wrap `terms` that arithmetic built from valid polynomials: exponent
        vectors of length nvars, nonnegative, no zero coefficient.  None of
        __init__'s checks are repeated.  `integral` says every input had int
        coefficients, so every result is an int; otherwise integral results
        are turned from Fraction into int here."""
        if not integral:
            terms = {e: _exact(c) for e, c in terms.items()}
            integral = all(type(c) is int for c in terms.values())
        p = object.__new__(cls)
        p._set(nvars, terms, integral)
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
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Polynomial":
        """x_i, with 1-based index i."""
        if not 1 <= i <= nvars:
            raise InputError(f"variable index {i} out of range [1, {nvars}]")
        exps = [0] * nvars
        exps[i - 1] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def difference(cls, i: int, j: int, nvars: int) -> "Polynomial":
        """The linear factor x_i - x_j."""
        return cls.variable(i, nvars) - cls.variable(j, nvars)

    # -- basics -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            h = hash((self.nvars, tuple(sorted(self.terms.items()))))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def sorted_terms(self) -> list[tuple[Exponents, Coefficient]]:
        """Terms in decreasing graded-lex order (canonical presentation)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
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

    def _check_arity(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise InputError(f"arity mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_arity(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            else:
                del out[exps]
        return Polynomial._from_terms(self.nvars, out, self._integral and other._integral)

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_terms(self.nvars, {e: -c for e, c in self.terms.items()}, self._integral)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        c = _exact(Fraction(c))
        if c == 0:
            return Polynomial.zero(self.nvars)
        integral = self._integral and type(c) is int
        return Polynomial._from_terms(self.nvars, {e: k * c for e, k in self.terms.items()}, integral)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_arity(other)
        out: dict[Exponents, Coefficient] = {}
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
        return Polynomial._from_terms(self.nvars, out, self._integral and other._integral)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise InputError("negative power")
        result = Polynomial.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- calculus and substitution ------------------------------------

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
        out: dict[Exponents, Coefficient] = {}
        for exps, c in self.terms.items():
            e = exps[idx]
            if e < order:
                continue
            new = list(exps)
            new[idx] = e - order
            out[tuple(new)] = c * perm(e, order)
        return Polynomial._from_terms(self.nvars, out, self._integral)

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
        out: dict[Exponents, Coefficient] = {}
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
        return Polynomial._from_terms(self.nvars, out, self._integral)

    def substitute(self, assignment: Mapping[int, Coefficient]) -> Fraction:
        """Evaluate at a full rational point; 1-based variable keys."""
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for i, e in enumerate(exps):
                if e:
                    v *= Fraction(assignment[i + 1]) ** e
            total += v
        return total

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
