"""turancover: exact desk-scale laboratory for Turán-type extremal problems.

Subpackages:

* polycore       exact sparse polynomial arithmetic, integer coefficients
                 (the expanded oracle of the diagonal membership test)
* hypergraph     r-graphs, Turán constructions, brute-force oracles
* diagonal       identification ideals and the counterexample certificate;
                 membership of difference products decided by counting pairs
* monomial       the hitting-set search over int support masks of the
                 edge variables (a cover ideal is its copy masks),
                 Alexander duality
* squarezero     square-zero quotients and Hilbert symmetrization
* dictionary     the cover-ideal Turán dictionary (ordinary + generalized)
* codegree_star  the missing codegree-star ideal and its initial degree
* selftest       the table of acceptance criteria behind `turancover selftest`
* errors         shared exception types
* cli            JSON-reporting command-line interface
"""

__version__ = "0.1.0"

from .errors import ClaimCheckError, InputError, ScaleGuardError

__all__ = ["ClaimCheckError", "InputError", "ScaleGuardError", "__version__"]
