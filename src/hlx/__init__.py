"""Exact-arithmetic desk calculator for finite-dimensional modules of the
hyper loop algebra of sl2 over finite fields, with Z_(p)-lattices inside
characteristic-zero modules."""

__version__ = "0.1.0"
