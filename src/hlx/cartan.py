"""The sl2 weight lattice.

A weight is an int, its coordinate on the fundamental weight.  The root
lattice Q is 2Z, so P/Q = Z/2 and the class of a weight is its residue
mod 2.
"""

from __future__ import annotations


class CartanData:
    """The Cartan datum of sl2; "A1" is the only type hlx computes for."""

    def __init__(self, name):
        if name != "A1":
            raise ValueError("only Cartan type A1 (sl2) is supported, got %r" % (name,))

    def weight_class(self, mu):
        """The class of mu in P/Q = Z/2."""
        return mu % 2


def base_p_digits(lam, p):
    """Base-p digits of a dominant weight, least significant first; [] for 0."""
    if lam < 0:
        raise ValueError("weight must be dominant")
    digits = []
    while lam:
        digits.append(lam % p)
        lam //= p
    return digits
