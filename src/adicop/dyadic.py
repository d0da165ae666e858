"""Arithmetic of the group D = direct sum of Z/2Z copies.

Group elements are integer bit masks over generator indices: bit i set
means generator g_i appears.  Addition is bitwise XOR, every element is
its own inverse, and D_n is exactly the set of masks below 2**n.

Digit sequences (alpha_1, alpha_2, ...) are indexed from 1; the embedding
tau sends g_i to the sequence with digit i+1 set, so digit j of tau(g)
is bit j-1 of the mask.
"""

from __future__ import annotations

N_MAX = 20


class ResolutionError(ValueError):
    """An element, digit carry or window index escaped the configured resolution."""


def check_mask(mask: int, n: int = N_MAX) -> int:
    if mask < 0 or mask >> n:
        raise ResolutionError(f"mask {mask} outside D_{n}")
    return mask


def add(a: int, b: int) -> int:
    return a ^ b


def in_group(mask: int, n: int) -> bool:
    return 0 <= mask < (1 << n)


def tau(mask: int, length: int | None = None) -> tuple[int, ...]:
    """Digit sequence of a group element: digit i (1-based) = bit i-1 of the mask."""
    check_mask(mask)
    if length is None:
        length = mask.bit_length()
    if mask >> length:
        raise ResolutionError(f"mask {mask} does not fit in {length} digits")
    return alpha_digits(mask, length)


def alpha_digits(value: int, length: int) -> tuple[int, ...]:
    """The digit codec: the first `length` digits of a mask (alpha_value packs)."""
    return tuple([(value >> i) & 1 for i in range(length)])


def alpha_value(digits) -> int:
    """The mask packing a digit sequence (digit i sets bit i-1), unchecked."""
    return sum(int(d) << i for i, d in enumerate(digits))


def successor(value: int, n: int) -> int:
    """The odometer on n packed digits: value + 1, undefined at all ones."""
    if value == (1 << n) - 1:
        raise ResolutionError("odometer undefined at this resolution (all-ones digits)")
    return value + 1


def check_bits(digits) -> tuple[int, ...]:
    """The digits as a tuple of ints; ValueError unless every one is a bit."""
    digits = tuple(digits)
    if not {0, 1}.issuperset(digits):
        raise ValueError(f"digits {digits} are not all bits")
    return tuple(map(int, digits))


def tau_inv(digits) -> int:
    """Inverse of tau on finite digit sequences."""
    return check_mask(alpha_value(check_bits(digits)))


def sigma_extend(sigma, n: int) -> tuple[int, ...]:
    """Pad a finite sigma with zeros up to length n (extra generators act inside D^sigma)."""
    sigma = tuple(sigma)
    if len(sigma) >= n:
        return sigma[:n]
    return sigma + (0,) * (n - len(sigma))


def coset_index(g: int, sigma, n: int) -> int:
    """Canonical index of g's coset of (D^sigma intersect D_n) inside D_n.

    Two elements share an index iff they differ by an element generated by
    the g_i with sigma_i = 0.  The index packs the bits of g at positions
    with sigma_i = 1, in increasing position order, so the range is exactly
    {0, ..., 2**sum(sigma_i, i<n) - 1}.
    """
    if not in_group(g, n):
        raise ResolutionError(f"element {g} outside D_{n}")
    sigma = sigma_extend(sigma, n)
    idx = 0
    k = 0
    for i in range(n):
        if sigma[i]:
            idx |= ((g >> i) & 1) << k
            k += 1
    return idx


def coset_count(sigma, n: int) -> int:
    return 1 << sum(sigma_extend(sigma, n))
