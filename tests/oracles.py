"""Brute force reference implementations used to cross-check the package.

Everything here is written from the definitions, with none of the package's
data structures or algorithms, so an agreement between the two is evidence
rather than tautology.
"""

from collections import Counter
from fractions import Fraction


def partitions_desc(n, limit=None):
    """All partitions of n as weakly decreasing tuples, descending lex order."""
    if limit is None:
        limit = n
    if n == 0:
        yield ()
        return
    for first in range(min(limit, n), 0, -1):
        for rest in partitions_desc(n - first, first):
            yield (first,) + rest


def avoids_divisors(parts, divisors):
    return all(p % d != 0 for p in parts for d in divisors)


def in_class_regular(parts, moduli):
    return avoids_divisors(parts, moduli)


def in_regular(parts, head, tail):
    if not avoids_divisors(parts, tail):
        return False
    return all(m < head for m in Counter(parts).values())


def in_inferior(parts, head, tail):
    if not avoids_divisors(parts, tail):
        return False
    return sum(1 for m in Counter(parts).values() if m >= head) == 1


def count_congruent_parts(parts, modulus, residue):
    """Parts congruent to the residue modulo the modulus, with multiplicity."""
    return sum(1 for p in parts if p % modulus == residue)


def count_repeated_sizes(parts, threshold):
    """Distinct part sizes occurring at least ``threshold`` times."""
    return sum(1 for m in Counter(parts).values() if m >= threshold)


def merge_fully(parts, r, choose):
    """Merge r copies of a size into one r-times part until none remains,
    picking the size to merge with ``choose``; returns (tuple, step count)."""
    table = Counter(parts)
    steps = 0
    while True:
        eligible = [k for k, v in table.items() if v >= r]
        if not eligible:
            break
        k = choose(eligible)
        table[k] -= r
        if not table[k]:
            del table[k]
        table[r * k] += 1
        steps += 1
    flat = []
    for k in sorted(table, reverse=True):
        flat.extend([k] * table[k])
    return tuple(flat), steps


def merge_count_closed_form(parts, r):
    """Sum over sizes of floor(m / r) + floor(m / r^2) + ... for mult m."""
    total = 0
    for m in Counter(parts).values():
        power = r
        while power <= m:
            total += m // power
            power *= r
    return total


def pentagonal_coefficients(trunc):
    """Coefficients of the product of (1 - q^k) from the pentagonal number
    theorem: exponents k(3k -+ 1)/2 with sign (-1)^k."""
    coeffs = [0] * (trunc + 1)
    coeffs[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= trunc:
        sign = -1 if k % 2 else 1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= trunc:
                coeffs[g] += sign
        k += 1
    return coeffs


def factor_product(trunc, forbidden=(), tail=None):
    """The product of 1 / (1 - q^k) over every k >= 1 that no forbidden
    modulus divides, times ``tail`` (1 when None), up to q^trunc: one
    rising pass c[d] += c[d - k] per factor."""
    coeffs = [1] + [0] * trunc if tail is None else list(tail)
    for k in range(1, trunc + 1):
        if all(k % m != 0 for m in forbidden):
            for d in range(k, trunc + 1):
                coeffs[d] += coeffs[d - k]
    return coeffs


def naive_mul(a, b, trunc):
    out = [0] * (trunc + 1)
    for i, x in enumerate(a[:trunc + 1]):
        for j, y in enumerate(b[:trunc + 1 - i]):
            out[i + j] += x * y
    return out


def naive_inverse(coeffs, trunc):
    """Invert by solving the convolution triangularly over the rationals."""
    out = [Fraction(0)] * (trunc + 1)
    out[0] = Fraction(1, coeffs[0])
    for d in range(1, trunc + 1):
        acc = Fraction(0)
        for k in range(1, d + 1):
            if k < len(coeffs):
                acc += coeffs[k] * out[d - k]
        out[d] = -acc / coeffs[0]
    return out
