"""The fixed-point pass of the exact layer (stirling.py): the cut powers
j^n and the alternating sum over them, with a counted bound.

grid_sum makes, in one pass over j, the terms of
T_n(-x) = sum_{j=1..n} (-1)^j j^n t_j E_{n-j}, t_j = x^j/j! and
E_m = sum_{i<=m} t_i; stirling.py sizes the pass, certifies its sum and
reruns it.

Every t_j, E_m and j^n is positive, so the sum runs in Python ints at p bits:
x = man 2^exp is taken exactly from the mpf; t_j is a p-bit mantissa and an
exponent, two floors per step; E_m is the running sum of the t_i, a
mantissa of p + 2 bits and an exponent, each addition floored onto the
grid of the larger operand; j^n is cut to p bits, taken for a prime q as
the exact q ** n and for a composite j = a b as the cut product of the cut
a^n and b^n; u_j = j^n t_j is cut to p bits; and each term u_j E_{n-j} is
rounded down onto a common grid of 2^g. The pass goes up in j and closes
the terms of j and n - j together past the middle; t_j for j < n/2 is then
taken again, down from t_{ceil(n/2)} by t_{j-1} = t_j j/x, two floors a step,
so that only E_j and j^n are held for j < n/2. Every floor only lowers a
positive quantity, and no int outlives its step wider than about 2p bits,
whatever the size of x. t_j comes out low by under 4j 2^-p of itself going
up and 4(n + 1 - j) 2^-p coming down; an addition to E loses under 2^-p of
the partial sum, which is at most E_m, so E_m is low by under 5m 2^-p; and
each cut loses under 2 2^-p. 1^n is exact, and j^n for j >= 2 with Omega(j)
prime factors takes 2 Omega(j) - 1 cuts, so it is low by under c_j 2^-p
with c_1 = 0 and c_j = 4 Omega(j) - 2 <= j + 2 (equal at j = 4 and 8).
With one more cut for u_j, term j is low by under
(c_j + 4j + 2 + 5(n - j)) 2^-p <= (5n + 4) 2^-p of itself when t_j is
taken going up, and by under (c_j + 4(n + 1 - j) + 2 + 5(n - j)) 2^-p
<= (9n - 3) 2^-p coming down, each plus one grid unit: every term is low
by at most 9n 2^-p of itself plus one grid unit, and the sum of the n terms
with absolute sum A on the grid misses T_n(-x) 2^-g by at most
counted_bound(9n, n + 1, p, A) grid units.
"""
from __future__ import annotations

import math
from collections.abc import Iterator


def _top(v: int, bits: int) -> tuple[int, int]:
    """(v >> s, s) with s >= 0 the least shift that leaves at most `bits` bits."""
    s = v.bit_length() - bits
    return (v >> s, s) if s > 0 else (v, 0)


def _shift(v: int, s: int) -> int:
    """floor(v 2^s)."""
    return v << s if s >= 0 else v >> -s


def smallest_prime_factors(n: int) -> list[int]:
    """spf[j], the least prime factor of j, for j = 0..n; spf[j] = j for j < 2.

    Each q from isqrt(n) down to 2 marks its multiples from q^2 on. A
    composite q marks some wrongly, but its least prime factor comes later
    and marks them again.
    """
    spf = list(range(n + 1))
    for q in range(math.isqrt(n), 1, -1):
        spf[q * q::q] = [q] * ((n - q * q) // q + 1)
    return spf


def cut_powers(n: int, p: int) -> Iterator[tuple[int, int]]:
    """j^n for j = 0..n in order, each as (m, e) with m of at most p bits.

    A prime's power is the exact q ** n cut to p bits. A composite j = a b,
    with a its least prime factor, is the product of the cut a^n and b^n, cut
    again. Both factors are at most j/2, so only the powers of j <= n/2 are
    held. Each cut lowers what it cuts by under 2^(1-p) of it, and j^n for
    j >= 2 takes 2 Omega(j) - 1 cuts, Omega(j) its number of prime factors,
    so j^n (1 - (4 Omega(j) - 2) 2^-p) < m 2^e <= j^n; 0^n and 1^n are exact.
    """
    spf = smallest_prime_factors(n)
    held = []
    for j in range(n + 1):
        q = spf[j]
        if q == j:  # 0, 1 and the primes
            m, e = _top(j ** n, p)
        else:
            am, ae = held[q]
            bm, be = held[j // q]
            m, e = _top(am * bm, p)
            e += ae + be
        if 2 * j <= n:
            held.append((m, e))
        yield m, e


def grid_sum(n: int, man: int, exp: int, p: int, g: int) -> tuple[int, int]:
    """(S, A): S = sum_j (-1)^j R_j and A = sum_j R_j over j = 1..n, where
    R_j is j^n t_j E_{n-j} at x = man 2^exp rounded down to units of 2^g.

    One pass over k makes t_k, E_k and the cut power k^n. The term of j
    pairs u_j = j^n t_j with E_{n-j}, so for 2k < n the pass holds E_k
    beside the k^n that cut_powers holds anyway, and each later k closes
    the terms of k and of n - k. The t_{n-k} of the second comes from
    t_{m-1} = t_m m/x, run down from the middle: held, it would add a third
    list of about n/2 p-bit ints.
    """
    half = (n + 1) // 2
    held = []
    tm, te = 1 << (p - 1), 1 - p  # t_k = tm 2^te, tm of p bits
    em, ee = 0, te                # E_k = em 2^ee
    s = a = 0
    mb = man.bit_length() + 1  # keeps each quotient t_(m+1) (m+1)/x >= 2^p
    for k, (jm, je) in enumerate(cut_powers(n, p)):
        if k:
            kb = k.bit_length()
            tm, cut = _top((tm * man << kb) // k, p)
            te += exp - kb + cut
        # E_k = E_(k-1) + t_k, both floored onto the grid that leaves the
        # larger p + 2 bits
        b = max(ee + em.bit_length(), te + p) - p - 2
        em, ee = _shift(em, ee - b) + _shift(tm, te - b), b
        if k < half:
            held.append((jm, je, em, ee))
            continue
        if k == half:
            dm, de = tm, te  # t_m going down, from t_half
        um, ue = _top(jm * tm, p)
        ue += je + te
        m = n - k
        hjm, hje, hem, hee = held[m] if m < half else (jm, je, em, ee)
        r = _shift(um * hem, ue + hee - g)  # term k: u_k E_{n-k}
        a += r
        s += -r if k & 1 else r
        if 0 < m < half:
            # t_m = t_(m+1) (m+1)/x, two floors
            dm, cut = _top((dm * (m + 1) << mb) // man, p)
            de += cut - mb - exp
            um, ue = _top(hjm * dm, p)
            r = _shift(um * em, ue + hje + de + ee - g)  # term m: u_m E_k
            a += r
            s += -r if m & 1 else r
    return s, a


def counted_bound(c: int, units: int, p: int, a: int) -> int:
    """Grid units by which a sum of floored terms, with absolute sum a, can
    miss its exact value when each term is off by at most c 2^-p <= 1/2 of
    itself plus its share of `units` grid units in all.

    The exact absolute sum is then at most 2 (a + units), so the sum misses
    by at most c (a + units) 2^(1-p) + units; one unit more covers the floor
    of the shift, and one is spare. The exact layer and both Airy passes
    count their roundings into this one form.
    """
    return (c * (a + units) >> (p - 1)) + units + 2
