"""Cauchy-integral oracle for the exact layer past the Stirling-row oracle.

T_n(z)/n! is the coefficient of t^n in e^(z(e^t - 1)), so for z = -x < 0

    T_n(-x)/n! = (1/2 pi i) oint e^(-x(e^t - 1)) t^(-n-1) dt
               = (1/N) sum_k e^(-x(e^(t_k) - 1)) t_k^(-n),

t_k = r e^(2 pi i k/N), by the trapezoid rule, which converges geometrically
on a circle. The radius r = |W_0(-n/x)| is the modulus of the saddle of
e^(-x e^t) t^(-n) (t e^t = -n/x) that the circle runs through. The
integrand takes conjugate values at t_k and t_(N-k), so the sum needs only
the N/2 + 1 nodes with 0 <= k <= N/2, and the nodes of N are every other
node of 2N. N doubles from 1024 until two sums agree to 10^-(d+5) of the
last. The loss log10(max |integrand| / |sum|) counts the digits the sum
cancels (Trefethen and Weideman, SIAM Review 56, 2014); the sum runs at
d + GUARD digits, which covers it.
"""
from mpmath import mp, mpf

GUARD = 20
FIRST_NODES = 1024
MAX_NODES = 1 << 16


def cauchy_scaled_touchard(n: int, x, digits: int):
    """(T_n(-x)/n! at digits + GUARD, nodes N, loss in digits) for x > 0,
    x taken as scaled_touchard takes it."""
    with mp.workdps(digits + GUARD):
        x = mpf(x)
        r = abs(mp.lambertw(-n / x))

        def node(k, nodes):
            # e^(-x(e^t - 1)) (t/r)^(-n); the common r^(-n) comes last
            theta = 2 * mp.pi * k / nodes
            return mp.exp(-x * (mp.exp(r * mp.expj(theta)) - 1)
                          - 1j * n * theta)

        nodes = FIRST_NODES
        half = [node(k, nodes) for k in range(nodes // 2 + 1)]
        # k = 0 and N/2 are their own conjugates; the others stand for two
        total = 2 * sum(v.real for v in half) - half[0].real - half[-1].real
        biggest = max(abs(v) for v in half)
        mean = total / nodes
        while nodes < MAX_NODES:
            nodes *= 2
            new = [node(k, nodes) for k in range(1, nodes // 2, 2)]
            total += 2 * sum(v.real for v in new)
            biggest = max(biggest, *(abs(v) for v in new))
            last, mean = mean, total / nodes
            if abs(mean - last) <= mpf(10) ** -(digits + 5) * abs(mean):
                loss = float(mp.log10(biggest / abs(mean)))
                return mean / r ** n, nodes, loss
    raise ArithmeticError(f"no agreement within {MAX_NODES} nodes")
