"""The residue-mask matrix family, multiplicative coordinates, and the
deformed-factorial (umbral) matrices.

The mask matrix of modulus q and weight phi has entry 1 where
n mod q >= m mod q and phi elsewhere. Every nonzero generalized Pascal
truncation factors as a Hadamard product of mask matrices; the weights are
recovered by Moebius inversion over the divisor lattice of each modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import ZeroEntry, ZeroPhi
from .matrices import TriangularMatrix, build_from_c, first_column_b, hadamard
from .polynomials import geometric, mul_trunc
from .rationals import ONE, ZERO
from .report import Report
from .sequences import CSequence


def phi_q_matrix(phi: Fraction | int, q: int, size: int) -> TriangularMatrix:
    """Mask matrix: entry 1 if n mod q >= m mod q, else phi (phi may be 0)."""
    if q < 2:
        raise ValueError("q must be >= 2")
    phi = Fraction(phi)
    return TriangularMatrix.from_fn(size, lambda n, m: ONE if n % q >= m % q else phi)


def phi_q_series(phi: Fraction | int, q: int) -> CSequence:
    """Coefficient sequence of the mask matrix: c_{qn+i} = phi**(-n), 0 <= i < q."""
    if q < 2:
        raise ValueError("q must be >= 2")
    phi = Fraction(phi)
    if phi == 0:
        raise ZeroPhi("the coefficient series is not defined for phi = 0")
    return CSequence(f"phi_q({phi},{q})", lambda n: ONE / phi ** (n // q))


def _mobius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


@dataclass(frozen=True)
class PhiCoordinates:
    """Weights beta_q per modulus, multiplicative stand-in for the log map."""

    betas: dict[int, Fraction]

    @property
    def max_modulus(self) -> int:
        return max(self.betas) if self.betas else 1

    def recompose(self, size: int) -> TriangularMatrix:
        """Hadamard product of the mask matrices over all stored moduli,
        streamed per entry; with no moduli it is the all-ones triangle.

        Moduli q > size leave the block untouched (n mod q = n >= m there), so
        coordinates through q = size are enough to rebuild the size x size
        truncation exactly.
        """
        from .specs import GPSpec  # specs imports this module

        masks = [GPSpec.phiq(beta, q) for q, beta in sorted(self.betas.items())]
        return GPSpec.hadamard(masks).materialize(size)

    def is_involution(self) -> bool:
        return all(beta in (1, -1) for beta in self.betas.values())


def phi_coordinates(a: TriangularMatrix, max_q: int) -> PhiCoordinates:
    """Extract the mask weights of a nonzero generalized Pascal truncation.

    beta_q = prod_{d | q} b_d ** mu(q/d) with b the first column; Moebius
    inversion of b_n = prod_{d | n} beta_d. Needs max_q < size so b_{max_q}
    is available, and a matrix with no zero first-column entries.
    """
    if max_q >= a.size:
        raise ValueError(f"max modulus {max_q} needs matrix size > {max_q}")
    b = first_column_b(a)
    for n in range(1, max_q + 1):
        if b[n] == 0:
            raise ZeroEntry(f"b_{n} = 0: zero generalized Pascal matrix has no coordinates")
    betas: dict[int, Fraction] = {}
    for q in range(2, max_q + 1):
        beta = ONE
        for d in range(1, q + 1):
            if q % d:
                continue
            mu = _mobius(q // d)
            if mu == 1:
                beta *= b[d]
            elif mu == -1:
                beta /= b[d]
        betas[q] = beta
    return PhiCoordinates(betas)


def homomorphism_check(a: TriangularMatrix, b: TriangularMatrix, max_q: int) -> Report:
    """Coordinates of a Hadamard product are the products of coordinates, and
    all-involution coordinates force every entry into {1,-1}."""
    ca = phi_coordinates(a, max_q)
    cb = phi_coordinates(b, max_q)
    prod = hadamard(a, b)
    cp = phi_coordinates(prod, max_q)
    checked = 0
    for q in range(2, max_q + 1):
        checked += 1
        if cp.betas[q] != ca.betas[q] * cb.betas[q]:
            return Report(
                "homomorphism",
                False,
                {"q": q, "left": str(cp.betas[q]), "right": str(ca.betas[q] * cb.betas[q])},
                checked,
            )
    for name, matrix, coords in (("a", a, ca), ("b", b, cb), ("a*b", prod, cp)):
        if not coords.is_involution():
            continue
        for n in range(matrix.size):
            for m in range(n + 1):
                checked += 1
                if matrix.rows[n][m] not in (1, -1):
                    return Report(
                        "homomorphism",
                        False,
                        {"kernel": name, "n": n, "m": m, "value": str(matrix.rows[n][m])},
                        checked,
                    )
    return Report("homomorphism", True, None, checked)


def q_umbral_matrix(q: Fraction | int, size: int) -> TriangularMatrix:
    """Matrix whose column n expands x**n * prod_{m=0}^{n} 1/(1 - q**m x).

    q = 1 gives the ordinary Pascal matrix, q = 0 the all-ones triangle and
    q = -1 a zero generalized Pascal matrix.
    """
    q = Fraction(q)
    degree = size - 1
    entries = [[ZERO] * (n + 1) for n in range(size)]
    series = [ONE] + [ZERO] * degree
    for col in range(size):
        series = mul_trunc(series, geometric(q**col, degree), degree)
        for row in range(col, size):
            entries[row][col] = series[row - col]
    return TriangularMatrix(entries)


def q_umbral_inverse(q: Fraction | int, size: int) -> TriangularMatrix:
    """Matrix whose row n is the polynomial prod_{m=0}^{n-1} (x - q**m)."""
    q = Fraction(q)
    rows = []
    current = [ONE]
    for n in range(size):
        rows.append(current[:])
        nxt = [ZERO] * (len(current) + 1)
        ratio = q**n
        for i, c in enumerate(current):
            nxt[i + 1] += c
            nxt[i] -= c * ratio
        current = nxt
    return TriangularMatrix(rows)


def zero_overlay_matrix(q: int, size: int) -> TriangularMatrix:
    """Mask of modulus q applied to the matrix of c(x) = (1+...+x^{q-1}) e^{x^q}.

    c_{qn+i} = 1/n!, so the surviving entries are ordinary binomials of the
    block indices: entry (qn+i, qm+j) = C(n,m) for i >= j and 0 for i < j.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    coeffs = [Fraction(1, factorial(n // q)) for n in range(size)]
    base = build_from_c(CSequence.explicit(coeffs), size)
    return hadamard(phi_q_matrix(0, q, size), base)
