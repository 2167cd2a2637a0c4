"""The residue-mask matrix family, multiplicative coordinates, and the
deformed-factorial (umbral) matrices.

The mask matrix of modulus q and weight phi has entry 1 where
n mod q >= m mod q and phi elsewhere. Every nonzero generalized Pascal
truncation factors as a Hadamard product of mask matrices; the weights are
recovered from the first column by dividing out, for each modulus, the
weights of its proper divisors (Moebius inversion, done as a sieve).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from operator import ge

from .digits import digit_product_rows
from .errors import ZeroEntry
from .matrices import TriangularMatrix, all_ones, hadamard, pascal_rows
from .rationals import Value, lazy
from .report import Report, check_equal, merge_reports


def phi_q_matrix(phi: Fraction | int, q: int, size: int) -> TriangularMatrix:
    """Mask matrix: entry 1 if n mod q >= m mod q, else phi (phi may be 0).

    With phi = a/d, row n is the residue block of i = n mod q, d at the
    columns j <= i and a above, repeated and cut to n + 1 entries, over d.
    Only residues below k = min(q, size) occur, so a huge q costs no more
    than size."""
    if q < 2:
        raise ValueError("q must be >= 2")
    phi = Fraction(phi)
    a, d = phi.numerator, phi.denominator
    k = min(q, size)
    blocks = [(d,) * (i + 1) + (a,) * (k - 1 - i) for i in range(k)]  # tuples, so the rows cut from them are too
    return TriangularMatrix.from_view(d, [(blocks[n % q] * (n // q + 1))[: n + 1] for n in range(size)])


class PhiCoordinates(Value):
    """Weights beta_q per modulus, multiplicative stand-in for the log map.

    Stored as ``pairs``: q -> (a, d), beta_q = a / d in lowest terms with d >= 1, as
    phi_coordinates finds them and recompose reads them; ``betas`` is the same
    weights as a dict of Fractions, built on first read."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: dict[int, tuple[int, int]]):
        super().__init__(pairs)

    @lazy
    def betas(self) -> dict[int, Fraction]:
        return {q: Fraction(a, d) for q, (a, d) in self.pairs.items()}

    def recompose(self, size: int) -> TriangularMatrix:
        """Hadamard product of the mask matrices over all stored moduli; with
        no moduli it is the all-ones triangle.

        Built on common-denominator ints: with beta_q = a_q / d_q and
        D = prod_q d_q, entry (n, m) is
            prod_q (a_q if n mod q < m mod q else d_q) / D.
        A modulus q > n has n mod q = n >= m >= m mod q, so only q <= n can
        take the a_q branch; the moduli above n give the factor prod_{q > n} d_q.
        So coordinates through q = size are enough to rebuild the size x size
        truncation exactly.

        Each row is a palindrome: n mod q < m mod q exactly when
        n mod q < (n - m) mod q (both say the subtraction n - m borrows at the
        last base-q digit), so columns m and n - m take the same branch at
        every q. Only the columns m <= n/2 are computed; the rest are mirrored.
        """
        weights = [(q, a, d) for q, (a, d) in sorted(self.pairs.items())]
        den = prod(d for _, _, d in weights)
        above = den  # prod of d_q over the moduli q > n
        cut = 0  # weights[:cut] are the moduli q <= n
        rows = []
        for n in range(size):
            while cut < len(weights) and weights[cut][0] <= n:
                above //= weights[cut][2]
                cut += 1
            half = n // 2 + 1
            row = [above] * half
            for q, a, d in weights[:cut]:
                r = n % q
                row = [x * (a if r < m % q else d) for m, x in enumerate(row)]
            rows.append(row + row[: n + 1 - half][::-1])
        return TriangularMatrix.from_view(den, rows)

    def is_involution(self) -> bool:
        return all(d == 1 and a in (1, -1) for a, d in self.pairs.values())


def phi_coordinates(a: TriangularMatrix, max_q: int) -> PhiCoordinates:
    """Extract the mask weights of a nonzero generalized Pascal truncation.

    The first column b_n = (n, 1) satisfies b_n = prod_{d | n} beta_d with
    b_1 forced to 1, so beta_q = b_q / prod_{d | q, d < q} beta_d. A sieve
    over q = 2..max_q finds each beta_q on ints, with no Fraction: b_q is
    read off the integer view, the divisor products are kept as
    numerator/denominator pairs, and each beta_q is reduced by one gcd to
    the pair (a, d), d >= 1, whose parts are multiplied into the products of
    its multiples. That is O(max_q log max_q) products. Needs max_q < size
    so b_{max_q} is available, and a matrix with no zero first-column entries.
    """
    if max_q >= a.size:
        raise ValueError(f"max modulus {max_q} needs matrix size > {max_q}")
    den, rows = a.int_view()
    nums = [1] * (max_q + 1)  # nums[q] / dens[q]: the product of beta_d over the d | q found so far
    dens = [1] * (max_q + 1)
    pairs: dict[int, tuple[int, int]] = {}
    for q in range(2, max_q + 1):
        b = rows[q][1]
        if b == 0:
            raise ZeroEntry(f"b_{q} = 0: zero generalized Pascal matrix has no coordinates")
        x, y = b * dens[q], den * nums[q]
        g = gcd(x, y) if y > 0 else -gcd(x, y)  # the sign goes to the numerator
        pairs[q] = x, y = x // g, y // g
        for k in range(2 * q, max_q + 1, q):
            nums[k] *= x
            dens[k] *= y
    return PhiCoordinates(pairs)


def homomorphism_check(a: TriangularMatrix, b: TriangularMatrix, max_q: int) -> Report:
    """Coordinates of a Hadamard product are the products of coordinates, and
    all-involution coordinates force every entry to square to 1. A failing
    kernel is named in ``subsuite`` (``kernel-a``, ``kernel-b``, ``kernel-a*b``)
    with the squared entry as ``got``."""
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
    kernels = [
        check_equal(f"kernel-{name}", hadamard(matrix, matrix), all_ones(matrix.size))
        for name, matrix, coords in (("a", a, ca), ("b", b, cb), ("a*b", prod, cp))
        if coords.is_involution()
    ]
    return merge_reports("homomorphism", [Report("homomorphism", True, None, checked), *kernels])


def q_umbral_matrix(q: Fraction | int, size: int) -> TriangularMatrix:
    """Matrix whose column n expands x**n * prod_{m=0}^{n} 1/(1 - q**m x).

    q = 1 gives the ordinary Pascal matrix, q = 0 the all-ones triangle and
    q = -1 a zero generalized Pascal matrix.

    Built on ints: with q = a/d, entry (n, c) times d**((n-c)c) is the int
    T_c[n-c], where T_c[0] = 1 and T_c[k] = d**k T_{c-1}[k] + a**c T_c[k-1],
    the scaled division of column c-1's series by 1 - q**c x. The entries are
    put over d**E, with E the largest (n-c)c below size.
    """
    q = Fraction(q)
    a, d = q.numerator, q.denominator
    top = (size - 1) // 2 * (size // 2)  # E
    dk = [d**k for k in range(size)]
    rows = [[] for _ in range(size)]
    series = [1] + [0] * (size - 1)
    ac = 1  # a**c
    for c in range(size):
        for k in range(1, len(series)):
            series[k] = dk[k] * series[k] + ac * series[k - 1]
        if d == 1:  # every scale d**(top - kc) is 1
            for row, value in zip(rows[c:], series):
                row.append(value)
        else:
            for k, value in enumerate(series):
                rows[c + k].append(value * d ** (top - k * c))
        series.pop()  # column c + 1 needs one term fewer
        ac *= a
    return TriangularMatrix.from_view(d**top, rows)


def q_umbral_inverse(q: Fraction | int, size: int) -> TriangularMatrix:
    """Matrix whose row n is the polynomial prod_{m=0}^{n-1} (x - q**m).

    Built on ints: with q = a/d, row n times d**(n(n-1)/2) is the integer
    polynomial prod_{m<n} (d**m x - a**m). The rows are put over
    d**((size-1)(size-2)/2), the largest of those scales.
    """
    q = Fraction(q)
    a, d = q.numerator, q.denominator
    top = (size - 1) * (size - 2) // 2
    rows = []
    current = [1]
    an = dn = 1  # a**n, d**n
    for n in range(size):
        if d == 1:  # every row scale is 1; current is rebound below, never changed in place
            rows.append(current)
        else:
            scale = d ** (top - n * (n - 1) // 2)
            rows.append([c * scale for c in current])
        # coefficient i of current * (d**n x - a**n)
        current = [x * dn - y * an for x, y in zip([0, *current], [*current, 0])]
        an *= a
        dn *= d
    return TriangularMatrix.from_view(d**top, rows)


def zero_overlay_matrix(q: int, size: int) -> TriangularMatrix:
    """Mask of modulus q applied to the matrix of c(x) = (1+...+x^{q-1}) e^{x^q}.

    c_{qn+i} = 1/n!, so the surviving entries are ordinary binomials of the
    block indices: entry (qn+i, qm+j) = C(n,m) for i >= j and 0 for i < j.
    So row r is the digit row recursion with top the Pascal row r div q and
    the one-digit dominance block i >= j.
    """
    if q < 2:
        raise ValueError("q must be >= 2")  # before the division below
    pascal = pascal_rows((size + q - 1) // q)
    return TriangularMatrix.from_view(1, digit_product_rows(q, size, ge, top=pascal))
