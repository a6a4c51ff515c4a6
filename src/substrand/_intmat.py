"""Exact integer matrix helpers (Python ints, no floating point).

Used wherever letter-count bookkeeping must stay exact: characteristic
polynomials, path values in the prefix automaton, finite-sums generators.
"""

from __future__ import annotations


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n, m, k = len(a), len(b[0]), len(b)
    bt = [[b[r][c] for r in range(k)] for c in range(m)]
    return [[sum(ar[j] * bc[j] for j in range(k)) for bc in bt] for ar in a]


class MatrixPowers:
    """Memoized powers of a square integer matrix, plus column sums.

    For an abelianization matrix M, column sum j of M^k is the exact
    length of the k-th image of letter j.
    """

    def __init__(self, matrix: list[list[int]]):
        self._powers: dict[int, list[list[int]]] = {0: identity(len(matrix)), 1: matrix}
        self._colsums: dict[int, list[int]] = {}

    def power(self, k: int) -> list[list[int]]:
        if k not in self._powers:
            # fill sequentially; exponents stay small at desk scale
            top = max(self._powers)
            for j in range(top + 1, k + 1):
                self._powers[j] = mat_mul(self._powers[j - 1], self._powers[1])
        return self._powers[k]

    def column_sums(self, k: int) -> list[int]:
        if k not in self._colsums:
            m = self.power(k)
            n = len(m)
            self._colsums[k] = [sum(m[i][j] for i in range(n)) for j in range(n)]
        return self._colsums[k]

    def image_length(self, k: int, counts: tuple[int, ...] | list[int]) -> int:
        """Exact length of the k-th image of any word with these letter counts."""
        sums = self.column_sums(k)
        return sum(s * c for s, c in zip(sums, counts))
