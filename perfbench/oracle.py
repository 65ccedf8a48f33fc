"""Plaintext reference distances for checking the secure protocols.

Written from the definitions, independently of the repo's libraries: every
cost is the squared Euclidean distance between two elements, and DTW and
DFD are the usual dynamic programmes over the m x n cost matrix. A series is
a list of elements; an element is a tuple of ints (one per dimension).
"""

INF = float("inf")


def cost(a, b):
    return sum((u - v) * (u - v) for u, v in zip(a, b))


def sq_euclidean(x, y):
    if len(x) != len(y):
        raise ValueError("squared Euclidean needs equal lengths")
    return sum(cost(a, b) for a, b in zip(x, y))


def dtw(x, y, band=None):
    """DTW with squared costs; with band, cells with |i - j| > band are
    unreachable. Returns None when no warping path fits the band."""
    m, n = len(x), len(y)
    d = [[INF] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if band is not None and abs(i - j) > band:
                continue
            c = cost(x[i], y[j])
            if i == 0 and j == 0:
                d[i][j] = c
                continue
            best = min(
                d[i - 1][j] if i > 0 else INF,
                d[i][j - 1] if j > 0 else INF,
                d[i - 1][j - 1] if i > 0 and j > 0 else INF,
            )
            d[i][j] = c + best
    return None if d[m - 1][n - 1] == INF else d[m - 1][n - 1]


def dfd(x, y):
    """Discrete Frechet distance with squared costs."""
    m, n = len(x), len(y)
    d = [[INF] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            c = cost(x[i], y[j])
            if i == 0 and j == 0:
                d[i][j] = c
                continue
            best = min(
                d[i - 1][j] if i > 0 else INF,
                d[i][j - 1] if j > 0 else INF,
                d[i - 1][j - 1] if i > 0 and j > 0 else INF,
            )
            d[i][j] = max(c, best)
    return d[m - 1][n - 1]


def distance(algo, x, y, band=None):
    if algo == "dtw":
        return dtw(x, y, band)
    if algo == "dfd":
        if band is not None:
            raise ValueError("banded DFD is not used by the benchmark")
        return dfd(x, y)
    if algo == "euclidean":
        return sq_euclidean(x, y)
    raise ValueError("unknown distance " + algo)
