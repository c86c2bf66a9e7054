"""Planar homography estimation and court-coordinate projection.

Pixel points from the broadcast frame are mapped onto a metric court plane
whose origin sits at the near-left doubles corner, x running across the court
and y toward the far baseline.  Estimation is the direct linear transform over
point correspondences, with Hartley-style isotropic normalization, solved by
a one-sided Jacobi SVD.
"""

from __future__ import annotations

import math
from operator import mul

from .match_model import frozen

# Standard court dimensions in meters.
DOUBLES_WIDTH = 10.97
COURT_LENGTH = 23.77
SINGLES_WIDTH = 8.23
SERVICE_LINE_FROM_NET = 6.40

NET_Y = COURT_LENGTH / 2.0
SINGLES_MARGIN = (DOUBLES_WIDTH - SINGLES_WIDTH) / 2.0
NEAR_SERVICE_Y = NET_Y - SERVICE_LINE_FROM_NET
FAR_SERVICE_Y = NET_Y + SERVICE_LINE_FROM_NET
CENTER_X = DOUBLES_WIDTH / 2.0


class InsufficientPoints(ValueError):
    """Fewer than four correspondences were supplied."""


class DegenerateConfiguration(ValueError):
    """The correspondences do not determine a unique homography."""


class AtInfinity(ValueError):
    """The projected point lies on (or numerically at) the line at infinity."""


@frozen
class PixelPoint:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"pixel coordinates must be finite: ({self.x}, {self.y})")


@frozen
class CourtPoint:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"court coordinates must be finite: ({self.x}, {self.y})")


@frozen
class Homography:
    """3x3 projective map, unit Frobenius norm, bottom-right entry positive
    when it is meaningfully nonzero."""

    matrix: tuple[tuple[float, float, float], ...]

    @classmethod
    def from_array(cls, m) -> "Homography":
        """The canonical form of any 3x3 nested sequence of numbers, a 2-D array
        too; a malformed or singular matrix raises ``ValueError``."""
        try:
            rows = [[float(x) for x in row] for row in m]
        except TypeError:  # a flat sequence, or an entry that is not a number
            raise ValueError(f"homography must be a 3x3 matrix, got {m!r}") from None
        widths = {len(row) for row in rows}
        if len(rows) != 3 or widths != {3}:
            shape = (len(rows), *widths) if len(widths) < 2 else "ragged rows"
            raise ValueError(f"homography must be 3x3, got {shape}")
        flat = rows[0] + rows[1] + rows[2]
        norm = math.sqrt(sum(map(mul, flat, flat)))
        if norm == 0.0 or not math.isfinite(norm):
            raise DegenerateConfiguration("zero or non-finite homography matrix")
        anchor = rows[2][2] if abs(rows[2][2]) > 1e-12 * norm else max(flat, key=abs)
        scale = (1.0 if anchor > 0 else -1.0) / norm
        m = tuple(tuple(x * scale for x in row) for row in rows)
        (a, b, c), (d, e, f), (g, h, i) = m
        if abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) < 1e-12:
            raise DegenerateConfiguration("homography matrix is singular")
        return cls(matrix=m)

    def inverse(self) -> "Homography":
        # the adjugate: the inverse times the determinant, which the
        # canonical form divides out
        (a, b, c), (d, e, f), (g, h, i) = self.matrix
        return Homography.from_array((
            (e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d)))


def _normalization(points) -> tuple[float, float, float]:
    """``(scale, cx, cy)`` of the similarity taking the centroid ``(cx, cy)``
    to the origin and the mean distance to sqrt(2)."""
    cx = sum(x for x, _ in points) / len(points)
    cy = sum(y for _, y in points) / len(points)
    mean = sum(math.hypot(x - cx, y - cy) for x, y in points) / len(points)
    return (math.sqrt(2.0) / mean if mean > 0 else 1.0), cx, cy


def _jacobi_svd(columns):
    """``(singular value, right singular vector)`` pairs of the matrix with
    these columns, largest first, by one-sided Jacobi (Hestenes 1958): plane
    rotations, accumulated in V, orthogonalize the columns of A V pair by pair;
    their norms are then the singular values.  A pair counts as orthogonal
    once ``|a_i . a_j| <= 1e-15 max(|a_i|^2, |a_j|^2)``: measured against the
    larger column, a column in an exact null space stops rotating instead of
    shrinking forever."""
    a = [list(col) for col in columns]
    n = len(a)
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(30):  # LAPACK's sweep limit; a 9-column system takes ~7
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                gamma = sum(map(mul, a[i], a[j]))
                alpha, beta = sum(map(mul, a[i], a[i])), sum(map(mul, a[j], a[j]))
                if abs(gamma) <= 1e-15 * max(alpha, beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                for m in (a, v):
                    mi, mj = m[i], m[j]
                    m[i] = [c * x - s * y for x, y in zip(mi, mj)]
                    m[j] = [s * x + c * y for x, y in zip(mi, mj)]
        if not rotated:
            break
    return sorted(((math.sqrt(sum(map(mul, col, col))), vec)
                   for col, vec in zip(a, v)), key=lambda sv: -sv[0])


def _collinear(p, q, r, tol=1e-9) -> bool:
    area = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return abs(area) < tol


def estimate_homography(pairs) -> Homography:
    """Least-squares DLT fit of pixel -> court correspondences.

    Needs at least 4 pairs; with exactly 4, no three court points may be
    collinear.  The solution is the smallest right singular direction of the
    stacked 2n x 9 system, denormalized and brought to canonical form.
    """
    pairs = list(pairs)
    if len(pairs) < 4:
        raise InsufficientPoints(f"need at least 4 correspondences, got {len(pairs)}")
    px = [(p.x, p.y) for p, _ in pairs]
    ct = [(c.x, c.y) for _, c in pairs]
    if len(pairs) == 4:
        for i in range(4):
            if _collinear(*(ct[j] for j in range(4) if j != i)):
                raise DegenerateConfiguration("three of the court points are collinear")
    s_px, px_cx, px_cy = _normalization(px)
    s_ct, ct_cx, ct_cy = _normalization(ct)
    rows = []
    for (x, y), (u, v) in zip(px, ct):
        x, y = s_px * (x - px_cx), s_px * (y - px_cy)
        u, v = s_ct * (u - ct_cx), s_ct * (v - ct_cy)
        rows.append((-x, -y, -1.0, 0.0, 0.0, 0.0, x * u, y * u, u))
        rows.append((0.0, 0.0, 0.0, -x, -y, -1.0, x * v, y * v, v))
    svd = _jacobi_svd(zip(*rows))
    # A rank-deficient system leaves more than a one-dimensional null space.
    if len(rows) >= 9 and svd[7][0] < 1e-9 * max(svd[0][0], 1.0):
        raise DegenerateConfiguration("correspondences admit no unique solution")
    # H = T_ct^-1 N T_px, N the null vector as a 3x3 matrix, m = N T_px and
    # T = [[s, 0, -s cx], [0, s, -s cy], [0, 0, 1]]
    n = svd[-1][1]
    m = [(s_px * n[r], s_px * n[r + 1], n[r + 2] - s_px * (n[r] * px_cx + n[r + 1] * px_cy))
         for r in (0, 3, 6)]
    return Homography.from_array([[x / s_ct + ct_cx * z for x, z in zip(m[0], m[2])],
                                  [y / s_ct + ct_cy * z for y, z in zip(m[1], m[2])], m[2]])


def project(h: Homography, p: PixelPoint) -> CourtPoint:
    """Homogeneous transform followed by a perspective divide."""
    (a, b, c), (d, e, f), (g, k, i) = h.matrix
    w = g * p.x + k * p.y + i
    if abs(w) < 1e-12:
        raise AtInfinity(f"point ({p.x}, {p.y}) maps to infinity")
    return CourtPoint(x=(a * p.x + b * p.y + c) / w, y=(d * p.x + e * p.y + f) / w)


def reprojection_error(h: Homography, pairs) -> float:
    """Root-mean-square distance in meters between projected pixels and
    their court targets."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one correspondence")
    total = 0.0
    for pixel, court in pairs:
        mapped = project(h, pixel)
        total += (mapped.x - court.x) ** 2 + (mapped.y - court.y) ** 2
    return math.sqrt(total / len(pairs))


# ---------------------------------------------------------------------------
# Canonical court model
# ---------------------------------------------------------------------------


def _keypoints() -> dict[str, CourtPoint]:
    left, right = SINGLES_MARGIN, DOUBLES_WIDTH - SINGLES_MARGIN
    return {
        "near_left_doubles": CourtPoint(0.0, 0.0),
        "near_right_doubles": CourtPoint(DOUBLES_WIDTH, 0.0),
        "far_left_doubles": CourtPoint(0.0, COURT_LENGTH),
        "far_right_doubles": CourtPoint(DOUBLES_WIDTH, COURT_LENGTH),
        "near_left_singles": CourtPoint(left, 0.0),
        "near_right_singles": CourtPoint(right, 0.0),
        "far_left_singles": CourtPoint(left, COURT_LENGTH),
        "far_right_singles": CourtPoint(right, COURT_LENGTH),
        "near_service_left": CourtPoint(left, NEAR_SERVICE_Y),
        "near_service_right": CourtPoint(right, NEAR_SERVICE_Y),
        "far_service_left": CourtPoint(left, FAR_SERVICE_Y),
        "far_service_right": CourtPoint(right, FAR_SERVICE_Y),
        "near_service_center": CourtPoint(CENTER_X, NEAR_SERVICE_Y),
        "far_service_center": CourtPoint(CENTER_X, FAR_SERVICE_Y),
    }


@frozen
class CourtModel:
    """The 14 named line intersections of a regulation court."""

    keypoints: tuple[tuple[str, CourtPoint], ...] = tuple(_keypoints().items())

    def point(self, name: str) -> CourtPoint:
        return dict(self.keypoints)[name]

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.keypoints)


REGIONS = ("singles", "doubles", "near_service_boxes", "far_service_boxes")

_REGION_BOUNDS = {
    "doubles": (0.0, DOUBLES_WIDTH, 0.0, COURT_LENGTH),
    "singles": (SINGLES_MARGIN, DOUBLES_WIDTH - SINGLES_MARGIN, 0.0, COURT_LENGTH),
    "near_service_boxes": (SINGLES_MARGIN, DOUBLES_WIDTH - SINGLES_MARGIN,
                           NEAR_SERVICE_Y, NET_Y),
    "far_service_boxes": (SINGLES_MARGIN, DOUBLES_WIDTH - SINGLES_MARGIN,
                          NET_Y, FAR_SERVICE_Y),
}


def in_bounds(p: CourtPoint, region: str) -> bool:
    """Inclusive rectangle containment against the court constants."""
    if region not in _REGION_BOUNDS:
        raise ValueError(f"unknown region: {region!r}, expected one of {REGIONS}")
    x_lo, x_hi, y_lo, y_hi = _REGION_BOUNDS[region]
    return x_lo <= p.x <= x_hi and y_lo <= p.y <= y_hi
