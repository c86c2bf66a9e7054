"""Planar homography estimation and court-coordinate projection.

Pixel points from the broadcast frame are mapped onto a metric court plane
whose origin sits at the near-left doubles corner, x running across the court
and y toward the far baseline.  Estimation is the direct linear transform over
point correspondences with Hartley-style isotropic normalization for
conditioning.
"""

from __future__ import annotations

import numpy as np

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
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise ValueError(f"pixel coordinates must be finite: ({self.x}, {self.y})")


@frozen
class CourtPoint:
    x: float
    y: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise ValueError(f"court coordinates must be finite: ({self.x}, {self.y})")


@frozen
class Homography:
    """3x3 projective map, unit Frobenius norm, bottom-right entry positive
    when it is meaningfully nonzero."""

    matrix: tuple[tuple[float, float, float], ...]

    @classmethod
    def from_array(cls, m: np.ndarray) -> "Homography":
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"homography must be 3x3, got {m.shape}")
        norm = np.linalg.norm(m)
        if norm == 0.0 or not np.isfinite(norm):
            raise DegenerateConfiguration("zero or non-finite homography matrix")
        m = m / norm
        anchor = m[2, 2]
        if abs(anchor) <= 1e-12:
            flat = m.ravel()
            anchor = flat[np.argmax(np.abs(flat))]
        if anchor < 0:
            m = -m
        if abs(np.linalg.det(m)) < 1e-12:
            raise DegenerateConfiguration("homography matrix is singular")
        return cls(matrix=tuple(tuple(float(x) for x in row) for row in m))

    def as_array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)

    def inverse(self) -> "Homography":
        return Homography.from_array(np.linalg.inv(self.as_array()))


def _normalization(points: np.ndarray) -> np.ndarray:
    """Similarity transform taking the centroid to the origin and the mean
    distance to sqrt(2)."""
    centroid = points.mean(axis=0)
    dists = np.linalg.norm(points - centroid, axis=1)
    mean = dists.mean()
    scale = np.sqrt(2.0) / mean if mean > 0 else 1.0
    return np.array([
        [scale, 0.0, -scale * centroid[0]],
        [0.0, scale, -scale * centroid[1]],
        [0.0, 0.0, 1.0],
    ])


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
    px = np.array([[p.x, p.y] for p, _ in pairs], dtype=float)
    ct = np.array([[c.x, c.y] for _, c in pairs], dtype=float)

    if len(pairs) == 4:
        idx = range(4)
        for i in idx:
            others = [j for j in idx if j != i]
            if _collinear(ct[others[0]], ct[others[1]], ct[others[2]]):
                raise DegenerateConfiguration("three of the court points are collinear")

    t_px = _normalization(px)
    t_ct = _normalization(ct)
    px_h = np.column_stack([px, np.ones(len(pairs))]) @ t_px.T
    ct_h = np.column_stack([ct, np.ones(len(pairs))]) @ t_ct.T

    rows = []
    for (x, y, _), (u, v, _) in zip(px_h, ct_h):
        rows.append([-x, -y, -1.0, 0.0, 0.0, 0.0, x * u, y * u, u])
        rows.append([0.0, 0.0, 0.0, -x, -y, -1.0, x * v, y * v, v])
    system = np.array(rows)

    _, singulars, vt = np.linalg.svd(system)
    # A rank-deficient system leaves more than a one-dimensional null space.
    if len(singulars) >= 9 and singulars[7] < 1e-9 * max(singulars[0], 1.0):
        raise DegenerateConfiguration("correspondences admit no unique solution")
    h_norm = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_ct) @ h_norm @ t_px
    return Homography.from_array(h)


def project(h: Homography, p: PixelPoint) -> CourtPoint:
    """Homogeneous transform followed by a perspective divide."""
    vec = h.as_array() @ np.array([p.x, p.y, 1.0])
    if abs(vec[2]) < 1e-12:
        raise AtInfinity(f"point ({p.x}, {p.y}) maps to infinity")
    return CourtPoint(x=float(vec[0] / vec[2]), y=float(vec[1] / vec[2]))


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
    return float(np.sqrt(total / len(pairs)))


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
