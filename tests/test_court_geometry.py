"""Homography estimation, projection and court bounds tests."""

import numpy as np
import pytest

from courtside.court_geometry import (
    COURT_LENGTH,
    CourtModel,
    CourtPoint,
    DOUBLES_WIDTH,
    DegenerateConfiguration,
    AtInfinity,
    Homography,
    InsufficientPoints,
    PixelPoint,
    estimate_homography,
    in_bounds,
    project,
    reprojection_error,
)


def random_homography(rng):
    while True:
        m = rng.normal(size=(3, 3))
        m[2, 2] = 3.0 + abs(m[2, 2])
        if abs(np.linalg.det(m)) > 0.1 and np.linalg.cond(m) < 50.0:
            return Homography.from_array(m)


def exact_pairs(h, rng, n):
    pairs = []
    while len(pairs) < n:
        p = PixelPoint(float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)))
        try:
            pairs.append((p, project(h, p)))
        except AtInfinity:
            continue
    return pairs


class TestEstimate:
    def test_identity_from_equal_pairs(self):
        pairs = [(PixelPoint(x, y), CourtPoint(x, y))
                 for x, y in [(0, 0), (10, 0), (0, 20), (10, 20)]]
        h = estimate_homography(pairs).as_array()
        expected = np.eye(3) / np.sqrt(3.0)
        assert np.allclose(h, expected, atol=1e-9)

    def test_translation_recovered(self):
        pairs = [(PixelPoint(x, y), CourtPoint(x + 2, y + 3))
                 for x, y in [(0, 0), (8, 1), (2, 9), (7, 7)]]
        h = estimate_homography(pairs).as_array()
        expected = np.array([[1, 0, 2], [0, 1, 3], [0, 0, 1]], dtype=float)
        expected /= np.linalg.norm(expected)
        assert np.allclose(h, expected, atol=1e-9)

    def test_six_exact_pairs_recover_random_h(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            h_true = random_homography(rng)
            pairs = exact_pairs(h_true, rng, 6)
            h_est = estimate_homography(pairs)
            assert reprojection_error(h_est, pairs) < 1e-6

    def test_held_out_correspondences_reproduced(self):
        rng = np.random.default_rng(7)
        h_true = random_homography(rng)
        pairs = exact_pairs(h_true, rng, 10)
        h_est = estimate_homography(pairs[:5])
        for pixel, court in pairs[5:]:
            mapped = project(h_est, pixel)
            assert abs(mapped.x - court.x) < 1e-6
            assert abs(mapped.y - court.y) < 1e-6

    def test_too_few_points(self):
        pairs = [(PixelPoint(0, 0), CourtPoint(0, 0))] * 3
        with pytest.raises(InsufficientPoints):
            estimate_homography(pairs)

    def test_collinear_court_points_rejected(self):
        pairs = [(PixelPoint(x, y), CourtPoint(x, 0.0))
                 for x, y in [(0, 0), (1, 1), (2, 3), (3, 6)]]
        with pytest.raises(DegenerateConfiguration):
            estimate_homography(pairs)

    def test_repeated_points_rejected(self):
        pairs = [(PixelPoint(0, 0), CourtPoint(0, 0)),
                 (PixelPoint(0, 0), CourtPoint(0, 0)),
                 (PixelPoint(1, 1), CourtPoint(1, 1)),
                 (PixelPoint(2, 1), CourtPoint(2, 1))]
        with pytest.raises(DegenerateConfiguration):
            estimate_homography(pairs)

    def test_pixel_gauge_freedom_absorbed(self):
        # scaling the homogeneous representation of H must not move outputs
        rng = np.random.default_rng(3)
        h = random_homography(rng)
        scaled = Homography.from_array(h.as_array() * 17.0)
        p = PixelPoint(1.25, -0.5)
        a, b = project(h, p), project(scaled, p)
        assert abs(a.x - b.x) < 1e-12 and abs(a.y - b.y) < 1e-12


class TestProject:
    def test_identity(self):
        h = Homography.from_array(np.eye(3))
        mapped = project(h, PixelPoint(3.5, 10.0))
        assert abs(mapped.x - 3.5) < 1e-12
        assert abs(mapped.y - 10.0) < 1e-12

    def test_pure_scale(self):
        h = Homography.from_array(np.diag([2.0, 2.0, 1.0]))
        mapped = project(h, PixelPoint(1.0, 2.0))
        assert abs(mapped.x - 2.0) < 1e-12
        assert abs(mapped.y - 4.0) < 1e-12

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            h = random_homography(rng)
            p = PixelPoint(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            try:
                there = project(h, p)
            except AtInfinity:
                continue
            back = project(h.inverse(), PixelPoint(there.x, there.y))
            assert abs(back.x - p.x) < 1e-9
            assert abs(back.y - p.y) < 1e-9

    def test_point_at_infinity(self):
        h = Homography.from_array(np.array([[1, 0, 0], [0, 1, 0], [1, 0, 1]],
                                           dtype=float))
        with pytest.raises(AtInfinity):
            project(h, PixelPoint(-1.0, 5.0))


class TestReprojectionError:
    def test_zero_on_identity_pairs(self):
        h = Homography.from_array(np.eye(3))
        pairs = [(PixelPoint(x, y), CourtPoint(x, y))
                 for x, y in [(0, 0), (1, 2), (3, 4)]]
        assert reprojection_error(h, pairs) == 0.0

    def test_single_offset_closed_form(self):
        h = Homography.from_array(np.eye(3))
        n, d = 5, 0.25
        pairs = [(PixelPoint(float(i), 0.0), CourtPoint(float(i), 0.0))
                 for i in range(n - 1)]
        pairs.append((PixelPoint(99.0, 0.0), CourtPoint(99.0, d)))
        assert abs(reprojection_error(h, pairs) - d / np.sqrt(n)) < 1e-9


class TestRejectedInputs:
    @pytest.mark.parametrize("point, what", [(PixelPoint, "pixel"),
                                             (CourtPoint, "court")])
    def test_nan_point(self, point, what):
        with pytest.raises(ValueError, match=f"{what} coordinates must be finite"):
            point(float("nan"), 0.0)

    def test_matrix_not_3x3(self):
        with pytest.raises(ValueError, match=r"must be 3x3, got \(2, 3\)"):
            Homography.from_array(np.ones((2, 3)))

    def test_zero_matrix(self):
        with pytest.raises(DegenerateConfiguration,
                           match="zero or non-finite homography matrix"):
            Homography.from_array(np.zeros((3, 3)))

    def test_zero_corner_takes_its_sign_from_the_largest_entry(self):
        h = Homography.from_array([[0, 0, -1], [0, -1, 0], [-1, 0, 0]])
        expected = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) / np.sqrt(3.0)
        assert np.allclose(h.as_array(), expected, atol=1e-12)

    def test_singular_matrix(self):
        with pytest.raises(DegenerateConfiguration,
                           match="homography matrix is singular"):
            Homography.from_array(np.ones((3, 3)))

    def test_five_pairs_on_one_line(self):
        pairs = [(PixelPoint(float(i), 0.0), CourtPoint(float(i), 0.0))
                 for i in range(5)]
        with pytest.raises(DegenerateConfiguration,
                           match="correspondences admit no unique solution"):
            estimate_homography(pairs)

    def test_reprojection_error_needs_a_pair(self):
        with pytest.raises(ValueError, match="need at least one correspondence"):
            reprojection_error(Homography.from_array(np.eye(3)), [])


KEYPOINT_REGIONS = {
    "near_left_doubles": {"doubles"},
    "near_right_doubles": {"doubles"},
    "far_left_doubles": {"doubles"},
    "far_right_doubles": {"doubles"},
    "near_left_singles": {"doubles", "singles"},
    "near_right_singles": {"doubles", "singles"},
    "far_left_singles": {"doubles", "singles"},
    "far_right_singles": {"doubles", "singles"},
    "near_service_left": {"doubles", "singles", "near_service_boxes"},
    "near_service_right": {"doubles", "singles", "near_service_boxes"},
    "far_service_left": {"doubles", "singles", "far_service_boxes"},
    "far_service_right": {"doubles", "singles", "far_service_boxes"},
    "near_service_center": {"doubles", "singles", "near_service_boxes"},
    "far_service_center": {"doubles", "singles", "far_service_boxes"},
}


class TestCourtModel:
    def test_has_fourteen_keypoints(self):
        assert len(CourtModel().keypoints) == 14

    def test_center_in_singles_and_doubles(self):
        center = CourtPoint(DOUBLES_WIDTH / 2, COURT_LENGTH / 2)
        assert in_bounds(center, "singles")
        assert in_bounds(center, "doubles")

    def test_just_outside_doubles_sideline(self):
        assert not in_bounds(CourtPoint(-0.1, 10.0), "doubles")
        assert not in_bounds(CourtPoint(DOUBLES_WIDTH + 0.1, 10.0), "doubles")

    def test_keypoints_classified_per_construction(self):
        model = CourtModel()
        for name in model.names():
            point = model.point(name)
            expected = KEYPOINT_REGIONS[name]
            got = {r for r in ("singles", "doubles", "near_service_boxes",
                               "far_service_boxes") if in_bounds(point, r)}
            assert got == expected, name

    def test_symmetry_preserves_classification(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = CourtPoint(float(rng.uniform(-2, 13)), float(rng.uniform(-2, 26)))
            mirror_x = CourtPoint(DOUBLES_WIDTH - p.x, p.y)
            mirror_y = CourtPoint(p.x, COURT_LENGTH - p.y)
            for region in ("singles", "doubles"):
                assert in_bounds(p, region) == in_bounds(mirror_x, region)
                assert in_bounds(p, region) == in_bounds(mirror_y, region)
            near = in_bounds(p, "near_service_boxes")
            far = in_bounds(p, "far_service_boxes")
            assert near == in_bounds(mirror_y, "far_service_boxes")
            assert far == in_bounds(mirror_y, "near_service_boxes")

    def test_unknown_region(self):
        with pytest.raises(ValueError):
            in_bounds(CourtPoint(0, 0), "tramlines")
