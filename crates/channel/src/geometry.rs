//! 2-D geometry: positions, walls, line-of-sight, and the paper's testbed.
//!
//! The evaluation floor plan (Fig. 13) places the tag + reader at location 1
//! and moves the helper between locations 2–5, spanning line-of-sight and
//! non-line-of-sight (location 5 is in an adjacent room) at 3–9 m from the
//! tag. [`Testbed`] reproduces that layout with representative coordinates.

/// A point in the 2-D floor plan, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// X coordinate (m).
    pub x: f64,
    /// Y coordinate (m).
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point (m).
    pub fn distance(self, other: Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }
}

/// A wall segment that attenuates signals crossing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    /// One endpoint.
    pub a: Point,
    /// Other endpoint.
    pub b: Point,
    /// Penetration loss in dB (typical interior drywall ≈ 3–6 dB,
    /// concrete ≈ 10–15 dB).
    pub loss_db: f64,
}

impl Wall {
    /// Creates a wall segment.
    pub fn new(a: Point, b: Point, loss_db: f64) -> Self {
        Wall { a, b, loss_db }
    }

    /// True if the segment `p→q` crosses this wall.
    pub fn blocks(&self, p: Point, q: Point) -> bool {
        segments_intersect(p, q, self.a, self.b)
    }
}

/// Proper segment-intersection test (shared endpoints count as crossing).
fn segments_intersect(p1: Point, p2: Point, p3: Point, p4: Point) -> bool {
    fn orient(a: Point, b: Point, c: Point) -> f64 {
        (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    }
    fn on_segment(a: Point, b: Point, c: Point) -> bool {
        c.x >= a.x.min(b.x) - 1e-12
            && c.x <= a.x.max(b.x) + 1e-12
            && c.y >= a.y.min(b.y) - 1e-12
            && c.y <= a.y.max(b.y) + 1e-12
    }
    let d1 = orient(p3, p4, p1);
    let d2 = orient(p3, p4, p2);
    let d3 = orient(p1, p2, p3);
    let d4 = orient(p1, p2, p4);
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    (d1 == 0.0 && on_segment(p3, p4, p1))
        || (d2 == 0.0 && on_segment(p3, p4, p2))
        || (d3 == 0.0 && on_segment(p1, p2, p3))
        || (d4 == 0.0 && on_segment(p1, p2, p4))
}

/// Total wall loss (dB) along the straight path `p→q`.
pub fn path_wall_loss_db(walls: &[Wall], p: Point, q: Point) -> f64 {
    walls
        .iter()
        .filter(|w| w.blocks(p, q))
        .map(|w| w.loss_db)
        .sum()
}

/// True if no wall blocks `p→q`.
pub fn line_of_sight(walls: &[Wall], p: Point, q: Point) -> bool {
    !walls.iter().any(|w| w.blocks(p, q))
}

/// Intersection area (m²) of two equal-radius coverage discs whose
/// centres are `d` metres apart — the lens formula
/// `2r²·cos⁻¹(d/2r) − (d/2)·√(4r² − d²)`.
///
/// Two gateways whose coverage discs share area contend for the same
/// patch of tags and helper airtime; the fleet simulator feeds this
/// through [`coverage_overlap`] to scale inter-gateway interference.
/// Degenerate inputs are total: `r ≤ 0` or `d ≥ 2r` give 0, `d ≤ 0`
/// gives the full disc area.
fn circle_overlap_area(d: f64, r: f64) -> f64 {
    if r <= 0.0 {
        return 0.0;
    }
    if d <= 0.0 {
        return std::f64::consts::PI * r * r;
    }
    if d >= 2.0 * r {
        return 0.0;
    }
    let half = d / 2.0;
    2.0 * r * r * (half / r).acos() - half * (4.0 * r * r - d * d).sqrt()
}

/// Fraction of one coverage disc shared with the other (`0..=1`):
/// the two discs' lens area normalised by the disc area. 1 for
/// co-located gateways, 0 once the centres are ≥ one diameter apart.
///
/// ```
/// use bs_channel::geometry::coverage_overlap;
///
/// assert_eq!(coverage_overlap(0.0, 10.0), 1.0);
/// assert_eq!(coverage_overlap(20.0, 10.0), 0.0);
/// let half_in = coverage_overlap(10.0, 10.0);
/// assert!(half_in > 0.3 && half_in < 0.5, "{half_in}");
/// ```
pub fn coverage_overlap(d: f64, r: f64) -> f64 {
    if r <= 0.0 {
        return 0.0;
    }
    (circle_overlap_area(d, r) / (std::f64::consts::PI * r * r)).clamp(0.0, 1.0)
}

/// The five helper locations of the paper's testbed (Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestbedLocation {
    /// Location 1: tag + reader position.
    Loc1,
    /// Location 2: same room, ≈3 m, line-of-sight.
    Loc2,
    /// Location 3: same room, ≈5 m, line-of-sight.
    Loc3,
    /// Location 4: same room, ≈7 m, partially obstructed.
    Loc4,
    /// Location 5: adjacent room, ≈9 m, non-line-of-sight.
    Loc5,
}

impl TestbedLocation {
    /// All helper locations used in Figs 14 and 19 (locations 2–5).
    pub const HELPER_LOCATIONS: [TestbedLocation; 4] = [
        TestbedLocation::Loc2,
        TestbedLocation::Loc3,
        TestbedLocation::Loc4,
        TestbedLocation::Loc5,
    ];
}

/// A reproduction of the Fig. 13 floor plan: one lab room roughly 10 × 6 m
/// with an adjacent room behind an interior wall.
#[derive(Debug, Clone)]
pub struct Testbed {
    walls: Vec<Wall>,
}

impl Default for Testbed {
    fn default() -> Self {
        Testbed::new()
    }
}

impl Testbed {
    /// Builds the testbed floor plan.
    pub fn new() -> Self {
        // Interior wall at x = 8.0 m separating the lab from the adjacent
        // room, with a doorway gap between y = 4.5 and y = 6.0 that the
        // location-5 path does not pass through.
        let walls = vec![Wall::new(Point::new(8.0, 0.0), Point::new(8.0, 4.5), 8.0)];
        Testbed { walls }
    }

    /// Coordinates of a testbed location.
    pub fn position(&self, loc: TestbedLocation) -> Point {
        match loc {
            TestbedLocation::Loc1 => Point::new(1.0, 1.0),
            TestbedLocation::Loc2 => Point::new(4.0, 1.5),
            TestbedLocation::Loc3 => Point::new(5.5, 3.0),
            TestbedLocation::Loc4 => Point::new(7.5, 3.5),
            TestbedLocation::Loc5 => Point::new(9.8, 2.0),
        }
    }

    /// The walls of the floor plan.
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(b.distance(a), 5.0);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn wall_blocks_crossing_path() {
        let w = Wall::new(Point::new(1.0, -1.0), Point::new(1.0, 1.0), 6.0);
        assert!(w.blocks(Point::new(0.0, 0.0), Point::new(2.0, 0.0)));
        assert!(!w.blocks(Point::new(0.0, 2.0), Point::new(2.0, 2.0)));
    }

    #[test]
    fn wall_parallel_paths_do_not_block() {
        let w = Wall::new(Point::new(1.0, 0.0), Point::new(1.0, 5.0), 6.0);
        assert!(!w.blocks(Point::new(0.0, 0.0), Point::new(0.0, 5.0)));
    }

    #[test]
    fn touching_endpoint_counts_as_blocked() {
        let w = Wall::new(Point::new(1.0, -1.0), Point::new(1.0, 1.0), 6.0);
        assert!(w.blocks(Point::new(0.0, 0.0), Point::new(1.0, 0.0)));
    }

    #[test]
    fn path_wall_loss_sums_crossed_walls() {
        let walls = vec![
            Wall::new(Point::new(1.0, -1.0), Point::new(1.0, 1.0), 3.0),
            Wall::new(Point::new(2.0, -1.0), Point::new(2.0, 1.0), 5.0),
            Wall::new(Point::new(9.0, -1.0), Point::new(9.0, 1.0), 7.0),
        ];
        let loss = path_wall_loss_db(&walls, Point::new(0.0, 0.0), Point::new(3.0, 0.0));
        assert_eq!(loss, 8.0);
    }

    #[test]
    fn line_of_sight_basics() {
        let walls = vec![Wall::new(Point::new(1.0, -1.0), Point::new(1.0, 1.0), 3.0)];
        assert!(!line_of_sight(
            &walls,
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0)
        ));
        assert!(line_of_sight(
            &walls,
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0)
        ));
        assert!(line_of_sight(
            &[],
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0)
        ));
    }

    #[test]
    fn testbed_distances_span_3_to_9_meters() {
        // The paper: helper locations are 3–9 m from the tag.
        let tb = Testbed::new();
        let tag = tb.position(TestbedLocation::Loc1);
        let d: Vec<f64> = TestbedLocation::HELPER_LOCATIONS
            .iter()
            .map(|&l| tb.position(l).distance(tag))
            .collect();
        for (loc, d) in TestbedLocation::HELPER_LOCATIONS.iter().zip(&d) {
            assert!((2.5..=9.5).contains(d), "{loc:?} at {d} m");
        }
        // Distances increase from location 2 to 5.
        assert!(d.windows(2).all(|w| w[0] < w[1]), "{d:?}");
    }

    #[test]
    fn testbed_location5_is_nlos_others_los() {
        let tb = Testbed::new();
        let los = |loc| {
            line_of_sight(
                tb.walls(),
                tb.position(loc),
                tb.position(TestbedLocation::Loc1),
            )
        };
        assert!(los(TestbedLocation::Loc2));
        assert!(los(TestbedLocation::Loc3));
        assert!(los(TestbedLocation::Loc4));
        assert!(
            !los(TestbedLocation::Loc5),
            "loc 5 must be in the adjacent room"
        );
    }

    #[test]
    fn coverage_overlap_endpoints_and_monotonicity() {
        let r = 25.0;
        assert!((coverage_overlap(0.0, r) - 1.0).abs() < 1e-12);
        assert_eq!(coverage_overlap(2.0 * r, r), 0.0);
        assert_eq!(coverage_overlap(3.0 * r, r), 0.0);
        // Strictly decreasing in separation across the open interval.
        let f: Vec<f64> = (0..=10)
            .map(|i| coverage_overlap(i as f64 * 2.0 * r / 10.0, r))
            .collect();
        assert!(
            f.windows(2)
                .all(|w| w[0] > w[1] || (w[0] == 0.0 && w[1] == 0.0)),
            "{f:?}"
        );
        // Scale invariance: the fraction depends only on d/r.
        assert!((coverage_overlap(10.0, 25.0) - coverage_overlap(4.0, 10.0)).abs() < 1e-12);
    }

    #[test]
    fn circle_overlap_area_degenerate_inputs_are_total() {
        assert_eq!(circle_overlap_area(1.0, 0.0), 0.0);
        assert_eq!(circle_overlap_area(1.0, -2.0), 0.0);
        assert_eq!(coverage_overlap(1.0, 0.0), 0.0);
        let full = circle_overlap_area(-1.0, 2.0);
        assert!((full - std::f64::consts::PI * 4.0).abs() < 1e-12);
        // Half-separation sanity against the closed form at d = r:
        // A(r, r) = r²(2π/3 − √3/2).
        let a = circle_overlap_area(2.0, 2.0);
        let expect = 4.0 * (2.0 * std::f64::consts::PI / 3.0 - 3f64.sqrt() / 2.0);
        assert!((a - expect).abs() < 1e-9, "{a} vs {expect}");
    }
}
