//! Simple polygons for irregular indoor partitions.
//!
//! Hallways and other non-rectangular partitions are modelled as simple
//! rectilinear polygons (axis-aligned edges). The paper approximates even
//! curved partitions by polygons before decomposition (§III-A.2), so this is
//! the general representation the index consumes.

use crate::fp::EPSILON;
use crate::point::Point2;
use crate::rect::Rect2;

/// A simple polygon given by its boundary vertices.
///
/// Vertices are stored in counter-clockwise order (the constructor reverses
/// clockwise input). Consecutive duplicate vertices are rejected.
#[derive(Clone, Debug, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point2>,
}

/// Errors from polygon construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than three vertices.
    TooFewVertices,
    /// Two consecutive vertices coincide.
    DuplicateVertex(usize),
    /// The polygon has (numerically) zero area.
    ZeroArea,
}

impl std::fmt::Display for PolygonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolygonError::TooFewVertices => write!(f, "polygon needs at least 3 vertices"),
            PolygonError::DuplicateVertex(i) => {
                write!(f, "consecutive duplicate vertex at index {i}")
            }
            PolygonError::ZeroArea => write!(f, "polygon has zero area"),
        }
    }
}

impl std::error::Error for PolygonError {}

impl Polygon {
    /// Builds a polygon from boundary vertices (either orientation).
    pub fn new(mut vertices: Vec<Point2>) -> Result<Self, PolygonError> {
        if vertices.len() < 3 {
            return Err(PolygonError::TooFewVertices);
        }
        for i in 0..vertices.len() {
            let j = (i + 1) % vertices.len();
            if vertices[i].dist_sq(vertices[j]) <= EPSILON * EPSILON {
                return Err(PolygonError::DuplicateVertex(i));
            }
        }
        let signed = signed_area(&vertices);
        if signed.abs() <= EPSILON {
            return Err(PolygonError::ZeroArea);
        }
        if signed < 0.0 {
            vertices.reverse();
        }
        Ok(Polygon { vertices })
    }

    /// A rectangle as a polygon.
    pub fn from_rect(r: Rect2) -> Self {
        Polygon {
            vertices: r.corners().to_vec(),
        }
    }

    /// Boundary vertices in counter-clockwise order.
    #[inline]
    pub fn vertices(&self) -> &[Point2] {
        &self.vertices
    }

    /// Polygon area (positive).
    #[inline]
    pub fn area(&self) -> f64 {
        signed_area(&self.vertices)
    }

    /// Tight axis-aligned bounding box.
    pub fn bbox(&self) -> Rect2 {
        let mut r = Rect2::empty_sentinel();
        for &v in &self.vertices {
            r = r.union(&Rect2::new(v, v));
        }
        r
    }

    /// Point-in-polygon test (boundary counts as inside) by ray casting.
    pub fn contains(&self, p: Point2) -> bool {
        let n = self.vertices.len();
        // Ray cast first: the common interior case needs no square roots.
        let mut inside = false;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            if (a.y > p.y) != (b.y > p.y) {
                let x_at = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
                if p.x < x_at {
                    inside = !inside;
                }
            }
        }
        if inside {
            return true;
        }
        // Ray casting is unreliable exactly on edges: points the cast calls
        // "outside" may still sit on the boundary, which counts as inside.
        for i in 0..n {
            let s = crate::segment::Segment::new(self.vertices[i], self.vertices[(i + 1) % n]);
            if s.dist(p) <= 1e-9 {
                return true;
            }
        }
        false
    }

    /// Returns `true` if every edge is horizontal or vertical.
    pub(crate) fn is_rectilinear(&self) -> bool {
        let n = self.vertices.len();
        (0..n).all(|i| {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            (a.x - b.x).abs() <= EPSILON || (a.y - b.y).abs() <= EPSILON
        })
    }

    /// Returns `true` if the polygon is exactly an axis-aligned rectangle.
    pub fn as_rect(&self) -> Option<Rect2> {
        if self.vertices.len() != 4 || !self.is_rectilinear() {
            return None;
        }
        let bb = self.bbox();
        if (self.area() - bb.area()).abs() <= 1e-6 * bb.area().max(1.0) {
            Some(bb)
        } else {
            None
        }
    }

    /// Decomposes a *rectilinear* polygon into disjoint rectangles whose
    /// union is the polygon, by slicing it into horizontal slabs at every
    /// distinct vertex y-coordinate and merging vertically adjacent slices
    /// with identical x-extent.
    ///
    /// Returns `None` for non-rectilinear polygons (callers fall back to
    /// the bounding box, documented in `decompose`).
    pub(crate) fn rectangles(&self) -> Option<Vec<Rect2>> {
        if !self.is_rectilinear() {
            return None;
        }
        let mut ys: Vec<f64> = self.vertices.iter().map(|v| v.y).collect();
        ys.sort_by(f64::total_cmp);
        ys.dedup_by(|a, b| (*a - *b).abs() <= EPSILON);

        let n = self.vertices.len();
        let mut slab_rects: Vec<Rect2> = Vec::new();
        for w in ys.windows(2) {
            let (y0, y1) = (w[0], w[1]);
            let mid = (y0 + y1) / 2.0;
            // Vertical edges crossing this slab, recorded by x.
            let mut xs: Vec<f64> = Vec::new();
            for i in 0..n {
                let a = self.vertices[i];
                let b = self.vertices[(i + 1) % n];
                if (a.x - b.x).abs() <= EPSILON {
                    let (elo, ehi) = (a.y.min(b.y), a.y.max(b.y));
                    if elo <= mid && mid <= ehi {
                        xs.push(a.x);
                    }
                }
            }
            xs.sort_by(f64::total_cmp);
            // Interior alternates between consecutive crossings.
            let mut i = 0;
            while i + 1 < xs.len() {
                let (x0, x1) = (xs[i], xs[i + 1]);
                if x1 - x0 > EPSILON {
                    slab_rects.push(Rect2::from_bounds(x0, y0, x1, y1));
                }
                i += 2;
            }
        }

        // Merge vertically adjacent slices with the same x-extent.
        slab_rects.sort_by(|a, b| {
            a.lo.x
                .total_cmp(&b.lo.x)
                .then(a.hi.x.total_cmp(&b.hi.x))
                .then(a.lo.y.total_cmp(&b.lo.y))
        });
        let mut merged: Vec<Rect2> = Vec::new();
        for r in slab_rects {
            if let Some(last) = merged.last_mut() {
                if (last.lo.x - r.lo.x).abs() <= EPSILON
                    && (last.hi.x - r.hi.x).abs() <= EPSILON
                    && (last.hi.y - r.lo.y).abs() <= EPSILON
                {
                    last.hi.y = r.hi.y;
                    continue;
                }
            }
            merged.push(r);
        }
        Some(merged)
    }
}

fn signed_area(vertices: &[Point2]) -> f64 {
    let n = vertices.len();
    let mut acc = 0.0;
    for i in 0..n {
        let p = vertices[i];
        let q = vertices[(i + 1) % n];
        acc += p.x * q.y - q.x * p.y;
    }
    acc / 2.0
}

impl std::fmt::Display for Polygon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "polygon[{} vertices]", self.vertices.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An L-shaped rectilinear polygon (like hallway 10 in Fig. 8(b)).
    fn l_shape() -> Polygon {
        Polygon::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(10.0, 4.0),
            Point2::new(4.0, 4.0),
            Point2::new(4.0, 10.0),
            Point2::new(0.0, 10.0),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_degenerate_input() {
        assert_eq!(
            Polygon::new(vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)]),
            Err(PolygonError::TooFewVertices)
        );
        let collinear = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(2.0, 0.0),
        ];
        assert_eq!(Polygon::new(collinear), Err(PolygonError::ZeroArea));
    }

    #[test]
    fn orientation_is_normalized() {
        let cw = Polygon::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.0, 1.0),
            Point2::new(1.0, 1.0),
            Point2::new(1.0, 0.0),
        ])
        .unwrap();
        assert!(cw.area() > 0.0);
    }

    #[test]
    fn l_shape_properties() {
        let p = l_shape();
        assert!((p.area() - (10.0 * 4.0 + 4.0 * 6.0)).abs() < 1e-9);
        assert!(p.is_rectilinear());
    }

    #[test]
    fn containment() {
        let p = l_shape();
        assert!(p.contains(Point2::new(2.0, 2.0)));
        assert!(p.contains(Point2::new(8.0, 2.0)));
        assert!(p.contains(Point2::new(2.0, 8.0)));
        assert!(!p.contains(Point2::new(8.0, 8.0))); // notch
        assert!(p.contains(Point2::new(0.0, 0.0))); // boundary vertex
        assert!(p.contains(Point2::new(5.0, 0.0))); // boundary edge
    }

    #[test]
    fn rect_roundtrip() {
        let r = Rect2::from_bounds(1.0, 2.0, 5.0, 6.0);
        let p = Polygon::from_rect(r);
        assert_eq!(p.as_rect(), Some(r));
        assert!(l_shape().as_rect().is_none());
    }

    #[test]
    fn rectangles_cover_l_shape() {
        let p = l_shape();
        let rects = p.rectangles().unwrap();
        let total: f64 = rects.iter().map(|r| r.area()).sum();
        assert!((total - p.area()).abs() < 1e-9, "area preserved");
        // Pieces are pairwise disjoint.
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                assert!(crate::fp::tests::overlap_area(&rects[i], &rects[j]) < 1e-9);
            }
        }
        // Each piece lies inside the polygon.
        for r in &rects {
            assert!(p.contains(r.center()));
        }
    }

    #[test]
    fn rectangles_of_plain_rect_is_identity() {
        let r = Rect2::from_bounds(0.0, 0.0, 6.0, 3.0);
        let p = Polygon::from_rect(r);
        let rects = p.rectangles().unwrap();
        assert_eq!(rects.len(), 1);
        assert_eq!(rects[0], r);
    }

    #[test]
    fn circle_polygonization() {
        // A regular 64-gon of radius 10 around the origin.
        let verts = (0..64)
            .map(|i| {
                let theta = 2.0 * std::f64::consts::PI * (i as f64) / 64.0;
                Point2::new(10.0 * theta.cos(), 10.0 * theta.sin())
            })
            .collect();
        let p = Polygon::new(verts).unwrap();
        assert!(!p.is_rectilinear());
        // Area of a regular 64-gon is close to the disk area.
        assert!((p.area() - std::f64::consts::PI * 100.0).abs() < 2.0);
        assert!(p.contains(Point2::new(0.0, 0.0)));
        assert!(p.rectangles().is_none());
    }
}
