//! Axis-aligned bounding boxes.
//!
//! The octree, the ORB decomposition and the SFC key generation all work in
//! terms of a global bounding box. For the rotating square patch the box is
//! periodic along z (the 2-D test is extruded and wrapped), which is handled
//! by [`crate::periodic::Periodicity`]; the box itself is geometry only.

use crate::vec3::Vec3;

/// Closed axis-aligned box `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    pub lo: Vec3,
    pub hi: Vec3,
}

impl Aabb {
    /// Construct from corners; panics if any `lo` component exceeds `hi`.
    pub fn new(lo: Vec3, hi: Vec3) -> Self {
        assert!(lo.x <= hi.x && lo.y <= hi.y && lo.z <= hi.z, "invalid AABB: lo {lo:?} hi {hi:?}");
        Aabb { lo, hi }
    }

    /// Cube centred on `c` with half-width `half`.
    pub fn cube(c: Vec3, half: f64) -> Self {
        assert!(half >= 0.0);
        Aabb::new(c - Vec3::splat(half), c + Vec3::splat(half))
    }

    /// The unit cube `[0,1]³`.
    pub fn unit() -> Self {
        Aabb::new(Vec3::ZERO, Vec3::ONE)
    }

    /// Tight bounding box of a point set; `None` when empty.
    pub fn from_points<'a, I: IntoIterator<Item = &'a Vec3>>(pts: I) -> Option<Self> {
        let mut it = pts.into_iter();
        let first = *it.next()?;
        let (lo, hi) = it.fold((first, first), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        Some(Aabb { lo, hi })
    }

    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.lo + self.hi) * 0.5
    }

    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.hi - self.lo
    }

    /// Longest edge length.
    #[inline]
    pub fn max_extent(&self) -> f64 {
        self.extent().max_component()
    }

    #[inline]
    pub fn volume(&self) -> f64 {
        let e = self.extent();
        e.x * e.y * e.z
    }

    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.lo.x
            && p.x <= self.hi.x
            && p.y >= self.lo.y
            && p.y <= self.hi.y
            && p.z >= self.lo.z
            && p.z <= self.hi.z
    }

    /// Smallest box containing both.
    pub fn union(&self, o: &Aabb) -> Aabb {
        Aabb { lo: self.lo.min(o.lo), hi: self.hi.max(o.hi) }
    }

    /// Squared distance from `p` to the box (0 inside) — the pruning test of
    /// the fixed-radius neighbour search.
    #[inline]
    pub fn dist_sq_to_point(&self, p: Vec3) -> f64 {
        let dx = (self.lo.x - p.x).max(0.0).max(p.x - self.hi.x);
        let dy = (self.lo.y - p.y).max(0.0).max(p.y - self.hi.y);
        let dz = (self.lo.z - p.z).max(0.0).max(p.z - self.hi.z);
        dx * dx + dy * dy + dz * dz
    }

    /// The cubic box with the same centre whose edge is the longest edge of
    /// `self`; Morton/octree construction requires a cube.
    pub fn bounding_cube(&self) -> Aabb {
        Aabb::cube(self.center(), self.max_extent() * 0.5)
    }

    /// Octant `i ∈ [0,8)` of a cubic box; bit 0 = x-high, bit 1 = y-high,
    /// bit 2 = z-high (matches Morton child ordering in `sph-tree`).
    pub fn octant(&self, i: usize) -> Aabb {
        assert!(i < 8);
        let c = self.center();
        let lo = Vec3::new(
            if i & 1 == 0 { self.lo.x } else { c.x },
            if i & 2 == 0 { self.lo.y } else { c.y },
            if i & 4 == 0 { self.lo.z } else { c.z },
        );
        let hi = Vec3::new(
            if i & 1 == 0 { c.x } else { self.hi.x },
            if i & 2 == 0 { c.y } else { self.hi.y },
            if i & 4 == 0 { c.z } else { self.hi.z },
        );
        Aabb { lo, hi }
    }

    /// Map `p` into `[0,1]³` relative to this box (no clamping).
    pub fn normalize(&self, p: Vec3) -> Vec3 {
        let e = self.extent();
        Vec3::new(
            if e.x > 0.0 { (p.x - self.lo.x) / e.x } else { 0.5 },
            if e.y > 0.0 { (p.y - self.lo.y) / e.y } else { 0.5 },
            if e.z > 0.0 { (p.z - self.lo.z) / e.z } else { 0.5 },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_queries() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
        assert_eq!(b.center(), Vec3::splat(1.0));
        assert_eq!(b.extent(), Vec3::splat(2.0));
        assert_eq!(b.volume(), 8.0);
        assert!(b.contains(Vec3::splat(1.0)));
        assert!(b.contains(Vec3::ZERO)); // closed boundary
        assert!(!b.contains(Vec3::splat(2.1)));
    }

    #[test]
    #[should_panic]
    fn inverted_box_panics() {
        let _ = Aabb::new(Vec3::ONE, Vec3::ZERO);
    }

    #[test]
    fn from_points() {
        let pts = [Vec3::new(1.0, -1.0, 0.0), Vec3::new(-2.0, 3.0, 5.0)];
        let b = Aabb::from_points(pts.iter()).unwrap();
        assert_eq!(b.lo, Vec3::new(-2.0, -1.0, 0.0));
        assert_eq!(b.hi, Vec3::new(1.0, 3.0, 5.0));
        assert!(Aabb::from_points([].iter()).is_none());
    }

    #[test]
    fn octants_partition_cube() {
        let b = Aabb::cube(Vec3::splat(0.5), 0.5);
        let mut vol = 0.0;
        for i in 0..8 {
            let o = b.octant(i);
            vol += o.volume();
            assert!(b.contains(o.center()));
        }
        assert!(crate::approx_eq(vol, b.volume(), 1e-12));
        // Octant 0 is the low corner, octant 7 the high corner.
        assert_eq!(b.octant(0).lo, b.lo);
        assert_eq!(b.octant(7).hi, b.hi);
    }

    #[test]
    fn dist_sq_to_point() {
        let b = Aabb::unit();
        assert_eq!(b.dist_sq_to_point(Vec3::splat(0.5)), 0.0);
        assert!(crate::approx_eq(b.dist_sq_to_point(Vec3::new(2.0, 0.5, 0.5)), 1.0, 1e-15));
        assert!(crate::approx_eq(b.dist_sq_to_point(Vec3::new(2.0, 2.0, 0.5)), 2.0, 1e-15));
    }

    #[test]
    fn union_and_intersect() {
        let a = Aabb::unit();
        let b = Aabb::new(Vec3::splat(0.5), Vec3::splat(2.0));
        let u = a.union(&b);
        assert_eq!(u.lo, Vec3::ZERO);
        assert_eq!(u.hi, Vec3::splat(2.0));
    }

    #[test]
    fn bounding_cube_is_cubic_and_contains() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(4.0, 1.0, 2.0));
        let c = b.bounding_cube();
        let e = c.extent();
        assert!(crate::approx_eq(e.x, e.y, 1e-15) && crate::approx_eq(e.y, e.z, 1e-15));
        assert!(c.contains(b.lo) && c.contains(b.hi));
    }

    #[test]
    fn normalize_maps_corners() {
        let b = Aabb::new(Vec3::new(-1.0, 0.0, 2.0), Vec3::new(1.0, 2.0, 6.0));
        assert_eq!(b.normalize(b.lo), Vec3::ZERO);
        assert_eq!(b.normalize(b.hi), Vec3::ONE);
    }
}
