//! A plain 3-component `f64` vector.
//!
//! SPH spends its time in tight per-neighbour loops; the vector type is kept
//! `Copy`, `#[repr(C)]`, and free of any hidden allocation so the compiler
//! can keep it in registers and auto-vectorise the particle loops.

use std::iter::Sum;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// Three-dimensional vector of `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    pub const ONE: Vec3 = Vec3 { x: 1.0, y: 1.0, z: 1.0 };
    pub const X: Vec3 = Vec3 { x: 1.0, y: 0.0, z: 0.0 };
    pub const Y: Vec3 = Vec3 { x: 0.0, y: 1.0, z: 0.0 };
    pub const Z: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// All three components set to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * o.z - self.z * o.y,
            y: self.z * o.x - self.x * o.z,
            z: self.x * o.y - self.y * o.x,
        }
    }

    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Unit vector in the same direction; `None` for (near-)zero vectors.
    #[inline]
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n > 0.0 && n.is_finite() {
            Some(self / n)
        } else {
            None
        }
    }

    /// Euclidean distance to `o`.
    #[inline]
    pub fn dist(self, o: Vec3) -> f64 {
        (self - o).norm()
    }

    #[inline]
    pub fn dist_sq(self, o: Vec3) -> f64 {
        (self - o).norm_sq()
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Largest component value.
    #[inline]
    pub fn max_component(self) -> f64 {
        self.x.max(self.y).max(self.z)
    }

    /// Smallest component value.
    #[inline]
    pub fn min_component(self) -> f64 {
        self.x.min(self.y).min(self.z)
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Vec3 {
        Vec3::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// True when every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Access by axis index (0 = x, 1 = y, 2 = z).
    ///
    /// # Panics
    ///
    /// Panics for `axis > 2`, mirroring the slice-indexing contract.
    #[inline]
    #[expect(
        clippy::panic,
        reason = "out-of-range bound, same contract as std slice indexing; axes come from \
                  0..3 loops"
    )]
    pub fn component(self, axis: usize) -> f64 {
        match axis {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => panic!("Vec3 axis out of range: {axis}"),
        }
    }

    /// Mutable access by axis index.
    ///
    /// # Panics
    ///
    /// Panics for `axis > 2`, mirroring the slice-indexing contract.
    #[inline]
    #[expect(
        clippy::panic,
        reason = "out-of-range bound, same contract as std slice indexing; axes come from \
                  0..3 loops"
    )]
    pub fn component_mut(&mut self, axis: usize) -> &mut f64 {
        match axis {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 axis out of range: {axis}"),
        }
    }

    /// `[x, y, z]` array view, useful for serialisation.
    #[inline]
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    #[inline]
    pub fn from_array(a: [f64; 3]) -> Vec3 {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, s: f64) {
        *self = *self * s;
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline]
    fn div_assign(&mut self, s: f64) {
        *self = *self / s;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    #[expect(
        clippy::panic,
        reason = "the std Index contract IS panic-on-out-of-range; a Result here is not expressible"
    )]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        self.component_mut(i)
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        // FROZEN: sequential fold in the caller's iteration order;
        // component-wise Kahan would change every existing Vec3 sum
        // bit-for-bit. Hot reductions use the chunked ordered-reduce
        // helpers instead of this impl.
        iter.fold(Vec3::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn dot_cross_norm() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a.dot(b), 32.0);
        let c = a.cross(b);
        // Cross product is orthogonal to both operands.
        assert!(approx_eq(c.dot(a), 0.0, 1e-12));
        assert!(approx_eq(c.dot(b), 0.0, 1e-12));
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert!(approx_eq(Vec3::new(3.0, 4.0, 0.0).norm(), 5.0, 1e-15));
    }

    #[test]
    fn normalized() {
        let v = Vec3::new(0.0, 3.0, 4.0).normalized().unwrap();
        assert!(approx_eq(v.norm(), 1.0, 1e-15));
        assert!(Vec3::ZERO.normalized().is_none());
    }

    #[test]
    fn component_access() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v[0], 1.0);
        assert_eq!(v.component(2), 3.0);
        v[1] = 9.0;
        assert_eq!(v.y, 9.0);
        *v.component_mut(0) = -1.0;
        assert_eq!(v.x, -1.0);
    }

    #[test]
    #[should_panic]
    fn component_out_of_range_panics() {
        let v = Vec3::ZERO;
        let _ = v.component(3);
    }

    #[test]
    fn min_max_abs() {
        let a = Vec3::new(1.0, -5.0, 3.0);
        let b = Vec3::new(-2.0, 4.0, 3.0);
        assert_eq!(a.min(b), Vec3::new(-2.0, -5.0, 3.0));
        assert_eq!(a.max(b), Vec3::new(1.0, 4.0, 3.0));
        assert_eq!(a.abs(), Vec3::new(1.0, 5.0, 3.0));
        assert_eq!(a.max_component(), 3.0);
        assert_eq!(a.min_component(), -5.0);
    }

    #[test]
    fn sum_iterator() {
        let total: Vec3 = (0..4).map(|i| Vec3::splat(i as f64)).sum();
        assert_eq!(total, Vec3::splat(6.0));
    }

    #[test]
    fn array_roundtrip() {
        let v = Vec3::new(1.5, -2.5, 3.5);
        assert_eq!(Vec3::from_array(v.to_array()), v);
    }
}
