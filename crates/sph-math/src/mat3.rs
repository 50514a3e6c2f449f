//! 3×3 matrices.
//!
//! The IAD gradient scheme (García-Senz et al. 2012, used by SPHYNX) needs,
//! per particle, the inverse of the symmetric "shape" matrix
//! `τ = Σ_j V_j (r_j − r_i) ⊗ (r_j − r_i) W_ij`. That inverse is the only
//! linear algebra the mini-app requires, so this module provides exactly a
//! row-major 3×3 with determinant, inverse, and the symmetric outer-product
//! helpers — no general-purpose linear-algebra dependency.

use crate::vec3::Vec3;
use std::ops::{Add, AddAssign, Mul, Sub};

/// Row-major 3×3 matrix of `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// `m[row][col]`
    pub m: [[f64; 3]; 3],
}

impl Default for Mat3 {
    fn default() -> Self {
        Mat3::ZERO
    }
}

impl Mat3 {
    pub const ZERO: Mat3 = Mat3 { m: [[0.0; 3]; 3] };
    pub const IDENTITY: Mat3 = Mat3 { m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]] };

    #[inline]
    pub const fn new(m: [[f64; 3]; 3]) -> Self {
        Mat3 { m }
    }

    /// Diagonal matrix with entries `d`.
    #[inline]
    pub fn from_diagonal(d: Vec3) -> Self {
        let mut m = Mat3::ZERO;
        m.m[0][0] = d.x;
        m.m[1][1] = d.y;
        m.m[2][2] = d.z;
        m
    }

    /// Outer product `a ⊗ b`.
    #[inline]
    pub fn outer(a: Vec3, b: Vec3) -> Self {
        Mat3 {
            m: [
                [a.x * b.x, a.x * b.y, a.x * b.z],
                [a.y * b.x, a.y * b.y, a.y * b.z],
                [a.z * b.x, a.z * b.y, a.z * b.z],
            ],
        }
    }

    /// Symmetric rank-one update `self += w · (v ⊗ v)`.
    ///
    /// This is the hot operation of the IAD accumulation loop; it updates all
    /// nine entries (keeping the matrix exactly symmetric in exact
    /// arithmetic) without constructing a temporary.
    #[inline]
    pub fn add_scaled_outer(&mut self, v: Vec3, w: f64) {
        let wx = w * v.x;
        let wy = w * v.y;
        let wz = w * v.z;
        self.m[0][0] += wx * v.x;
        self.m[0][1] += wx * v.y;
        self.m[0][2] += wx * v.z;
        self.m[1][0] += wy * v.x;
        self.m[1][1] += wy * v.y;
        self.m[1][2] += wy * v.z;
        self.m[2][0] += wz * v.x;
        self.m[2][1] += wz * v.y;
        self.m[2][2] += wz * v.z;
    }

    #[inline]
    pub fn transpose(&self) -> Mat3 {
        let m = &self.m;
        Mat3::new([
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        ])
    }

    #[inline]
    pub fn determinant(&self) -> f64 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Inverse via the adjugate. Returns `None` when `|det|` is below
    /// `1e-300` (degenerate neighbour geometry, e.g. all neighbours
    /// coplanar); callers fall back to standard kernel-derivative gradients
    /// in that case, mirroring what SPHYNX does.
    pub fn inverse(&self) -> Option<Mat3> {
        let det = self.determinant();
        if det.abs() < 1e-300 || !det.is_finite() {
            return None;
        }
        let m = &self.m;
        let inv_det = 1.0 / det;
        let adj = [
            [
                m[1][1] * m[2][2] - m[1][2] * m[2][1],
                m[0][2] * m[2][1] - m[0][1] * m[2][2],
                m[0][1] * m[1][2] - m[0][2] * m[1][1],
            ],
            [
                m[1][2] * m[2][0] - m[1][0] * m[2][2],
                m[0][0] * m[2][2] - m[0][2] * m[2][0],
                m[0][2] * m[1][0] - m[0][0] * m[1][2],
            ],
            [
                m[1][0] * m[2][1] - m[1][1] * m[2][0],
                m[0][1] * m[2][0] - m[0][0] * m[2][1],
                m[0][0] * m[1][1] - m[0][1] * m[1][0],
            ],
        ];
        let mut out = Mat3::ZERO;
        for (row_out, row_adj) in out.m.iter_mut().zip(&adj) {
            for (o, &a) in row_out.iter_mut().zip(row_adj) {
                *o = a * inv_det;
            }
        }
        Some(out)
    }

    /// Matrix–vector product.
    #[inline]
    pub fn mul_vec(&self, v: Vec3) -> Vec3 {
        let m = &self.m;
        Vec3::new(
            m[0][0] * v.x + m[0][1] * v.y + m[0][2] * v.z,
            m[1][0] * v.x + m[1][1] * v.y + m[1][2] * v.z,
            m[2][0] * v.x + m[2][1] * v.y + m[2][2] * v.z,
        )
    }

    /// Sum of diagonal entries.
    #[inline]
    pub fn trace(&self) -> f64 {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }

    /// True when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.m.iter().flatten().all(|x| x.is_finite())
    }

    /// Maximum absolute difference from `o` — handy in tests.
    pub fn max_abs_diff(&self, o: &Mat3) -> f64 {
        let mut d = 0.0_f64;
        for r in 0..3 {
            for c in 0..3 {
                d = d.max((self.m[r][c] - o.m[r][c]).abs());
            }
        }
        d
    }
}

impl Add for Mat3 {
    type Output = Mat3;
    fn add(self, o: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] = self.m[r][c] + o.m[r][c];
            }
        }
        out
    }
}

impl AddAssign for Mat3 {
    fn add_assign(&mut self, o: Mat3) {
        *self = *self + o;
    }
}

impl Sub for Mat3 {
    type Output = Mat3;
    fn sub(self, o: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] = self.m[r][c] - o.m[r][c];
            }
        }
        out
    }
}

impl Mul<f64> for Mat3 {
    type Output = Mat3;
    fn mul(self, s: f64) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] = self.m[r][c] * s;
            }
        }
        out
    }
}

impl Mul<Mat3> for Mat3 {
    type Output = Mat3;
    fn mul(self, o: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    // Fixed 3-term dot product; part of the frozen FP
                    // stream of the IAD matrix algebra (bit-identity
                    // contract).
                    s += self.m[r][k] * o.m[k][c];
                }
                out.m[r][c] = s;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Mat3 {
        Mat3::new([[2.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 4.0]])
    }

    #[test]
    fn identity_behaviour() {
        let a = sample();
        assert_eq!(a * Mat3::IDENTITY, a);
        assert_eq!(Mat3::IDENTITY * a, a);
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(Mat3::IDENTITY.mul_vec(v), v);
        assert_eq!(Mat3::IDENTITY.determinant(), 1.0);
        assert_eq!(Mat3::IDENTITY.trace(), 3.0);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = sample();
        let inv = a.inverse().expect("invertible");
        let prod = a * inv;
        assert!(prod.max_abs_diff(&Mat3::IDENTITY) < 1e-12, "prod = {prod:?}");
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        // Rank-1 matrix.
        let s = Mat3::outer(Vec3::new(1.0, 2.0, 3.0), Vec3::new(1.0, 2.0, 3.0));
        assert!(s.inverse().is_none());
        assert!(Mat3::ZERO.inverse().is_none());
    }

    #[test]
    fn outer_product() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        let o = Mat3::outer(a, b);
        assert_eq!(o.m[0][1], 5.0);
        assert_eq!(o.m[2][0], 12.0);
        // trace(a ⊗ b) = a · b
        assert_eq!(o.trace(), a.dot(b));
    }

    #[test]
    fn add_scaled_outer_matches_outer() {
        let v = Vec3::new(1.0, -2.0, 0.5);
        let mut acc = Mat3::ZERO;
        acc.add_scaled_outer(v, 2.5);
        let reference = Mat3::outer(v, v) * 2.5;
        assert!(acc.max_abs_diff(&reference) < 1e-15);
    }

    #[test]
    fn determinant_of_diagonal() {
        let d = Mat3::from_diagonal(Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(d.determinant(), 24.0);
        let inv = d.inverse().unwrap();
        assert!(crate::approx_eq(inv.m[0][0], 0.5, 1e-15));
        assert!(crate::approx_eq(inv.m[1][1], 1.0 / 3.0, 1e-15));
    }

    #[test]
    fn transpose_involution() {
        let a = sample();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn mul_vec_linear() {
        let a = sample();
        let u = Vec3::new(1.0, 2.0, 3.0);
        let v = Vec3::new(-1.0, 0.5, 2.0);
        let lhs = a.mul_vec(u + v);
        let rhs = a.mul_vec(u) + a.mul_vec(v);
        assert!((lhs - rhs).norm() < 1e-12);
    }
}
