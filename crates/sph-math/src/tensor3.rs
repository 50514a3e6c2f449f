//! Symmetric rank-3 tensors.
//!
//! The octupole term of the Barnes–Hut multipole expansion needs the
//! third moment `S_abc = Σ m d_a d_b d_c` of each tree node. `S` is fully
//! symmetric, so only the 10 components with `a ≤ b ≤ c` are stored. The
//! contractions the field evaluation needs are `S:xx → vector`
//! (`(S:xx)_a = S_abc x_b x_c`) and `S:xxx → scalar`.

use crate::vec3::Vec3;

/// Fully symmetric 3×3×3 tensor, canonical storage order:
/// `[xxx, xxy, xxz, xyy, xyz, xzz, yyy, yyz, yzz, zzz]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SymTensor3 {
    pub c: [f64; 10],
}

/// Map (a, b, c) with a ≤ b ≤ c to the canonical index.
#[inline]
fn canon(a: usize, b: usize, c: usize) -> usize {
    debug_assert!(a <= b && b <= c && c < 3);
    match (a, b, c) {
        (0, 0, 0) => 0,
        (0, 0, 1) => 1,
        (0, 0, 2) => 2,
        (0, 1, 1) => 3,
        (0, 1, 2) => 4,
        (0, 2, 2) => 5,
        (1, 1, 1) => 6,
        (1, 1, 2) => 7,
        (1, 2, 2) => 8,
        (2, 2, 2) => 9,
        _ => unreachable!(),
    }
}

impl SymTensor3 {
    pub const ZERO: SymTensor3 = SymTensor3 { c: [0.0; 10] };

    /// Component `S_abc` for any index order.
    #[inline]
    pub(crate) fn get(&self, mut a: usize, mut b: usize, mut c: usize) -> f64 {
        // Sort the three indices (network for 3 elements).
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        if b > c {
            std::mem::swap(&mut b, &mut c);
        }
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        self.c[canon(a, b, c)]
    }

    /// `self += w · (v ⊗ v ⊗ v)` — the moment accumulation primitive.
    #[inline]
    pub fn add_scaled_cube(&mut self, v: Vec3, w: f64) {
        let [x, y, z] = v.to_array();
        self.c[0] += w * x * x * x;
        self.c[1] += w * x * x * y;
        self.c[2] += w * x * x * z;
        self.c[3] += w * x * y * y;
        self.c[4] += w * x * y * z;
        self.c[5] += w * x * z * z;
        self.c[6] += w * y * y * y;
        self.c[7] += w * y * y * z;
        self.c[8] += w * y * z * z;
        self.c[9] += w * z * z * z;
    }

    /// `self += w · sym(s ⊗ m2)` where `sym` symmetrises
    /// `s_a m2_bc + s_b m2_ac + s_c m2_ab` — the parallel-axis shift term
    /// (`m2` must be symmetric).
    pub fn add_scaled_sym_outer(&mut self, s: Vec3, m2: &crate::mat3::Mat3, w: f64) {
        for a in 0..3 {
            for b in a..3 {
                for c in b..3 {
                    let term = s.component(a) * m2.m[b][c]
                        + s.component(b) * m2.m[a][c]
                        + s.component(c) * m2.m[a][b];
                    self.c[canon(a, b, c)] += w * term;
                }
            }
        }
    }

    /// Vector contraction `(S:xx)_a = S_abc x_b x_c`.
    #[inline]
    pub fn contract_twice(&self, x: Vec3) -> Vec3 {
        let mut out = Vec3::ZERO;
        for a in 0..3 {
            let mut s = 0.0;
            for b in 0..3 {
                for c in 0..3 {
                    // Fixed 9-term contraction in the octupole stream;
                    // frozen by the gravity bit-identity contract.
                    s += self.get(a, b, c) * x.component(b) * x.component(c);
                }
            }
            *out.component_mut(a) = s;
        }
        out
    }
}

impl std::ops::Add for SymTensor3 {
    type Output = SymTensor3;
    fn add(mut self, o: SymTensor3) -> SymTensor3 {
        for k in 0..10 {
            self.c[k] += o.c[k];
        }
        self
    }
}

impl std::ops::AddAssign for SymTensor3 {
    fn add_assign(&mut self, o: SymTensor3) {
        for k in 0..10 {
            self.c[k] += o.c[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat3::Mat3;
    use crate::SplitMix64;

    fn rand_vec(rng: &mut SplitMix64) -> Vec3 {
        Vec3::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    }

    #[test]
    fn cube_components() {
        let mut s = SymTensor3::ZERO;
        let v = Vec3::new(2.0, 3.0, 5.0);
        s.add_scaled_cube(v, 1.0);
        assert_eq!(s.get(0, 0, 0), 8.0);
        assert_eq!(s.get(0, 1, 2), 30.0);
        // Symmetry under index permutation.
        assert_eq!(s.get(2, 1, 0), 30.0);
        assert_eq!(s.get(1, 0, 2), 30.0);
        assert_eq!(s.get(2, 2, 1), 75.0);
    }

    #[test]
    fn contractions_match_naive_loops() {
        let mut rng = SplitMix64::new(4);
        let mut s = SymTensor3::ZERO;
        let pts: Vec<(Vec3, f64)> =
            (0..5).map(|_| (rand_vec(&mut rng), rng.uniform(0.1, 2.0))).collect();
        for &(v, w) in &pts {
            s.add_scaled_cube(v, w);
        }
        let x = rand_vec(&mut rng);
        // Naive: Σ w (v·x)² v for the double contraction.
        let mut expect_vec = Vec3::ZERO;
        for &(v, w) in &pts {
            let vx = v.dot(x);
            expect_vec += v * (w * vx * vx);
        }
        assert!((s.contract_twice(x) - expect_vec).norm() < 1e-12);
    }

    #[test]
    fn sym_outer_matches_explicit_symmetrisation() {
        let mut rng = SplitMix64::new(9);
        let sv = rand_vec(&mut rng);
        let v = rand_vec(&mut rng);
        let m2 = {
            let mut m = Mat3::ZERO;
            m.add_scaled_outer(v, 1.3);
            m
        };
        let mut s = SymTensor3::ZERO;
        s.add_scaled_sym_outer(sv, &m2, 0.7);
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    let expect = 0.7
                        * (sv.component(a) * m2.m[b][c]
                            + sv.component(b) * m2.m[a][c]
                            + sv.component(c) * m2.m[a][b]);
                    assert!(
                        (s.get(a, b, c) - expect).abs() < 1e-12,
                        "S[{a}{b}{c}] = {} vs {expect}",
                        s.get(a, b, c)
                    );
                }
            }
        }
    }

    #[test]
    fn addition_is_componentwise() {
        let mut a = SymTensor3::ZERO;
        a.add_scaled_cube(Vec3::X, 1.0);
        let mut b = SymTensor3::ZERO;
        b.add_scaled_cube(Vec3::Y, 2.0);
        let c = a + b;
        assert_eq!(c.get(0, 0, 0), 1.0);
        assert_eq!(c.get(1, 1, 1), 2.0);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }
}
