//! 3-D Hilbert curve keys (Skilling 2004 transpose algorithm).
//!
//! The Hilbert curve is the higher-quality of the two space-filling curves
//! Table 4 lists for the mini-app: unlike Morton order it has **no jumps**
//! — consecutive keys always address face-adjacent cells — which yields
//! more compact subdomains and therefore smaller halos. The tests verify
//! exactly that adjacency property and the locality advantage over Morton.

use sph_math::{Aabb, Vec3};
use sph_tree::morton;

/// Bits per axis used for Hilbert keys (matches the Morton resolution).
pub(crate) const BITS_PER_AXIS: u32 = morton::BITS_PER_AXIS;

/// Convert axis coordinates to the Hilbert "transpose" form, in place
/// (Skilling, AIP Conf. Proc. 707, 2004 — `AxestoTranspose`).
fn axes_to_transpose(x: &mut [u64; 3], bits: u32) {
    let m = 1u64 << (bits - 1);
    // Inverse undo.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..3 {
            if x[i] & q != 0 {
                x[0] ^= p; // invert low bits of x[0]
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..3 {
        x[i] ^= x[i - 1];
    }
    let mut t = 0;
    q = m;
    while q > 1 {
        if x[2] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }
}

/// Pack a transpose form into a single key: bit `b` of axis `a` lands at
/// key bit `3(bits−1−b) + (2−a)` — i.e. the axes interleave most
/// significant first.
fn transpose_to_key(x: &[u64; 3], bits: u32) -> u64 {
    let mut key = 0u64;
    for b in (0..bits).rev() {
        for xi in x.iter() {
            key = (key << 1) | ((xi >> b) & 1);
        }
    }
    key
}

/// Hilbert key of integer cell coordinates (each < 2^bits).
pub fn encode_cell(ix: u64, iy: u64, iz: u64, bits: u32) -> u64 {
    debug_assert!(bits <= BITS_PER_AXIS);
    debug_assert!(ix < (1 << bits) && iy < (1 << bits) && iz < (1 << bits));
    let mut x = [ix, iy, iz];
    axes_to_transpose(&mut x, bits);
    transpose_to_key(&x, bits)
}

/// Hilbert key of a point in `bounds` at full 21-bit resolution.
pub(crate) fn encode_point(p: Vec3, bounds: &Aabb) -> u64 {
    let (ix, iy, iz) = morton::cell_of_point(p, bounds);
    encode_cell(ix, iy, iz, BITS_PER_AXIS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sph_math::SplitMix64;

    /// Inverse of [`axes_to_transpose`] (Skilling `TransposetoAxes`).
    fn transpose_to_axes(x: &mut [u64; 3], bits: u32) {
        let m = 1u64 << (bits - 1);
        // Gray decode.
        let mut t = x[2] >> 1;
        for i in (1..3).rev() {
            x[i] ^= x[i - 1];
        }
        x[0] ^= t;
        // Undo excess work.
        let mut q = 2u64;
        while q != m << 1 {
            let p = q - 1;
            for i in (0..3).rev() {
                if x[i] & q != 0 {
                    x[0] ^= p;
                } else {
                    t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q <<= 1;
        }
    }

    fn key_to_transpose(key: u64, bits: u32) -> [u64; 3] {
        let mut x = [0u64; 3];
        for b in 0..(3 * bits) {
            let bit = (key >> (3 * bits - 1 - b)) & 1;
            let axis = (b % 3) as usize;
            let pos = bits - 1 - b / 3;
            x[axis] |= bit << pos;
        }
        x
    }

    /// Inverse of [`encode_cell`].
    fn decode_cell(key: u64, bits: u32) -> (u64, u64, u64) {
        let mut x = key_to_transpose(key, bits);
        transpose_to_axes(&mut x, bits);
        (x[0], x[1], x[2])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn hilbert_roundtrip(ix in 0u64..2048, iy in 0u64..2048, iz in 0u64..2048) {
            let bits = 11;
            let key = encode_cell(ix, iy, iz, bits);
            prop_assert_eq!(decode_cell(key, bits), (ix, iy, iz));
        }
    }

    #[test]
    fn roundtrip_small_grid() {
        let bits = 4;
        for ix in 0..16u64 {
            for iy in 0..16u64 {
                for iz in 0..16u64 {
                    let k = encode_cell(ix, iy, iz, bits);
                    assert_eq!(decode_cell(k, bits), (ix, iy, iz));
                }
            }
        }
    }

    #[test]
    fn roundtrip_full_resolution_random() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..500 {
            let ix = rng.next_below(1 << BITS_PER_AXIS);
            let iy = rng.next_below(1 << BITS_PER_AXIS);
            let iz = rng.next_below(1 << BITS_PER_AXIS);
            let k = encode_cell(ix, iy, iz, BITS_PER_AXIS);
            assert_eq!(decode_cell(k, BITS_PER_AXIS), (ix, iy, iz));
        }
    }

    #[test]
    fn keys_are_a_bijection_on_small_grid() {
        let bits = 3;
        let mut seen = vec![false; 512];
        for ix in 0..8u64 {
            for iy in 0..8u64 {
                for iz in 0..8u64 {
                    let k = encode_cell(ix, iy, iz, bits) as usize;
                    assert!(k < 512);
                    assert!(!seen[k], "duplicate key {k}");
                    seen[k] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn consecutive_keys_are_face_adjacent() {
        // The defining Hilbert property: walking the curve in key order
        // moves exactly one cell along exactly one axis each step.
        // (Morton order violates this massively — see the locality test.)
        let bits = 3;
        let mut cells = vec![(0u64, 0u64, 0u64); 512];
        for ix in 0..8u64 {
            for iy in 0..8u64 {
                for iz in 0..8u64 {
                    cells[encode_cell(ix, iy, iz, bits) as usize] = (ix, iy, iz);
                }
            }
        }
        for w in cells.windows(2) {
            let (a, b) = (w[0], w[1]);
            let d = (a.0 as i64 - b.0 as i64).abs()
                + (a.1 as i64 - b.1 as i64).abs()
                + (a.2 as i64 - b.2 as i64).abs();
            assert_eq!(d, 1, "jump between {a:?} and {b:?}");
        }
    }

    #[test]
    fn hilbert_beats_morton_on_segment_spread() {
        // Sum of Euclidean jumps along the curve: Hilbert = n−1 exactly
        // (each step length 1); Morton has long jumps.
        let bits = 3;
        let n = 512usize;
        let mut hilbert_cells = vec![(0i64, 0i64, 0i64); n];
        let mut morton_keys = Vec::with_capacity(n);
        for ix in 0..8u64 {
            for iy in 0..8u64 {
                for iz in 0..8u64 {
                    hilbert_cells[encode_cell(ix, iy, iz, bits) as usize] =
                        (ix as i64, iy as i64, iz as i64);
                    // Rescale to the top bits for the shared morton encoder.
                    let shift = morton::BITS_PER_AXIS - bits;
                    morton_keys.push((
                        morton::encode_cell(ix << shift, iy << shift, iz << shift),
                        (ix as i64, iy as i64, iz as i64),
                    ));
                }
            }
        }
        morton_keys.sort_unstable();
        let jump = |a: (i64, i64, i64), b: (i64, i64, i64)| {
            (((a.0 - b.0).pow(2) + (a.1 - b.1).pow(2) + (a.2 - b.2).pow(2)) as f64).sqrt()
        };
        let h_total: f64 = hilbert_cells.windows(2).map(|w| jump(w[0], w[1])).sum();
        let m_total: f64 = morton_keys.windows(2).map(|w| jump(w[0].1, w[1].1)).sum();
        assert!((h_total - (n - 1) as f64).abs() < 1e-9);
        assert!(m_total > 1.3 * h_total, "morton {m_total} vs hilbert {h_total}");
    }

    #[test]
    fn curve_starts_at_origin() {
        assert_eq!(encode_cell(0, 0, 0, 5), 0);
    }

    #[test]
    fn point_encoding_orders_spatially_close_points_together() {
        let b = Aabb::unit();
        let near1 = encode_point(Vec3::new(0.1, 0.1, 0.1), &b);
        let near2 = encode_point(Vec3::new(0.1001, 0.1, 0.1), &b);
        let far = encode_point(Vec3::new(0.9, 0.9, 0.9), &b);
        let d_near = near1.abs_diff(near2);
        let d_far = near1.abs_diff(far);
        assert!(d_near < d_far);
    }
}
