//! 63-bit Morton (Z-order) keys: 21 bits per axis.
//!
//! The same key serves two purposes in the reproduction, just as in the real
//! SPH-EXA code base that followed the paper: it orders particles for the
//! linear octree (`sph-tree::octree`) and it is one of the two space-filling
//! curves offered by the domain decomposition (Table 4, "Domain
//! Decomposition: … Space Filling Curves").

use sph_math::{Aabb, Vec3};

/// Bits of resolution per axis.
pub const BITS_PER_AXIS: u32 = 21;
/// Number of cells per axis at maximum refinement.
pub(crate) const CELLS_PER_AXIS: u64 = 1 << BITS_PER_AXIS;

/// Spread the low 21 bits of `v` so consecutive bits land 3 apart
/// (the classic "dilate by 3" bit trick).
#[inline]
pub(crate) fn spread_bits(v: u64) -> u64 {
    let mut x = v & 0x1F_FFFF; // 21 bits
    x = (x | (x << 32)) & 0x1F00000000FFFF;
    x = (x | (x << 16)) & 0x1F0000FF0000FF;
    x = (x | (x << 8)) & 0x100F00F00F00F00F;
    x = (x | (x << 4)) & 0x10C30C30C30C30C3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

/// Interleave three 21-bit integer coordinates into a Morton key.
/// Bit layout: x occupies bit 0, y bit 1, z bit 2 of each triple, matching
/// the octant numbering of [`sph_math::Aabb::octant`].
#[inline]
pub fn encode_cell(ix: u64, iy: u64, iz: u64) -> u64 {
    debug_assert!(ix < CELLS_PER_AXIS && iy < CELLS_PER_AXIS && iz < CELLS_PER_AXIS);
    spread_bits(ix) | (spread_bits(iy) << 1) | (spread_bits(iz) << 2)
}

/// Quantise a point inside `bounds` to integer cell coordinates.
///
/// Non-finite coordinates abort: `NaN.clamp(0.0, 1.0)` is `NaN` and
/// `NaN as u64` is 0, so a NaN position would silently land in cell
/// (0, 0, 0) and scramble the octree ordering instead of failing loudly —
/// the callers that know the particle index (octree build) check first and
/// name the offender.
#[inline]
pub fn cell_of_point(p: Vec3, bounds: &Aabb) -> (u64, u64, u64) {
    assert!(p.is_finite(), "cannot Morton-quantise non-finite point {p:?}");
    let n = bounds.normalize(p);
    let quantise = |t: f64| -> u64 {
        let clamped = t.clamp(0.0, 1.0);
        // The hi face maps to the last cell, not one past it.
        ((clamped * CELLS_PER_AXIS as f64) as u64).min(CELLS_PER_AXIS - 1)
    };
    (quantise(n.x), quantise(n.y), quantise(n.z))
}

/// Morton key of a point inside `bounds`.
#[inline]
pub fn encode_point(p: Vec3, bounds: &Aabb) -> u64 {
    let (ix, iy, iz) = cell_of_point(p, bounds);
    encode_cell(ix, iy, iz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sph_math::SplitMix64;

    // The decoders invert the encoders; the round trips below test the
    // encoders against them.

    /// Inverse of [`spread_bits`].
    fn compact_bits(v: u64) -> u64 {
        let mut x = v & 0x1249249249249249;
        x = (x | (x >> 2)) & 0x10C30C30C30C30C3;
        x = (x | (x >> 4)) & 0x100F00F00F00F00F;
        x = (x | (x >> 8)) & 0x1F0000FF0000FF;
        x = (x | (x >> 16)) & 0x1F00000000FFFF;
        x = (x | (x >> 32)) & 0x1F_FFFF;
        x
    }

    /// Recover the integer cell coordinates from a key.
    fn decode_cell(key: u64) -> (u64, u64, u64) {
        (compact_bits(key), compact_bits(key >> 1), compact_bits(key >> 2))
    }

    /// Centre of the cell a key addresses, mapped back into `bounds`.
    fn decode_point(key: u64, bounds: &Aabb) -> Vec3 {
        let (ix, iy, iz) = decode_cell(key);
        let e = bounds.extent();
        let f = |i: u64, lo: f64, span: f64| lo + (i as f64 + 0.5) / CELLS_PER_AXIS as f64 * span;
        Vec3::new(f(ix, bounds.lo.x, e.x), f(iy, bounds.lo.y, e.y), f(iz, bounds.lo.z, e.z))
    }

    #[test]
    fn spread_compact_roundtrip() {
        for v in [0u64, 1, 2, 0x155555, 0x1F_FFFF, 12345, 99999] {
            assert_eq!(compact_bits(spread_bits(v)), v, "v = {v:#x}");
        }
    }

    #[test]
    fn encode_decode_roundtrip_random() {
        let mut rng = SplitMix64::new(17);
        for _ in 0..1000 {
            let ix = rng.next_below(CELLS_PER_AXIS);
            let iy = rng.next_below(CELLS_PER_AXIS);
            let iz = rng.next_below(CELLS_PER_AXIS);
            assert_eq!(decode_cell(encode_cell(ix, iy, iz)), (ix, iy, iz));
        }
    }

    #[test]
    fn key_fits_63_bits() {
        let max = encode_cell(CELLS_PER_AXIS - 1, CELLS_PER_AXIS - 1, CELLS_PER_AXIS - 1);
        assert!(max < (1u64 << 63));
    }

    #[test]
    fn octant_bit_convention() {
        // The three lowest bits of the key of cell (1,0,0) vs (0,1,0) vs
        // (0,0,1) must match the AABB octant convention: x → bit 0 etc.
        assert_eq!(encode_cell(1, 0, 0) & 0b111, 0b001);
        assert_eq!(encode_cell(0, 1, 0) & 0b111, 0b010);
        assert_eq!(encode_cell(0, 0, 1) & 0b111, 0b100);
    }

    #[test]
    fn locality_of_z_order() {
        // Points in the same octant of the root share the top key bits:
        // everything in the low half of x has bit 62-ish... simpler check:
        // the key of a point in the low corner is smaller than in the high
        // corner.
        let b = Aabb::unit();
        let lo = encode_point(Vec3::splat(0.01), &b);
        let hi = encode_point(Vec3::splat(0.99), &b);
        assert!(lo < hi);
    }

    #[test]
    fn point_roundtrip_within_cell() {
        let b = Aabb::new(Vec3::new(-3.0, 2.0, 0.0), Vec3::new(5.0, 4.0, 9.0));
        let mut rng = SplitMix64::new(23);
        for _ in 0..200 {
            let p = Vec3::new(
                rng.uniform(b.lo.x, b.hi.x),
                rng.uniform(b.lo.y, b.hi.y),
                rng.uniform(b.lo.z, b.hi.z),
            );
            let back = decode_point(encode_point(p, &b), &b);
            // Error bounded by one cell diagonal.
            let cell = b.extent() / CELLS_PER_AXIS as f64;
            assert!((back - p).abs().max_component() <= cell.max_component());
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_coordinates_fail_loudly_instead_of_cell_zero() {
        // Regression: NaN.clamp(0,1) as u64 == 0 used to map NaN silently
        // to cell (0,0,0), scrambling the octree.
        let _ = cell_of_point(Vec3::new(0.5, f64::NAN, 0.5), &Aabb::unit());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn infinite_coordinates_fail_loudly() {
        let _ = encode_point(Vec3::new(f64::INFINITY, 0.5, 0.5), &Aabb::unit());
    }

    #[test]
    fn boundary_points_are_clamped() {
        let b = Aabb::unit();
        // Exactly on the hi face and beyond must not overflow the grid.
        let k1 = encode_point(Vec3::ONE, &b);
        let k2 = encode_point(Vec3::splat(7.0), &b);
        assert_eq!(k1, k2);
        let (ix, iy, iz) = decode_cell(k1);
        assert_eq!((ix, iy, iz), (CELLS_PER_AXIS - 1, CELLS_PER_AXIS - 1, CELLS_PER_AXIS - 1));
        let k3 = encode_point(Vec3::splat(-2.0), &b);
        assert_eq!(decode_cell(k3), (0, 0, 0));
    }

    #[test]
    fn sorted_keys_follow_z_curve_order() {
        // Classic 2×2×2 check: the eight cell keys 0..8 enumerate octants
        // in x-fastest order.
        let mut keys = Vec::new();
        for iz in 0..2u64 {
            for iy in 0..2u64 {
                for ix in 0..2u64 {
                    keys.push(encode_cell(
                        ix << (BITS_PER_AXIS - 1),
                        iy << (BITS_PER_AXIS - 1),
                        iz << (BITS_PER_AXIS - 1),
                    ));
                }
            }
        }
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
