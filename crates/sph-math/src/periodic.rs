//! Per-axis periodic boundary handling.
//!
//! The paper's rotating square patch is the 2-D Colagrossi test extruded 100
//! layers along z with **periodic boundary conditions in the z direction**
//! (§5.1). The Evrard collapse is fully open. We therefore need a metric that
//! is periodic on an arbitrary subset of axes: distances use the minimum
//! image convention on periodic axes and plain Euclidean distance elsewhere.

use crate::aabb::Aabb;
use crate::vec3::Vec3;

/// Which axes wrap, and over what box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Periodicity {
    /// Domain over which periodic axes wrap.
    pub domain: Aabb,
    /// `periodic[axis]` is true when that axis wraps.
    pub periodic: [bool; 3],
}

/// Fold one displacement component into `(-span/2, span/2]`:
/// `c − span·round(c/span)`, without the divide when it cannot matter.
///
/// Every pair loop calls this three times per pair on a periodic box, and
/// nearly every pair is nowhere near the wrap. For `|c| < 0.49·span` (a
/// finite product) the quotient rounds to a value strictly inside (−½, ½),
/// `round` gives ±0, `span·(±0)` is ±0, and `c − (±0)` is `c` for `c ≠ 0`
/// and `+0.0` for `c = ±0.0` — which is `c + 0.0`, bit for bit. NaN fails
/// the comparison and an infinite span fails the finiteness test (there
/// `span·0` is NaN), so both take the full expression like every
/// component near or beyond the half span.
#[inline]
fn fold_min_image(c: f64, span: f64) -> f64 {
    let near = 0.49 * span;
    if c.abs() < near && near < f64::INFINITY {
        c + 0.0
    } else {
        c - span * (c / span).round()
    }
}

impl Periodicity {
    /// No periodic axes; the domain is kept only for reference.
    pub fn open(domain: Aabb) -> Self {
        Periodicity { domain, periodic: [false; 3] }
    }

    /// All three axes periodic.
    pub fn fully_periodic(domain: Aabb) -> Self {
        Periodicity { domain, periodic: [true; 3] }
    }

    /// Periodic along z only — the square-patch configuration.
    pub fn periodic_z(domain: Aabb) -> Self {
        Periodicity { domain, periodic: [false, false, true] }
    }

    /// Length of the domain along `axis`.
    #[inline]
    fn span(&self, axis: usize) -> f64 {
        self.domain.extent().component(axis)
    }

    /// Minimum-image displacement `a - b`.
    ///
    /// On periodic axes the component is folded into `(-L/2, L/2]`; on open
    /// axes it is the plain difference.
    #[inline]
    pub fn displacement(&self, a: Vec3, b: Vec3) -> Vec3 {
        let mut d = a - b;
        for axis in 0..3 {
            if self.periodic[axis] {
                let span = self.span(axis);
                if span > 0.0 {
                    let c = d.component_mut(axis);
                    *c = fold_min_image(*c, span);
                }
            }
        }
        d
    }

    /// Minimum-image distance.
    #[inline]
    pub fn distance(&self, a: Vec3, b: Vec3) -> f64 {
        self.displacement(a, b).norm()
    }

    /// Wrap a position back into the primary domain on periodic axes.
    /// Open axes are untouched (particles may leave the reference box, as in
    /// the free-surface square patch).
    pub fn wrap(&self, mut p: Vec3) -> Vec3 {
        for axis in 0..3 {
            if self.periodic[axis] {
                let lo = self.domain.lo.component(axis);
                let span = self.span(axis);
                if span > 0.0 {
                    let c = p.component_mut(axis);
                    let mut t = (*c - lo) % span;
                    if t < 0.0 {
                        // A single add canonicalises the remainder into [0, span).
                        t += span;
                    }
                    *c = lo + t;
                }
            }
        }
        p
    }

    /// Offsets of the periodic images of `p` that can lie within `r` of a
    /// point of the primary domain — the images a ball query scans and the
    /// ghost copies the halo exchange must consider. `f` sees `Vec3::ZERO`
    /// first, then every combination of the per-axis face shifts (at most
    /// 2³ offsets); nothing is allocated.
    pub fn for_each_ghost_offset(&self, p: Vec3, r: f64, mut f: impl FnMut(Vec3)) {
        let mut shift = [0.0f64; 3];
        for (axis, shift_axis) in shift.iter_mut().enumerate() {
            if !self.periodic[axis] {
                continue;
            }
            let span = self.span(axis);
            if span <= 0.0 {
                continue;
            }
            let lo = self.domain.lo.component(axis);
            let hi = self.domain.hi.component(axis);
            let c = p.component(axis);
            if c - lo < r {
                *shift_axis = span; // near low face: image appears above hi
            } else if hi - c < r {
                *shift_axis = -span; // near high face: image appears below lo
            }
        }
        for mask in 0u32..8 {
            let mut offset = Vec3::ZERO;
            let mut skip = false;
            for (axis, &s) in shift.iter().enumerate() {
                if mask & (1 << axis) != 0 {
                    if s == 0.0 {
                        skip = true; // this axis has no image: mask duplicates another
                        break;
                    }
                    *offset.component_mut(axis) = s;
                }
            }
            if !skip {
                f(offset);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn unit_z() -> Periodicity {
        Periodicity::periodic_z(Aabb::unit())
    }

    #[test]
    fn open_metric_is_euclidean() {
        let p = Periodicity::open(Aabb::unit());
        let a = Vec3::new(0.1, 0.1, 0.05);
        let b = Vec3::new(0.1, 0.1, 0.95);
        assert!(approx_eq(p.distance(a, b), 0.9, 1e-15));
    }

    #[test]
    fn periodic_z_wraps_distance() {
        let p = unit_z();
        let a = Vec3::new(0.1, 0.1, 0.05);
        let b = Vec3::new(0.1, 0.1, 0.95);
        // Across the wrap the separation is 0.1, not 0.9.
        assert!(approx_eq(p.distance(a, b), 0.1, 1e-12));
        // x/y remain open.
        let c = Vec3::new(0.95, 0.1, 0.05);
        assert!(approx_eq(p.distance(a, c), 0.85, 1e-12));
    }

    #[test]
    fn displacement_sign() {
        let p = unit_z();
        let a = Vec3::new(0.0, 0.0, 0.05);
        let b = Vec3::new(0.0, 0.0, 0.95);
        let d = p.displacement(a, b);
        assert!(approx_eq(d.z, 0.1, 1e-12), "d.z = {}", d.z);
        let d2 = p.displacement(b, a);
        assert!(approx_eq(d2.z, -0.1, 1e-12));
    }

    #[test]
    fn wrap_into_domain() {
        let p = unit_z();
        let w = p.wrap(Vec3::new(2.5, -0.5, 1.25));
        // Only z is wrapped.
        assert_eq!(w.x, 2.5);
        assert_eq!(w.y, -0.5);
        assert!(approx_eq(w.z, 0.25, 1e-12));
        let w2 = p.wrap(Vec3::new(0.0, 0.0, -0.25));
        assert!(approx_eq(w2.z, 0.75, 1e-12));
    }

    #[test]
    fn wrap_is_idempotent() {
        let p = Periodicity::fully_periodic(Aabb::unit());
        let q = Vec3::new(3.7, -1.2, 0.4);
        let once = p.wrap(q);
        let twice = p.wrap(once);
        assert!((once - twice).norm() < 1e-12);
        assert!(p.domain.contains(once));
    }

    fn image_offsets(per: &Periodicity, p: Vec3, r: f64) -> Vec<Vec3> {
        let mut offs = Vec::new();
        per.for_each_ghost_offset(p, r, |o| offs.push(o));
        offs
    }

    #[test]
    fn image_offsets_near_face() {
        let p = unit_z();
        // Deep interior: only the identity offset.
        assert_eq!(image_offsets(&p, Vec3::splat(0.5), 0.1), [Vec3::ZERO]);
        // Near the low z face: one image shifted by +1 in z.
        let offs = image_offsets(&p, Vec3::new(0.5, 0.5, 0.02), 0.1);
        assert_eq!(offs, [Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0)]);
        // Near the high z face: image shifted by -1.
        let offs = image_offsets(&p, Vec3::new(0.5, 0.5, 0.98), 0.1);
        assert_eq!(offs, [Vec3::ZERO, Vec3::new(0.0, 0.0, -1.0)]);
    }

    #[test]
    fn image_offsets_corner_fully_periodic() {
        let p = Periodicity::fully_periodic(Aabb::unit());
        // Corner point near (0,0,0): 2^3 = 8 distinct images, identity first.
        let offs = image_offsets(&p, Vec3::splat(0.01), 0.05);
        assert_eq!(offs.len(), 8);
        assert_eq!(offs[0], Vec3::ZERO);
        for (k, a) in offs.iter().enumerate() {
            assert!(offs[..k].iter().all(|b| b != a), "offset {a:?} repeated");
        }
        // A zero-span periodic axis has no image to offer.
        let flat = Periodicity::periodic_z(Aabb { lo: Vec3::ZERO, hi: Vec3::new(1.0, 1.0, 0.0) });
        assert_eq!(image_offsets(&flat, Vec3::ZERO, 0.5), [Vec3::ZERO]);
    }

    /// `displacement` as it was before the divide-free branch: the
    /// oracle of the exactness property below.
    fn displacement_reference(per: &Periodicity, a: Vec3, b: Vec3) -> Vec3 {
        let mut d = a - b;
        for axis in 0..3 {
            if per.periodic[axis] {
                let span = per.span(axis);
                if span > 0.0 {
                    let c = d.component_mut(axis);
                    *c -= span * (*c / span).round();
                }
            }
        }
        d
    }

    #[test]
    fn displacement_is_bit_identical_to_the_divide_and_round_form() {
        use crate::rng::SplitMix64;
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let masks =
            [[true, false, false], [false, true, false], [false, false, true], [true, true, true]];
        let mut rng = SplitMix64::new(0xD15B);
        let mut checked = 0usize;
        for span in [1.0, 1.0 / 3.0, 1e-300, 1e300, f64::INFINITY, 0.0] {
            let near = 0.49 * span;
            let mut cs = vec![
                0.0,
                f64::MIN_POSITIVE,
                near,
                0.5 * span,
                span,
                1.5 * span,
                7.3 * span,
                f64::INFINITY,
            ];
            if near > 0.0 && near.is_finite() {
                cs.extend([up(near), down(near)]);
            }
            // Random draws over ±1.6 spans, denser around the branch point
            // and the half span where the fold changes value.
            let scale = if span.is_finite() && span > 0.0 { span } else { 1.0 };
            for k in 0..2_000 {
                cs.push(match k % 4 {
                    0 => scale * rng.uniform(0.0, 1.6),
                    1 => scale * rng.uniform(0.48, 0.51),
                    2 => scale * rng.uniform(0.0, 0.49),
                    _ => scale * rng.uniform(0.0, 1e-12),
                });
            }
            cs.push(f64::NAN);
            for &mag in &cs {
                for c in [mag, -mag] {
                    for periodic in masks {
                        let per = Periodicity {
                            domain: Aabb { lo: Vec3::ZERO, hi: Vec3::splat(span) },
                            periodic,
                        };
                        let got = per.displacement(Vec3::splat(c), Vec3::ZERO);
                        let want = displacement_reference(&per, Vec3::splat(c), Vec3::ZERO);
                        for axis in 0..3 {
                            let (g, w) = (got.component(axis), want.component(axis));
                            // Which NaN an operation returns (sign, payload)
                            // is not specified; that it is one is.
                            assert!(
                                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                                "c = {c:e}, span = {span:e}, periodic {periodic:?}, axis {axis}: \
                                 {g:e} vs {w:e}"
                            );
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 10_000, "only {checked} draws");
    }

    #[test]
    fn minimum_image_never_exceeds_half_span() {
        let p = Periodicity::fully_periodic(Aabb::unit());
        let a = Vec3::new(0.9, 0.9, 0.9);
        let b = Vec3::new(0.1, 0.1, 0.1);
        let d = p.displacement(a, b);
        assert!(d.x.abs() <= 0.5 + 1e-12 && d.y.abs() <= 0.5 + 1e-12 && d.z.abs() <= 0.5 + 1e-12);
    }
}
