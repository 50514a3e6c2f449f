//! Lane buffers shared by the SPH pair loops.
//!
//! Every pass walks a particle's CSR row in blocks of at most [`LANES`]
//! neighbours, in two phases. The *lane phase* fills stack buffers — the
//! minimum-image displacement components, the distance, `q = r/h`, the
//! kernel shape, the normalised kernel factor — in loops whose iterations
//! do not depend on each other, so the compiler emits packed square roots
//! and divisions at whatever vector width the target has. The *ordered
//! fold* then adds the block's pair terms to the particle's sums one
//! neighbour at a time, in row order, exactly as a one-pair-at-a-time loop
//! would. Every pair goes through the same IEEE operations in the same
//! per-particle order as that loop (each pass keeps it as its
//! `#[cfg(test)]` oracle), so no result depends on the lane width.

use crate::config::GradientScheme;
use crate::particles::ParticleSystem;
use sph_kernels::Kernel;
use sph_math::{Mat3, Vec3};

/// Neighbours per block of a lane phase. A typical row (50–100
/// neighbours) is two or three blocks, the last one partial.
pub(crate) const LANES: usize = 32;

/// One block's pair geometry: minimum-image displacement `r_i − r_j` and
/// its norm, per lane.
pub(crate) struct PairLanes {
    pub dx: [f64; LANES],
    pub dy: [f64; LANES],
    pub dz: [f64; LANES],
    pub r: [f64; LANES],
}

impl PairLanes {
    pub(crate) fn new() -> Self {
        PairLanes { dx: [0.0; LANES], dy: [0.0; LANES], dz: [0.0; LANES], r: [0.0; LANES] }
    }

    /// Load the block `ids` of particle `xi`'s row: displacements through
    /// the periodic metric, then `r = √(dx·dx + dy·dy + dz·dz)` — the
    /// operation order of `Vec3::norm`.
    #[inline]
    pub(crate) fn gather(&mut self, sys: &ParticleSystem, xi: Vec3, ids: &[u32]) {
        let n = ids.len();
        let (dx, dy, dz) = (&mut self.dx[..n], &mut self.dy[..n], &mut self.dz[..n]);
        for (((dx, dy), dz), &j) in dx.iter_mut().zip(dy.iter_mut()).zip(dz.iter_mut()).zip(ids) {
            let d = sys.periodicity.displacement(xi, sys.x[j as usize]);
            (*dx, *dy, *dz) = (d.x, d.y, d.z);
        }
        let d = self.dx[..n].iter().zip(&self.dy[..n]).zip(&self.dz[..n]);
        for (r, ((&dx, &dy), &dz)) in self.r[..n].iter_mut().zip(d) {
            *r = (dx * dx + dy * dy + dz * dz).sqrt();
        }
    }

    /// Displacement of lane `k`.
    #[inline]
    pub(crate) fn d(&self, k: usize) -> Vec3 {
        Vec3::new(self.dx[k], self.dy[k], self.dz[k])
    }
}

/// The function of `(r, h)` a lane evaluates for a pair: the two forms
/// the effective kernel gradient of [`crate::gradients`] is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PairKernel {
    /// `W(r, h)` — what the IAD gradient `C·(r_j − r_i)·W` scales with.
    Value,
    /// `(∂W/∂r)/r` — what the analytic gradient `d·(∂W/∂r)/r` scales with.
    /// `0/0` at `r = 0`: the fold must test `r` before it reads the lane.
    SlopeOverR,
}

impl PairKernel {
    /// The form a particle's effective gradient takes: the analytic
    /// derivative, also as IAD's fallback where the matrix is the zero
    /// (singular) marker.
    #[inline]
    pub(crate) fn of(scheme: GradientScheme, c: &Mat3) -> Self {
        match scheme {
            GradientScheme::Iad if *c != Mat3::ZERO => PairKernel::Value,
            _ => PairKernel::SlopeOverR,
        }
    }

    /// The h-only factor of the form (see the association contract of
    /// `Kernel::w_norm`).
    #[inline]
    pub(crate) fn norm(self, kernel: &dyn Kernel, h: f64) -> f64 {
        match self {
            PairKernel::Value => kernel.w_norm(h),
            PairKernel::SlopeOverR => kernel.dw_norm(h),
        }
    }

    /// Lane phase: `out[k]` is the form at `(r[k], h)` for each lane's
    /// `(norm, h)` — `norm · w_shape(r/h)`, or `norm · dw_shape(r/h) / r`,
    /// the operations of `Kernel::w` and of `Kernel::dw_dr(r, h) / r`.
    /// `q` is scratch of the same length.
    #[inline]
    pub(crate) fn eval(
        self,
        kernel: &dyn Kernel,
        r: &[f64],
        norm_h: impl Iterator<Item = (f64, f64)> + Clone,
        q: &mut [f64],
        out: &mut [f64],
    ) {
        let n = r.len();
        let (q, out) = (&mut q[..n], &mut out[..n]);
        for ((q, &r), (_, h)) in q.iter_mut().zip(r).zip(norm_h.clone()) {
            *q = r / h;
        }
        match self {
            PairKernel::Value => {
                kernel.w_shape_lanes(q, out);
                for (o, (norm, _)) in out.iter_mut().zip(norm_h) {
                    let shape = *o;
                    *o = norm * shape;
                }
            }
            PairKernel::SlopeOverR => {
                kernel.dw_shape_lanes(q, out);
                for ((o, &r), (norm, _)) in out.iter_mut().zip(r).zip(norm_h) {
                    let shape = *o;
                    *o = norm * shape / r;
                }
            }
        }
    }

    /// Fold side: the effective gradient of a pair from its lane value
    /// `s` — `effective_gradient` with the kernel call taken out.
    #[inline]
    pub(crate) fn gradient(self, c: &Mat3, d: Vec3, r: f64, s: f64) -> Vec3 {
        match self {
            PairKernel::Value => c.mul_vec(-d) * s,
            PairKernel::SlopeOverR => {
                if r <= 0.0 {
                    Vec3::ZERO
                } else {
                    d * s
                }
            }
        }
    }
}

/// The lane buffers of one particle's row walk: each block's pair
/// geometry and one [`PairKernel`] form evaluated at the particle's own
/// smoothing length — `W_ij(h_i)` for the volume and IAD sums, the factor
/// of the effective gradient `g_ij(h_i, C_i)` for the gradient and force
/// sums. Declared once per particle; [`TargetLanes::lane_phase`] is the lane
/// phase of a block, the caller's loop over the block is the ordered fold.
pub(crate) struct TargetLanes<'a> {
    sys: &'a ParticleSystem,
    kernel: &'a dyn Kernel,
    xi: Vec3,
    h: f64,
    form: PairKernel,
    norm: f64,
    q: [f64; LANES],
    /// Geometry of the loaded block.
    pub pairs: PairLanes,
    /// The form's value per lane of the loaded block.
    pub s: [f64; LANES],
}

impl<'a> TargetLanes<'a> {
    pub(crate) fn new(
        sys: &'a ParticleSystem,
        kernel: &'a dyn Kernel,
        i: usize,
        form: PairKernel,
    ) -> Self {
        let h = sys.h[i];
        TargetLanes {
            sys,
            kernel,
            xi: sys.x[i],
            h,
            form,
            norm: form.norm(kernel, h),
            q: [0.0; LANES],
            pairs: PairLanes::new(),
            s: [0.0; LANES],
        }
    }

    /// Lane phase of the block `ids` (≤ [`LANES`] ids of the row).
    #[inline]
    pub(crate) fn lane_phase(&mut self, ids: &[u32]) {
        self.pairs.gather(self.sys, self.xi, ids);
        let norm_h = std::iter::repeat((self.norm, self.h));
        self.form.eval(self.kernel, &self.pairs.r[..ids.len()], norm_h, &mut self.q, &mut self.s);
    }

    /// Effective gradient `g_ij(h_i, C_i)` of lane `k` of the loaded
    /// block (`c` is the particle's IAD matrix).
    #[inline]
    pub(crate) fn gradient(&self, c: &Mat3, k: usize) -> Vec3 {
        self.form.gradient(c, self.pairs.d(k), self.pairs.r[k], self.s[k])
    }
}
