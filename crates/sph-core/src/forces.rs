//! Momentum and energy equations (Algorithm 1, step 3, phases E–H of the
//! Fig. 4 trace).
//!
//! With `α_i = P_i / (Ω_i ρ_i²)` and the *effective* kernel gradient
//! `g_ij` of the configured scheme (analytic derivative or IAD):
//!
//! ```text
//! dv_i/dt = − Σ_j m_j [ α_i g_ij(h_i, C_i) + α_j g_ij(h_j, C_j) + Π_ij ḡ_ij ]
//! du_i/dt =   α_i Σ_j m_j v_ij · g_ij(h_i, C_i)
//!           + ½ Σ_j m_j Π_ij v_ij · ḡ_ij
//! ```
//!
//! where `v_ij = v_i − v_j` and `ḡ = (g(h_i) + g(h_j))/2`. The pair terms
//! are exactly antisymmetric under `i ↔ j` for the analytic gradient, so
//! linear momentum and total energy are conserved to round-off — the
//! conservation-law constraint §5 of the paper calls "much more important"
//! than pointwise convergence. IAD trades exact antisymmetry for linear
//! exactness; its conservation error is bounded by the matrix asymmetry
//! and is verified small in the tests.
//!
//! # Each pair once
//!
//! Over a symmetric closure ([`NeighborLists::is_symmetric_closure`])
//! every pair is in both rows, and everything except the two
//! accumulations is the same from either side. With
//! `P = g_ij(h_i, C_i) α_i + g_ij(h_j, C_j) α_j + ḡ_ij Π_ij`, particle `i`
//! folds `−P m_j` and `m_j (α_i v_ij·g_ij(h_i, C_i) + ½ Π_ij v_ij·ḡ_ij)`,
//! and particle `j` — evaluating the same pair from its side — folds the
//! same `P` with the sign flipped and the roles of the two gradients
//! exchanged. Bit for bit, not only in exact arithmetic:
//!
//! - the minimum-image displacement is exactly antisymmetric (`a − b`
//!   and the periodic fold are odd), so `r_ji = r_ij` and every gradient,
//!   a linear function of the displacement, changes sign exactly;
//! - `v_ji = −v_ij` exactly, so `v·g` and `d·v` are the same products;
//! - `Π_ij` averages its per-particle inputs with two-term sums, which
//!   commute, so `Π_ji = Π_ij`, and `P_ji = −P_ij` likewise;
//! - `x − y ≡ x + (−y)`, so folding `+P m_i` into `j` is folding `−P_ji m_i`;
//! - a sign can differ only on a zero (`x + (−x)` is `+0` both ways), and
//!   no accumulator is ever `−0` (it starts at `+0`, and a sum is `−0` only
//!   if both terms are), so adding `±0` leaves it unchanged.
//!
//! The pass therefore sweeps the local particles in ascending index: at
//! particle `s` the lane phase evaluates its pairs `t > s` once, folds
//! `s`'s terms into `s` and delivers `t`'s into `t`'s sums. Every row is
//! ascending, so each particle receives its terms in exactly its row
//! order — the entries below it from the sweep turns before its own, the
//! entries above it at its own turn — which is the per-row loop's fold.
//!
//! Parallel runs stay deterministic over fixed local-index chunks of
//! `SWEEP_CHUNK` particles, a function of the particle count alone: a
//! chunk first folds, from the row's side, every entry below the chunk,
//! then sweeps its own particles, delivering only inside itself (a pair
//! that straddles a boundary is evaluated from both sides, as before).
//! Particles without a row — the ghosts of a rank view — are sweep
//! sources too: their partners are the rows of their chunk that hold them
//! above themselves, a transpose built inside the call. Lists that are
//! not a proven closure (block time-stepping's gather lists) run the same
//! chunk code without a sweep: every entry from its row's side, which is
//! the one-pair-at-a-time loop `compute_forces_reference` keeps as the
//! oracle.

use crate::config::{GradientScheme, SphConfig, ViscosityConfig};
use crate::density::NeighborLists;
use crate::gradients::effective_gradient;
use crate::lanes::{PairKernel, TargetLanes, LANES};
use crate::particles::ParticleSystem;
use crate::viscosity::{balsara_factor, pair_viscosity};
use rayon::prelude::*;
use sph_kernels::Kernel;
use sph_math::{Mat3, Vec3, REDUCE_CHUNK};
use std::ops::Range;

/// Local indices per sweep chunk: the unit of parallel work and of the
/// determinism contract. Pairs straddling a chunk boundary are evaluated
/// from both sides, so a longer chunk saves work and a shorter one gives
/// more parallel slack; 8 192 was measured (a 32³ system is four chunks).
const SWEEP_CHUNK: usize = 8192;

/// A particle's two sums: acceleration and energy rate.
type Sums = (Vec3, f64);

const ZERO_SUMS: Sums = (Vec3::ZERO, 0.0);

/// Evaluate hydrodynamic accelerations and energy derivatives for the
/// active particles. Requires density, volume elements, Ω, EOS outputs
/// (`p`, `cs`), velocity gradients (`div_v`, `curl_v`) and — for IAD —
/// the `c_iad` matrices to be current. Over a symmetric closure each pair
/// is evaluated once (see the module doc); the result is bit-identical
/// either way. Returns the number of pair interactions: one per non-self
/// row entry, so two per pair of a closure however it was evaluated.
pub fn compute_forces(
    sys: &mut ParticleSystem,
    lists: &NeighborLists,
    kernel: &dyn Kernel,
    cfg: &SphConfig,
    active: &[u32],
) -> u64 {
    compute_forces_chunked(sys, lists, kernel, cfg, active, SWEEP_CHUNK)
}

/// [`compute_forces`] over sweep chunks of `chunk_len` local indices.
pub(crate) fn compute_forces_chunked(
    sys: &mut ParticleSystem,
    lists: &NeighborLists,
    kernel: &dyn Kernel,
    cfg: &SphConfig,
    active: &[u32],
    chunk_len: usize,
) -> u64 {
    assert_eq!(lists.query_count(), active.len());
    let local = sys.len();
    let sweep = lists.is_symmetric_closure();
    debug_assert!(
        !sweep || active.windows(2).all(|w| w[0] < w[1]),
        "a closure's rows belong to strictly ascending particles"
    );

    // The chunks: local-index windows with the rows of their particles, or
    // — unmarked lists — plain runs of rows without a window.
    let n_chunks =
        if sweep { local.div_ceil(chunk_len) } else { active.len().div_ceil(REDUCE_CHUNK) };
    let mut chunks = Vec::with_capacity(n_chunks);
    for c in 0..n_chunks {
        chunks.push(if sweep {
            let window = c * chunk_len..((c + 1) * chunk_len).min(local);
            let row = |id: usize| active.partition_point(|&k| (k as usize) < id);
            Chunk { rows: row(window.start)..row(window.end), window: Some(window) }
        } else {
            Chunk {
                rows: c * REDUCE_CHUNK..((c + 1) * REDUCE_CHUNK).min(active.len()),
                window: None,
            }
        });
    }
    let ghost_partners = if sweep && active.len() < local {
        lower_rowless_entries(lists, active, local, chunk_len)
    } else {
        NeighborLists::default()
    };

    // Chunked map + ordered reduce over fixed boundaries (thread-count
    // independent, so accelerations are bit-identical for any SPH_THREADS).
    let terms = PairTerms::new(sys, kernel, cfg);
    let results: Vec<(Vec<Sums>, u64)> =
        chunks.par_iter().map(|c| terms.chunk(c, lists, active, &ghost_partners)).collect();

    // Ordered reduce: write rows back in `active` order, fold pair counts.
    let mut total_pairs = 0;
    let mut ids = active.iter();
    for (rows, chunk_pairs) in results {
        // sph-lint: allow(raw-accumulation) — u64 interaction counter;
        // integer addition is exact, no FP order to freeze.
        total_pairs += chunk_pairs;
        for (acc, dudt) in rows {
            // sph-lint: allow(panic-path) — local invariant: the chunks
            // are a partition of `active`, so the id iterator yields
            // exactly one id per row; exhaustion here is a code bug.
            let i = *ids.next().expect("chunk rows outnumber active ids") as usize;
            sys.a[i] = acc;
            sys.du_dt[i] = dudt;
        }
    }
    total_pairs
}

/// One unit of the force pass: the rows `rows` (indices into `active`)
/// and, for a closure, the local-index `window` their particles lie in.
struct Chunk {
    rows: Range<usize>,
    window: Option<Range<usize>>,
}

/// For every particle without a row, the rows of its own chunk that hold
/// it as an entry below their particle, ascending: its partners as a sweep
/// source. Query `k` is local particle `k` (empty for particles with a
/// row and for ghosts no row of their chunk needs).
fn lower_rowless_entries(
    lists: &NeighborLists,
    active: &[u32],
    local: usize,
    chunk_len: usize,
) -> NeighborLists {
    let mut has_row = vec![false; local];
    for &k in active {
        has_row[k as usize] = true;
    }
    let lower = |q: usize| {
        let t = active[q] as usize;
        let row = lists.neighbors(q);
        let has_row = &has_row;
        row[..row.partition_point(|&j| (j as usize) < t)]
            .iter()
            .map(|&j| j as usize)
            .filter(move |&j| j / chunk_len == t / chunk_len && !has_row[j])
    };
    let mut offsets = vec![0u32; local + 1];
    for q in 0..active.len() {
        for j in lower(q) {
            offsets[j + 1] += 1;
        }
    }
    for j in 0..local {
        offsets[j + 1] += offsets[j];
    }
    let mut cursor = Vec::with_capacity(local);
    cursor.extend_from_slice(&offsets[..local]);
    let mut indices = vec![0u32; offsets[local] as usize];
    for (q, &t) in active.iter().enumerate() {
        for j in lower(q) {
            indices[cursor[j] as usize] = t;
            cursor[j] += 1;
        }
    }
    NeighborLists::from_csr(offsets, indices)
}

/// What a pair reads of a particle that is a function of that particle
/// alone, once per local particle instead of once per pair (a particle is
/// a neighbour ~57 times): α, the Balsara factor, and the h-only factor of
/// the kernel form the scheme's gradient uses. Ghost copies carry
/// refreshed `p, Ω, ρ, cs, ∇·v, ∇×v, h`, so the values are the ones the
/// pair loop would compute.
struct PairTerms<'a> {
    sys: &'a ParticleSystem,
    kernel: &'a dyn Kernel,
    scheme: GradientScheme,
    visc: ViscosityConfig,
    form_j: PairKernel,
    alpha: Vec<f64>,
    norm: Vec<f64>,
    balsara: Vec<f64>,
}

impl<'a> PairTerms<'a> {
    fn new(sys: &'a ParticleSystem, kernel: &'a dyn Kernel, cfg: &SphConfig) -> Self {
        let (scheme, visc) = (cfg.gradients, cfg.viscosity);
        let form_j = match scheme {
            GradientScheme::KernelDerivative => PairKernel::SlopeOverR,
            GradientScheme::Iad => PairKernel::Value,
        };
        let local = sys.len();
        let mut alpha: Vec<f64> = Vec::with_capacity(local);
        alpha.extend((0..local).map(|j| sys.p[j] / (sys.omega[j] * sys.rho[j] * sys.rho[j])));
        let mut norm: Vec<f64> = Vec::with_capacity(local);
        norm.extend(sys.h.iter().map(|&h| form_j.norm(kernel, h)));
        let mut balsara: Vec<f64> = Vec::with_capacity(if visc.balsara { local } else { 0 });
        if visc.balsara {
            balsara.extend(
                (0..local)
                    .map(|j| balsara_factor(sys.div_v[j], sys.curl_v[j], sys.cs[j], sys.h[j])),
            );
        }
        PairTerms { sys, kernel, scheme, visc, form_j, alpha, norm, balsara }
    }

    fn f_bal(&self, j: usize) -> f64 {
        if self.visc.balsara {
            self.balsara[j]
        } else {
            1.0
        }
    }

    /// The sums of `chunk`'s rows, in row order, and its pair count.
    fn chunk(
        &self,
        chunk: &Chunk,
        lists: &NeighborLists,
        active: &[u32],
        ghost_partners: &NeighborLists,
    ) -> (Vec<Sums>, u64) {
        let Chunk { rows, window } = chunk;
        // A window's sums are indexed by local index, a row run's by row.
        let below = window.as_ref().map_or(usize::MAX, |w| w.start);
        let slot = |k: usize| match window {
            Some(w) => active[k] as usize - w.start,
            None => k - rows.start,
        };
        let mut sums = vec![ZERO_SUMS; window.as_ref().map_or(rows.len(), |w| w.len())];

        // Every row's entries below the window (all of them without one),
        // from the row's side: they precede whatever the sweep delivers.
        for k in rows.clone() {
            let row = lists.neighbors(k);
            debug_assert!(
                window.is_none() || row.windows(2).all(|w| w[0] < w[1]),
                "a closure's rows are strictly ascending"
            );
            let lower = &row[..row.partition_point(|&j| (j as usize) < below)];
            self.fold(active[k] as usize, lower, &mut sums[slot(k)], None);
        }

        // The sweep: each particle of the window, ascending, evaluates its
        // pairs above itself once and delivers the partner's terms (a
        // particle without a row folds into a slot nobody reads).
        if let Some(w) = window {
            let mut k = rows.start;
            for s in w.clone() {
                let partners = if k < rows.end && active[k] as usize == s {
                    let row = lists.neighbors(k);
                    k += 1;
                    &row[row.partition_point(|&j| (j as usize) <= s)..]
                } else if ghost_partners.query_count() > s {
                    ghost_partners.neighbors(s)
                } else {
                    &[]
                };
                let mut own = sums[s - w.start];
                self.fold(s, partners, &mut own, Some((&mut sums, w.start)));
                sums[s - w.start] = own;
            }
        }

        let mut out = Vec::with_capacity(rows.len());
        out.extend(rows.clone().map(|k| sums[slot(k)]));
        // One interaction per non-self row entry, however its pair was
        // evaluated: two per pair of a closure.
        let pairs = rows
            .clone()
            .map(|k| lists.neighbors(k).iter().filter(|&&j| j != active[k]).count() as u64)
            .sum::<u64>();
        (out, pairs)
    }

    /// Evaluate the pairs `(i, j)`, `j ∈ ids` (self skipped), in `i`'s
    /// frame and in order: fold `i`'s terms into `own` and, with
    /// `deliver = (sums, start)`, `j`'s into `sums[j − start]` for every
    /// `j` that has a slot there.
    fn fold(
        &self,
        i: usize,
        ids: &[u32],
        own: &mut Sums,
        mut deliver: Option<(&mut [Sums], usize)>,
    ) {
        let sys = self.sys;
        let (alpha, norm, form_j) = (&self.alpha, &self.norm, self.form_j);
        let vi = sys.v[i];
        let hi = sys.h[i];
        let mi = sys.m[i];
        let rho_i = sys.rho[i];
        let cs_i = sys.cs[i];
        let ci = sys.c_iad[i];
        let alpha_i = alpha[i];
        let f_bal_i = self.f_bal(i);
        let mut lanes = TargetLanes::new(sys, self.kernel, i, PairKernel::of(self.scheme, &ci));
        let (mut h_j, mut norm_j) = ([0.0; LANES], [0.0; LANES]);
        let (mut q, mut s_j) = ([0.0; LANES], [0.0; LANES]);
        let (mut cs_j, mut rho_j, mut f_j, mut pi) =
            ([0.0; LANES], [0.0; LANES], [0.0; LANES], [0.0; LANES]);
        let mut dv = [Vec3::ZERO; LANES];
        let (mut acc, mut dudt) = *own;
        for ids in ids.chunks(LANES) {
            let n = ids.len();
            // Lane phase: geometry and the kernel factor of g_ij(h_i, C_i),
            // then that of g_ij(h_j, C_j), then Π_ij, for every pair of the
            // block (the self pair included; the fold never reads its
            // lanes). Π is a select, not a branch, so receding pairs cost
            // no misprediction.
            lanes.lane_phase(ids);
            for (lane, &j) in ids.iter().enumerate() {
                let j = j as usize;
                h_j[lane] = sys.h[j];
                norm_j[lane] = norm[j];
                dv[lane] = vi - sys.v[j];
                cs_j[lane] = sys.cs[j];
                rho_j[lane] = sys.rho[j];
                f_j[lane] = self.f_bal(j);
            }
            let norm_h_j = norm_j[..n].iter().copied().zip(h_j[..n].iter().copied());
            form_j.eval(self.kernel, &lanes.pairs.r[..n], norm_h_j, &mut q, &mut s_j);
            for lane in 0..n {
                pi[lane] = pair_viscosity(
                    &self.visc,
                    lanes.pairs.d(lane),
                    dv[lane],
                    hi,
                    h_j[lane],
                    cs_i,
                    cs_j[lane],
                    rho_i,
                    rho_j[lane],
                    f_bal_i,
                    f_j[lane],
                );
            }

            // Ordered fold, in row order.
            for (lane, &j) in ids.iter().enumerate() {
                let j = j as usize;
                if j == i {
                    continue;
                }
                let d = lanes.pairs.d(lane);
                let r = lanes.pairs.r[lane];
                let dv = dv[lane];

                let g_i = lanes.gradient(&ci, lane);
                let g_j = if form_j == PairKernel::Value && sys.c_iad[j] == Mat3::ZERO {
                    // Singular C_j: the analytic fallback, one pair at a
                    // time.
                    effective_gradient(self.scheme, self.kernel, &sys.c_iad[j], d, r, h_j[lane])
                } else {
                    form_j.gradient(&sys.c_iad[j], d, r, s_j[lane])
                };
                let g_bar = (g_i + g_j) * 0.5;
                let pi_ij = pi[lane];

                let p = g_i * alpha_i + g_j * alpha[j] + g_bar * pi_ij;
                let visc = 0.5 * pi_ij * dv.dot(g_bar);
                let mj = sys.m[j];
                acc -= p * mj;
                // sph-lint: allow(raw-accumulation) — FROZEN: the
                // pairwise energy-rate sum in sorted-neighbour order is
                // part of the bit-identity contract; compensation would
                // change every trajectory.
                dudt += mj * (alpha_i * dv.dot(g_i) + visc);
                if let Some((sums, start)) = &mut deliver {
                    if let Some(to) = j.checked_sub(*start).and_then(|o| sums.get_mut(o)) {
                        // `j`'s own evaluation of the pair: −P with the
                        // gradients' roles exchanged (see the module doc).
                        to.0 += p * mi;
                        to.1 += mi * (alpha[j] * dv.dot(g_j) + visc);
                    }
                }
            }
        }
        *own = (acc, dudt);
    }
}

/// The one-pair-at-a-time [`compute_forces`] the lane-batched pass
/// replaced, kept verbatim as its oracle: every per-particle quantity
/// recomputed per pair, both gradients through `effective_gradient`.
#[cfg(test)]
pub(crate) fn compute_forces_reference(
    sys: &mut ParticleSystem,
    lists: &NeighborLists,
    kernel: &dyn Kernel,
    cfg: &SphConfig,
    active: &[u32],
) -> u64 {
    assert_eq!(lists.query_count(), active.len());
    let scheme = cfg.gradients;
    let visc = cfg.viscosity;

    // Chunked map + ordered reduce: rows per chunk plus one chunk-folded
    // pair counter, over fixed REDUCE_CHUNK boundaries (thread-count
    // independent, so accelerations are bit-identical for any SPH_THREADS).
    let chunks: Vec<(Vec<(Vec3, f64)>, u64)> = active
        .par_chunks(REDUCE_CHUNK)
        .enumerate()
        .map(|(c, chunk)| {
            let mut chunk_pairs = 0u64;
            let rows = chunk
                .iter()
                .enumerate()
                .map(|(off, &ai)| {
                    let k = c * REDUCE_CHUNK + off;
                    let i = ai as usize;
                    let xi = sys.x[i];
                    let vi = sys.v[i];
                    let hi = sys.h[i];
                    let rho_i = sys.rho[i];
                    let p_i = sys.p[i];
                    let cs_i = sys.cs[i];
                    let ci = sys.c_iad[i];
                    let alpha_i = p_i / (sys.omega[i] * rho_i * rho_i);
                    let f_bal_i = if visc.balsara {
                        balsara_factor(sys.div_v[i], sys.curl_v[i], cs_i, hi)
                    } else {
                        1.0
                    };

                    let mut acc = Vec3::ZERO;
                    let mut dudt = 0.0;
                    for &j in lists.neighbors(k) {
                        let j = j as usize;
                        if j == i {
                            continue;
                        }
                        chunk_pairs += 1;
                        let d = sys.periodicity.displacement(xi, sys.x[j]);
                        let r = d.norm();
                        let dv = vi - sys.v[j];

                        let g_i = effective_gradient(scheme, kernel, &ci, d, r, hi);
                        let g_j = effective_gradient(scheme, kernel, &sys.c_iad[j], d, r, sys.h[j]);
                        let g_bar = (g_i + g_j) * 0.5;

                        let rho_j = sys.rho[j];
                        let alpha_j = sys.p[j] / (sys.omega[j] * rho_j * rho_j);

                        let f_bal_j = if visc.balsara {
                            balsara_factor(sys.div_v[j], sys.curl_v[j], sys.cs[j], sys.h[j])
                        } else {
                            1.0
                        };
                        let pi_ij = pair_viscosity(
                            &visc, d, dv, hi, sys.h[j], cs_i, sys.cs[j], rho_i, rho_j, f_bal_i,
                            f_bal_j,
                        );

                        let mj = sys.m[j];
                        acc -= (g_i * alpha_i + g_j * alpha_j + g_bar * pi_ij) * mj;
                        dudt += mj * (alpha_i * dv.dot(g_i) + 0.5 * pi_ij * dv.dot(g_bar));
                    }
                    (acc, dudt)
                })
                .collect();
            (rows, chunk_pairs)
        })
        .collect();

    // Ordered reduce: write rows back in `active` order, fold pair counts.
    let mut total_pairs = 0;
    let mut ids = active.iter();
    for (rows, chunk_pairs) in chunks {
        total_pairs += chunk_pairs;
        for (acc, dudt) in rows {
            let i = *ids.next().expect("chunk rows outnumber active ids") as usize;
            sys.a[i] = acc;
            sys.du_dt[i] = dudt;
        }
    }
    total_pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GradientScheme, SphConfig};
    use crate::density::compute_density;
    use crate::eos::IdealGas;
    use crate::gradients::{compute_iad_matrices, compute_velocity_gradients};
    use crate::volume::compute_volume_elements;
    use sph_kernels::SUPPORT_RADIUS;
    use sph_math::{Aabb, Periodicity, SplitMix64};
    use sph_tree::CellGrid;

    fn jittered(n: usize, jitter: f64, seed: u64) -> ParticleSystem {
        let mut rng = SplitMix64::new(seed);
        let spacing = 1.0 / n as f64;
        let mut x = Vec::new();
        for iz in 0..n {
            for iy in 0..n {
                for ix in 0..n {
                    x.push(Vec3::new(
                        (ix as f64 + 0.5 + rng.uniform(-jitter, jitter)) * spacing,
                        (iy as f64 + 0.5 + rng.uniform(-jitter, jitter)) * spacing,
                        (iz as f64 + 0.5 + rng.uniform(-jitter, jitter)) * spacing,
                    ));
                }
            }
        }
        let c = x.len();
        ParticleSystem::new(
            x,
            vec![Vec3::ZERO; c],
            vec![1.0 / c as f64; c],
            vec![1.0; c],
            2.0 * spacing,
            Periodicity::open(Aabb::unit()),
        )
    }

    /// Full derivative evaluation pipeline for the tests. The force pass
    /// uses the symmetric closure of the gather lists so every pair is seen
    /// from both sides (conservation requires it).
    fn evaluate(sys: &mut ParticleSystem, cfg: &SphConfig) {
        let grid = CellGrid::build(&sys.x, sys.periodicity, SUPPORT_RADIUS * sys.max_h());
        let kernel = cfg.kernel.build();
        let active: Vec<u32> = (0..sys.len() as u32).collect();
        let (lists, _) = compute_density(sys, &grid, kernel.as_ref(), cfg, &active);
        compute_volume_elements(sys, &lists, kernel.as_ref(), cfg, &active);
        if cfg.gradients == GradientScheme::Iad {
            compute_iad_matrices(sys, &lists, kernel.as_ref(), &active);
        }
        let eos = IdealGas::new(cfg.gamma);
        eos.apply(&sys.rho, &sys.u, &mut sys.p, &mut sys.cs);
        compute_velocity_gradients(sys, &lists, kernel.as_ref(), cfg.gradients, &active);
        let sym = lists.symmetrized();
        compute_forces(sys, &sym, kernel.as_ref(), cfg, &active);
    }

    fn interior(sys: &ParticleSystem, margin: f64) -> Vec<usize> {
        (0..sys.len())
            .filter(|&i| {
                let p = sys.x[i];
                p.x > margin
                    && p.x < 1.0 - margin
                    && p.y > margin
                    && p.y < 1.0 - margin
                    && p.z > margin
                    && p.z < 1.0 - margin
            })
            .collect()
    }

    #[test]
    fn uniform_pressure_gives_no_force_in_periodic_lattice() {
        // A fully periodic uniform lattice has exact translation symmetry:
        // every particle's net hydro force must vanish to round-off.
        // n = 8 makes the spacing (1/8) exactly representable, so all
        // particles see bit-identical neighbour geometry and the symmetry
        // holds exactly, not just statistically.
        let mut sys = jittered(8, 0.0, 1); // perfect lattice
        sys.periodicity = Periodicity::fully_periodic(Aabb::unit());
        let cfg = SphConfig { target_neighbors: 60, ..Default::default() };
        evaluate(&mut sys, &cfg);
        // Scale: P/(ρ h) is the natural acceleration unit here.
        let scale = sys.p[0] / (sys.rho[0] * sys.h[0]);
        for i in 0..sys.len() {
            assert!(sys.a[i].norm() < 1e-9 * scale, "accel {:?} at {i} (scale {scale})", sys.a[i]);
        }
    }

    #[test]
    fn pressure_gradient_accelerates_correctly() {
        // u(x) linear in x ⇒ P = (γ−1)ρu linear ⇒ a ≈ −∇P/ρ pointing down-x.
        let mut sys = jittered(12, 0.0, 2);
        let slope = 0.5;
        for i in 0..sys.len() {
            sys.u[i] = 1.0 + slope * sys.x[i].x;
        }
        let cfg = SphConfig {
            gradients: GradientScheme::Iad,
            target_neighbors: 60,
            ..Default::default()
        };
        evaluate(&mut sys, &cfg);
        let gamma = cfg.gamma;
        // ρ ≈ 1 interior ⇒ expected a_x = −(γ−1)·slope.
        let expected = -(gamma - 1.0) * slope;
        for i in interior(&sys, 0.3) {
            let rel = (sys.a[i].x - expected).abs() / expected.abs();
            assert!(rel < 0.15, "a_x = {} vs expected {expected} at particle {i}", sys.a[i].x);
            assert!(sys.a[i].y.abs() < 0.1 * expected.abs());
            assert!(sys.a[i].z.abs() < 0.1 * expected.abs());
        }
    }

    #[test]
    fn momentum_conserved_to_roundoff_with_kernel_derivatives() {
        let mut sys = jittered(8, 0.3, 5);
        // Random hot spots to drive strong forces.
        let mut rng = SplitMix64::new(10);
        for i in 0..sys.len() {
            sys.u[i] = rng.uniform(0.5, 2.0);
            sys.v[i] = Vec3::new(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1), 0.0);
        }
        let cfg = SphConfig { target_neighbors: 50, ..Default::default() };
        evaluate(&mut sys, &cfg);
        let net: Vec3 = sys.a.iter().zip(&sys.m).map(|(&a, &m)| a * m).sum();
        let typical: f64 =
            sys.a.iter().zip(&sys.m).map(|(&a, &m)| (a * m).norm()).sum::<f64>() / sys.len() as f64;
        assert!(
            net.norm() < 1e-10 * typical * sys.len() as f64,
            "net momentum rate {net:?}, typical |ma| {typical}"
        );
    }

    #[test]
    fn energy_conserved_to_roundoff_with_kernel_derivatives() {
        // The discrete identity Σ m (v·a + du/dt) = 0 must hold pairwise.
        let mut sys = jittered(8, 0.3, 6);
        let mut rng = SplitMix64::new(11);
        for i in 0..sys.len() {
            sys.u[i] = rng.uniform(0.5, 2.0);
            sys.v[i] =
                Vec3::new(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2));
        }
        let cfg = SphConfig { target_neighbors: 50, ..Default::default() };
        evaluate(&mut sys, &cfg);
        let de: f64 =
            (0..sys.len()).map(|i| sys.m[i] * (sys.v[i].dot(sys.a[i]) + sys.du_dt[i])).sum();
        let scale: f64 = (0..sys.len())
            .map(|i| sys.m[i] * (sys.v[i].dot(sys.a[i]).abs() + sys.du_dt[i].abs()))
            .sum();
        assert!(de.abs() < 1e-10 * scale.max(1e-30), "dE/dt = {de}, scale {scale}");
    }

    #[test]
    fn iad_momentum_error_is_small() {
        let mut sys = jittered(8, 0.3, 7);
        let mut rng = SplitMix64::new(12);
        for i in 0..sys.len() {
            sys.u[i] = rng.uniform(0.5, 2.0);
        }
        let cfg = SphConfig {
            gradients: GradientScheme::Iad,
            target_neighbors: 50,
            ..Default::default()
        };
        evaluate(&mut sys, &cfg);
        let net: Vec3 = sys.a.iter().zip(&sys.m).map(|(&a, &m)| a * m).sum();
        let total_abs: f64 = sys.a.iter().zip(&sys.m).map(|(&a, &m)| (a * m).norm()).sum();
        // IAD is not exactly antisymmetric; require the violation to stay
        // below 1% of the total force magnitude.
        assert!(
            net.norm() < 0.01 * total_abs,
            "IAD momentum violation {} vs total {total_abs}",
            net.norm()
        );
    }

    #[test]
    fn compression_heats_gas() {
        // Two columns approaching: du/dt must be positive where they meet.
        let mut sys = jittered(10, 0.0, 8);
        for i in 0..sys.len() {
            // Converging flow toward the x = 0.5 plane.
            sys.v[i] = Vec3::new(if sys.x[i].x < 0.5 { 0.5 } else { -0.5 }, 0.0, 0.0);
        }
        let cfg = SphConfig { target_neighbors: 60, ..Default::default() };
        evaluate(&mut sys, &cfg);
        let mid: Vec<usize> =
            interior(&sys, 0.2).into_iter().filter(|&i| (sys.x[i].x - 0.5).abs() < 0.1).collect();
        assert!(!mid.is_empty());
        let heating: f64 = mid.iter().map(|&i| sys.du_dt[i]).sum::<f64>() / mid.len() as f64;
        assert!(heating > 0.0, "mean du/dt at the interface = {heating}");
    }

    #[test]
    fn viscosity_off_means_no_heating_in_uniform_flow() {
        // Uniform translation: no du/dt anywhere (Galilean invariance).
        let mut sys = jittered(8, 0.2, 9);
        for i in 0..sys.len() {
            sys.v[i] = Vec3::new(1.0, 2.0, 3.0);
        }
        let cfg = SphConfig { target_neighbors: 50, ..Default::default() };
        evaluate(&mut sys, &cfg);
        for i in 0..sys.len() {
            assert!(
                sys.du_dt[i].abs() < 1e-10,
                "du/dt = {} under uniform translation",
                sys.du_dt[i]
            );
        }
    }
}
