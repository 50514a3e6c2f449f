//! Barnes–Hut self-gravity with multipole expansions (Algorithm 1, step 4).
//!
//! Table 1: SPHYNX evaluates gravity with multipoles up to quadrupole
//! ("4-pole"), ChaNGa up to hexadecapole ("16-pole"). This module
//! implements monopole, quadrupole and octupole expansions exactly; the
//! cost of the higher-order terms ChaNGa carries is represented in the
//! performance model by a per-cell-interaction cost factor
//! (`sph_cluster::CostModel::gravity_flops_per_interaction`), while force
//! *accuracy* is verified here against direct summation.
//!
//! Conventions: `G` is configurable (the Evrard test uses `G = 1`) and
//! softening is Plummer (`φ = −Gm/√(r²+ε²)`).
//!
//! **Acceptance contract.** The multipole acceptance criterion is the
//! classic opening angle, applied to *internal* nodes only: an internal
//! node whose tight particle box has longest edge `L`, at distance `d`
//! from its centre of mass to the target, is accepted as one cell when
//! `L/d < θ` and the target lies strictly outside that box. A leaf is
//! never accepted: it is always opened and its particles are summed one by
//! one, so the near field is exact particle–particle gravity whatever θ
//! is. (At θ = 0.5 on the 15.5k-particle Evrard cloud that is 2 870 of a
//! target's 3 000 interactions; leaves hold ≈ 8 particles.)
//!
//! **Walk layout.** [`GravitySolver::new`] lays the tree out for the walk:
//! * *hot walk nodes* — what every visit reads: centre of mass, mass, the
//!   cached `L²`, the tight box, the slot range and the range of the node's
//!   children in one compact child list (slot order, so pushing it
//!   reproduces the pop order of a walk over `Node::children`);
//! * *cold moments* — raw second and third moments and the octupole trace
//!   vector, in an array of their own, read only when a cell is accepted;
//! * *SoA sources* — `x`, `y`, `z` and `G·m` of the Morton-sorted
//!   particles, so a leaf is four contiguous slices;
//! * *slot map* — original particle index → Morton slot, so the slot of
//!   the particle to skip is known before the walk starts and the fold
//!   compares a loop index, not an id per pair.
//!
//! `field_at` evaluates a leaf in two phases. The *lane phase* runs over
//! the leaf's slots in blocks of `LANES` and writes each pair's three
//! acceleration terms and its potential term into stack buffers; no
//! iteration depends on another, so the compiler turns it into packed
//! square roots and divisions at whatever vector width the target has. The
//! *ordered fold* then subtracts the buffered terms from the running sums
//! one slot at a time, in slot order, leaving out the target itself. Every
//! pair goes through the same IEEE operations in the same per-target order
//! as a one-pair-at-a-time loop, so the result does not depend on the lane
//! width (CI runs the goldens with AVX2 enabled to hold that).

use crate::morton::BITS_PER_AXIS;
use crate::octree::Octree;
use crate::TraversalStats;
use rayon::prelude::*;
use sph_math::{Aabb, Mat3, SymTensor3, Vec3, REDUCE_CHUNK};

/// Expansion order of accepted cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultipoleOrder {
    /// Centre-of-mass only.
    Monopole,
    /// Monopole + traceless quadrupole (SPHYNX's "4-pole").
    Quadrupole,
    /// Monopole + quadrupole + octupole — one order further toward
    /// ChaNGa's hexadecapole ("16-pole") expansion.
    Octupole,
}

impl MultipoleOrder {
    /// Numeric order (highest multipole term carried).
    pub fn degree(self) -> u8 {
        match self {
            MultipoleOrder::Monopole => 1,
            MultipoleOrder::Quadrupole => 2,
            MultipoleOrder::Octupole => 3,
        }
    }
}

/// Gravity parameters.
#[derive(Debug, Clone, Copy)]
pub struct GravityConfig {
    /// Gravitational constant.
    pub g: f64,
    /// Opening angle θ of the MAC; smaller = more accurate and slower.
    pub theta: f64,
    /// Plummer softening length ε.
    pub softening: f64,
    /// Expansion order.
    pub order: MultipoleOrder,
}

impl Default for GravityConfig {
    fn default() -> Self {
        GravityConfig { g: 1.0, theta: 0.5, softening: 1e-4, order: MultipoleOrder::Quadrupole }
    }
}

/// What every visit of the walk reads of a node (the hot array).
#[derive(Debug, Clone, Copy)]
struct WalkNode {
    /// Centre of mass (the cell centre for a massless node).
    com: Vec3,
    mass: f64,
    /// `tight.max_extent()²`, the `L²` of the MAC.
    size_sq: f64,
    /// Tight bounding box of the particles inside.
    tight: Aabb,
    /// Range `[start, end)` of Morton-sorted slots.
    start: u32,
    end: u32,
    /// Range `[first_child, last_child)` into `GravitySolver::children`;
    /// empty for a leaf.
    first_child: u32,
    last_child: u32,
}

impl WalkNode {
    #[inline]
    fn is_leaf(&self) -> bool {
        self.first_child == self.last_child
    }
}

/// Higher moments of one tree node about its `com` (the cold array: read
/// only when the node is accepted as a cell).
#[derive(Debug, Clone, Copy, Default)]
struct Moments {
    /// Raw second moment `M2_ab = Σ m d_a d_b` (the traceless quadrupole
    /// is derived as `Q = 3·M2 − tr(M2)·I` at evaluation time).
    m2: Mat3,
    /// Raw third moment `S_abc = Σ m d_a d_b d_c`.
    s3: SymTensor3,
    /// Trace vector `t_a = Σ m d² d_a` (the octupole trace part).
    t: Vec3,
}

/// Slots per block of the leaf lane phase: the default `max_leaf_size`, so
/// a leaf is one block unless the Morton depth limit left it overfull.
const LANES: usize = 32;

/// Capacity of the walk stack. The stack holds at most the unvisited
/// siblings (≤ 7) of each internal node on the path from the root, plus
/// the 8 children of the node opened last; internal nodes sit at depths
/// `0..BITS_PER_AXIS`.
const STACK_CAPACITY: usize = 7 * BITS_PER_AXIS as usize + 8;

/// One block's buffered pair terms: what the ordered fold subtracts from
/// the acceleration components and the potential.
struct LaneTerms {
    ax: [f64; LANES],
    ay: [f64; LANES],
    az: [f64; LANES],
    pot: [f64; LANES],
}

/// Gravity solver bound to a built octree.
pub struct GravitySolver<'a> {
    tree: &'a Octree,
    /// Hot walk nodes, indexed like `tree.nodes()`.
    walk: Vec<WalkNode>,
    /// Child node indices of every internal node, octant order.
    children: Vec<u32>,
    /// Cold moments, indexed like `walk`.
    moments: Vec<Moments>,
    /// Sources in Morton-slot order: coordinates and `g·m`.
    src_x: Vec<f64>,
    src_y: Vec<f64>,
    src_z: Vec<f64>,
    src_gm: Vec<f64>,
    /// Original particle index → Morton slot (where `skip` sits).
    slot_of: Vec<u32>,
    config: GravityConfig,
}

/// Result of a field evaluation at one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GravitySample {
    pub accel: Vec3,
    pub potential: f64,
}

impl<'a> GravitySolver<'a> {
    /// Precompute moments for every node and lay the tree out for the walk.
    /// `masses` is indexed by *original* particle id (same indexing the
    /// octree was built from). Panics on `θ ≤ 0`, on a negative or
    /// non-finite softening and on a non-finite `G`: each would turn every
    /// acceleration into NaN steps before anything notices.
    pub fn new(tree: &'a Octree, masses: &[f64], config: GravityConfig) -> Self {
        assert_eq!(masses.len(), tree.len(), "masses/positions length mismatch");
        assert!(config.theta > 0.0, "θ must be positive");
        assert!(
            config.softening >= 0.0 && config.softening.is_finite(),
            "softening must be finite and non-negative, got {}",
            config.softening
        );
        assert!(config.g.is_finite(), "G must be finite, got {}", config.g);
        let masses_sorted: Vec<f64> = tree.order().iter().map(|&i| masses[i as usize]).collect();

        let nodes = tree.nodes();
        let pos = tree.sorted_positions();
        let mut children = Vec::with_capacity(nodes.len());
        let mut walk: Vec<WalkNode> = nodes
            .iter()
            .map(|node| {
                let first_child = children.len() as u32;
                children.extend(node.children.iter().filter(|&&c| c != u32::MAX));
                let size = node.tight.max_extent();
                WalkNode {
                    com: Vec3::ZERO,
                    mass: 0.0,
                    size_sq: size * size,
                    tight: node.tight,
                    start: node.start,
                    end: node.end,
                    first_child,
                    last_child: children.len() as u32,
                }
            })
            .collect();

        // Bottom-up moment computation via post-order accumulation with the
        // parallel-axis shift — O(nodes) instead of O(N log N).
        let mut moments = vec![Moments::default(); nodes.len()];
        // Nodes are stored so children always come after parents; iterate
        // in reverse to process children first.
        for ni in (0..nodes.len()).rev() {
            let node = walk[ni];
            let slots = node.start as usize..node.end as usize;
            let kids = &children[node.first_child as usize..node.last_child as usize];
            let mut mass = 0.0;
            let mut weighted = Vec3::ZERO;
            if node.is_leaf() {
                for k in slots.clone() {
                    let m = masses_sorted[k];
                    // FROZEN: leaf monopole sums in Morton order are
                    // part of the gravity bit-identity contract across
                    // backends.
                    mass += m;
                    // FROZEN: same contract as `mass` above (identical
                    // loop, order).
                    weighted += pos[k] * m;
                }
            } else {
                for &c in kids {
                    let ch = &walk[c as usize];
                    // FROZEN merge: 8-term child moments fold in
                    // child-slot order; part of the gravity
                    // bit-identity contract.
                    mass += ch.mass;
                    // FROZEN: same contract as `mass` above (identical
                    // loop).
                    weighted += ch.com * ch.mass;
                }
            }
            let com = if mass > 0.0 { weighted / mass } else { nodes[ni].cell.center() };
            let mut m2 = Mat3::ZERO;
            let mut s3 = SymTensor3::ZERO;
            let mut t = Vec3::ZERO;
            if node.is_leaf() {
                for k in slots {
                    let m = masses_sorted[k];
                    let d = pos[k] - com;
                    m2.add_scaled_outer(d, m);
                    s3.add_scaled_cube(d, m);
                    // FROZEN: leaf octupole trace vector in Morton
                    // order; part of the gravity bit-identity contract.
                    t += d * (m * d.norm_sq());
                }
            } else {
                for &c in kids {
                    let (ch, chm) = (&walk[c as usize], &moments[c as usize]);
                    // Parallel-axis shifts to the parent COM (s = child
                    // COM − parent COM; Σ m d = 0 about the child COM):
                    //   M2' = M2 + m s⊗s
                    //   S3' = S3 + sym(s ⊗ M2) + m s⊗s⊗s
                    //   t'  = t + 2 M2·s + tr(M2)·s + m s² s
                    let s = ch.com - com;
                    // FROZEN: the parallel-axis moment merges below run
                    // in child-slot order; part of the gravity
                    // bit-identity contract.
                    m2 += chm.m2;
                    m2.add_scaled_outer(s, ch.mass);
                    // FROZEN: same contract as the `m2` merge above
                    // (identical loop).
                    s3 += chm.s3;
                    s3.add_scaled_sym_outer(s, &chm.m2, 1.0);
                    s3.add_scaled_cube(s, ch.mass);
                    // FROZEN: same contract as the `m2` merge above
                    // (identical loop).
                    t += chm.t
                        + chm.m2.mul_vec(s) * 2.0
                        + s * chm.m2.trace()
                        + s * (ch.mass * s.norm_sq());
                }
            }
            walk[ni].mass = mass;
            walk[ni].com = com;
            moments[ni] = Moments { m2, s3, t };
        }

        let mut slot_of = vec![0u32; tree.len()];
        for (k, &i) in tree.order().iter().enumerate() {
            slot_of[i as usize] = k as u32;
        }
        GravitySolver {
            tree,
            walk,
            children,
            moments,
            src_x: pos.iter().map(|p| p.x).collect(),
            src_y: pos.iter().map(|p| p.y).collect(),
            src_z: pos.iter().map(|p| p.z).collect(),
            src_gm: masses_sorted.iter().map(|&m| config.g * m).collect(),
            slot_of,
            config,
        }
    }

    /// Total mass seen by the solver (root monopole) — cheap invariant.
    pub fn total_mass(&self) -> f64 {
        self.walk[0].mass
    }

    /// Evaluate acceleration and potential at `point`, optionally skipping
    /// the particle with original index `skip` (self-interaction; an index
    /// no particle has skips nothing). Allocation-free: one call per
    /// particle per step.
    pub fn field_at(
        &self,
        point: Vec3,
        skip: Option<u32>,
        stats: &mut TraversalStats,
    ) -> GravitySample {
        let g = self.config.g;
        let eps2 = self.config.softening * self.config.softening;
        let theta2 = self.config.theta * self.config.theta;
        let degree = self.config.order.degree();
        let skip_slot =
            skip.and_then(|i| self.slot_of.get(i as usize)).map_or(usize::MAX, |&k| k as usize);

        let mut accel = Vec3::ZERO;
        let mut potential = 0.0;
        let (mut visited, mut p2p, mut p2m) = (0u64, 0u64, 0u64);
        // Declared once per target: zeroing them per leaf costs what the
        // lane phase saves on an 8-particle leaf.
        let mut terms =
            LaneTerms { ax: [0.0; LANES], ay: [0.0; LANES], az: [0.0; LANES], pot: [0.0; LANES] };
        let mut stack = [0u32; STACK_CAPACITY];
        let mut top = 1; // the root is on the stack
        while top > 0 {
            top -= 1;
            let ni = stack[top] as usize;
            let node = &self.walk[ni];
            visited += 1;
            if node.mass <= 0.0 {
                continue;
            }
            let d = point - node.com;
            let dist2 = d.norm_sq();
            // MAC: accept when (L/d)² < θ² and the point is safely outside
            // the cell (dist² > 0 guards the degenerate self-cell case).
            let accept = !node.is_leaf()
                && dist2 > 0.0
                && node.size_sq < theta2 * dist2
                && node.tight.dist_sq_to_point(point) > 0.0;
            if accept {
                p2m += 1;
                let r2 = dist2 + eps2;
                let r = r2.sqrt();
                let inv_r3 = 1.0 / (r2 * r);
                // Monopole.
                accel -= d * (g * node.mass * inv_r3);
                potential -= g * node.mass / r;
                if degree >= 2 {
                    let mom = &self.moments[ni];
                    // Traceless quadrupole from the raw second moment:
                    // Q = 3·M2 − tr(M2)·I ⇒ Q·d = 3 M2·d − tr(M2) d.
                    let tr_m2 = mom.m2.trace();
                    let qd = mom.m2.mul_vec(d) * 3.0 - d * tr_m2;
                    let dqd = d.dot(qd);
                    let inv_r5 = inv_r3 / r2;
                    let inv_r7 = inv_r5 / r2;
                    // φ₂ = −G (d·Q·d) / (2 r⁵)
                    // a₂ = G Q d / r⁵ − (5G/2)(d·Q·d) d / r⁷
                    potential -= 0.5 * g * dqd * inv_r5;
                    // FROZEN: the multipole traversal accumulates in
                    // stack order; part of the gravity bit-identity
                    // contract.
                    accel += qd * (g * inv_r5) - d * (2.5 * g * dqd * inv_r7);
                    if degree >= 3 {
                        // Octupole (Cartesian Taylor term):
                        // φ₃ = −G [5 S:ddd − 3 (t·d) r²] / (2 r⁷)
                        // a₃ = G/2 [ (15 S:dd − 3 t r² − 6 (t·d) d)/r⁷
                        //            − 7 (5 S:ddd − 3 (t·d) r²) d / r⁹ ]
                        let s_dd = mom.s3.contract_twice(d);
                        let s_ddd = s_dd.dot(d);
                        let td = mom.t.dot(d);
                        let inv_r9 = inv_r7 / r2;
                        let poly = 5.0 * s_ddd - 3.0 * td * r2;
                        potential -= 0.5 * g * poly * inv_r7;
                        // FROZEN: same traversal-order contract as the
                        // quadrupole term.
                        accel += (s_dd * 15.0 - mom.t * (3.0 * r2) - d * (6.0 * td))
                            * (0.5 * g * inv_r7)
                            - d * (3.5 * g * poly * inv_r9);
                    }
                }
            } else if node.is_leaf() {
                let mut block = node.start as usize;
                let end = node.end as usize;
                while block < end {
                    let slots = block..end.min(block + LANES);
                    block = slots.end;
                    let n = slots.len();
                    // Lane phase: every pair of the block, the target's own
                    // slot included (its terms are never folded).
                    let sources = self.src_x[slots.clone()]
                        .iter()
                        .zip(&self.src_y[slots.clone()])
                        .zip(&self.src_z[slots.clone()])
                        .zip(&self.src_gm[slots.clone()]);
                    let out = terms.ax[..n]
                        .iter_mut()
                        .zip(&mut terms.ay[..n])
                        .zip(&mut terms.az[..n])
                        .zip(&mut terms.pot[..n]);
                    for ((((ax, ay), az), pot), (((&x, &y), &z), &gm)) in out.zip(sources) {
                        let (dx, dy, dz) = (point.x - x, point.y - y, point.z - z);
                        let r2 = (dx * dx + dy * dy + dz * dz) + eps2;
                        let r = r2.sqrt();
                        let f = gm / (r2 * r);
                        *ax = dx * f;
                        *ay = dy * f;
                        *az = dz * f;
                        *pot = gm / r;
                    }
                    // Ordered fold — FROZEN: the block's pair terms leave
                    // the sums one pair at a time in Morton-slot order, the
                    // target's own slot left out; part of the gravity
                    // bit-identity contract.
                    let own = skip_slot.wrapping_sub(slots.start);
                    let folded = if own < n { n - 1 } else { n };
                    p2p += folded as u64;
                    for k in 0..n {
                        if k == own {
                            continue;
                        }
                        accel.x -= terms.ax[k];
                        accel.y -= terms.ay[k];
                        accel.z -= terms.az[k];
                        potential -= terms.pot[k];
                    }
                }
            } else {
                let kids = &self.children[node.first_child as usize..node.last_child as usize];
                for &c in kids {
                    stack[top] = c;
                    top += 1;
                }
            }
        }
        stats.nodes_visited += visited;
        stats.p2p_interactions += p2p;
        stats.p2m_interactions += p2m;
        GravitySample { accel, potential }
    }

    /// The one-pair-at-a-time walk over `tree.nodes()` that `field_at`
    /// replaced, kept as its oracle: heap stack, `Node::children` with the
    /// sentinel, `Vec3` arithmetic per pair. (`g·m` is the product stored
    /// at construction.)
    #[cfg(test)]
    fn field_at_reference(
        &self,
        point: Vec3,
        skip: Option<u32>,
        stats: &mut TraversalStats,
    ) -> GravitySample {
        let g = self.config.g;
        let eps2 = self.config.softening * self.config.softening;
        let theta2 = self.config.theta * self.config.theta;
        let nodes = self.tree.nodes();
        let pos = self.tree.sorted_positions();
        let order = self.tree.order();

        let mut accel = Vec3::ZERO;
        let mut potential = 0.0;
        let mut stack: Vec<u32> = vec![0];
        while let Some(ni) = stack.pop() {
            let node = &nodes[ni as usize];
            stats.nodes_visited += 1;
            let (mass, com) = (self.walk[ni as usize].mass, self.walk[ni as usize].com);
            let mom = &self.moments[ni as usize];
            if mass <= 0.0 {
                continue;
            }
            let d = point - com;
            let dist2 = d.norm_sq();
            let size = node.tight.max_extent();
            let accept = !node.is_leaf()
                && dist2 > 0.0
                && size * size < theta2 * dist2
                && node.tight.dist_sq_to_point(point) > 0.0;
            if accept {
                stats.p2m_interactions += 1;
                let r2 = dist2 + eps2;
                let r = r2.sqrt();
                let inv_r3 = 1.0 / (r2 * r);
                accel -= d * (g * mass * inv_r3);
                potential -= g * mass / r;
                if self.config.order.degree() >= 2 {
                    let tr_m2 = mom.m2.trace();
                    let qd = mom.m2.mul_vec(d) * 3.0 - d * tr_m2;
                    let dqd = d.dot(qd);
                    let inv_r5 = inv_r3 / r2;
                    let inv_r7 = inv_r5 / r2;
                    potential -= 0.5 * g * dqd * inv_r5;
                    accel += qd * (g * inv_r5) - d * (2.5 * g * dqd * inv_r7);
                    if self.config.order.degree() >= 3 {
                        let s_dd = mom.s3.contract_twice(d);
                        let s_ddd = s_dd.dot(d);
                        let td = mom.t.dot(d);
                        let inv_r9 = inv_r7 / r2;
                        let poly = 5.0 * s_ddd - 3.0 * td * r2;
                        potential -= 0.5 * g * poly * inv_r7;
                        accel += (s_dd * 15.0 - mom.t * (3.0 * r2) - d * (6.0 * td))
                            * (0.5 * g * inv_r7)
                            - d * (3.5 * g * poly * inv_r9);
                    }
                }
            } else if node.is_leaf() {
                for k in node.start..node.end {
                    let oi = order[k as usize];
                    if skip == Some(oi) {
                        continue;
                    }
                    stats.p2p_interactions += 1;
                    let dj = point - pos[k as usize];
                    let r2 = dj.norm_sq() + eps2;
                    let r = r2.sqrt();
                    let gm = self.src_gm[k as usize];
                    accel -= dj * (gm / (r2 * r));
                    potential -= gm / r;
                }
            } else {
                for &c in &node.children {
                    if c != u32::MAX {
                        stack.push(c);
                    }
                }
            }
        }
        GravitySample { accel, potential }
    }

    /// Accelerations and potentials at every particle position, in original
    /// particle order, skipping self-interaction. Parallel over targets.
    pub fn accelerations(&self, positions: &[Vec3]) -> (Vec<GravitySample>, TraversalStats) {
        assert_eq!(positions.len(), self.tree.len());
        // Chunked map (fixed REDUCE_CHUNK boundaries) + ordered reduce of
        // the per-chunk traversal counters.
        let chunks: Vec<(Vec<GravitySample>, TraversalStats)> = positions
            .par_chunks(REDUCE_CHUNK)
            .enumerate()
            .map(|(c, chunk)| {
                let base = c * REDUCE_CHUNK;
                let mut stats = TraversalStats::default();
                let samples = chunk
                    .iter()
                    .enumerate()
                    .map(|(off, &p)| self.field_at(p, Some((base + off) as u32), &mut stats))
                    .collect();
                (samples, stats)
            })
            .collect();
        let mut merged = TraversalStats::default();
        let mut out = Vec::with_capacity(positions.len());
        for (samples, stats) in chunks {
            merged.merge(&stats);
            out.extend(samples);
        }
        (out, merged)
    }
}

/// O(N²) direct-summation reference (validation only).
pub fn direct_field(
    positions: &[Vec3],
    masses: &[f64],
    target: Vec3,
    skip: Option<usize>,
    g: f64,
    softening: f64,
) -> GravitySample {
    let eps2 = softening * softening;
    let mut accel = Vec3::ZERO;
    let mut potential = 0.0;
    for (j, (&pj, &mj)) in positions.iter().zip(masses).enumerate() {
        if skip == Some(j) {
            continue;
        }
        let d = target - pj;
        let r2 = d.norm_sq() + eps2;
        let r = r2.sqrt();
        accel -= d * (g * mj / (r2 * r));
        potential -= g * mj / r;
    }
    GravitySample { accel, potential }
}

/// Total gravitational energy `½ Σ mᵢ φᵢ` from per-particle potentials.
/// Diagnostic-only reduction (never feeds a trajectory), so it uses the
/// compensated accumulator.
pub fn gravitational_energy(masses: &[f64], potentials: &[f64]) -> f64 {
    assert_eq!(masses.len(), potentials.len());
    let mut acc = sph_math::KahanAccumulator::new();
    for (&m, &p) in masses.iter().zip(potentials) {
        acc.add(m * p);
    }
    0.5 * acc.total()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::octree::{Octree, OctreeConfig};
    use sph_math::{Aabb, SplitMix64};

    fn random_system(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let pos: Vec<Vec3> =
            (0..n).map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64())).collect();
        let masses: Vec<f64> = (0..n).map(|_| rng.uniform(0.5, 1.5) / n as f64).collect();
        (pos, masses)
    }

    fn build_solver<'a>(
        tree: &'a Octree,
        masses: &[f64],
        theta: f64,
        order: MultipoleOrder,
    ) -> GravitySolver<'a> {
        GravitySolver::new(tree, masses, GravityConfig { g: 1.0, theta, softening: 1e-3, order })
    }

    #[test]
    fn total_mass_is_conserved_by_moments() {
        let (pos, masses) = random_system(500, 2);
        let tree = Octree::build(&pos, &Aabb::unit(), OctreeConfig::default());
        let solver = build_solver(&tree, &masses, 0.5, MultipoleOrder::Quadrupole);
        let exact: f64 = masses.iter().sum();
        assert!((solver.total_mass() - exact).abs() < 1e-12);
    }

    #[test]
    fn two_body_inverse_square() {
        // A single far-away source must give the Newtonian field.
        let pos = vec![Vec3::splat(0.5)];
        let masses = vec![2.0];
        let tree = Octree::build(&pos, &Aabb::unit(), OctreeConfig::default());
        let solver = build_solver(&tree, &masses, 0.5, MultipoleOrder::Monopole);
        let target = Vec3::new(3.5, 0.5, 0.5); // distance 3 along x
        let mut stats = TraversalStats::default();
        let s = solver.field_at(target, None, &mut stats);
        let expected_a = -2.0 / 9.0; // −GM/r²
        assert!((s.accel.x - expected_a).abs() < 1e-5, "ax = {}", s.accel.x);
        assert!(s.accel.y.abs() < 1e-12 && s.accel.z.abs() < 1e-12);
        assert!((s.potential + 2.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn barnes_hut_matches_direct_sum() {
        let (pos, masses) = random_system(800, 9);
        let tree = Octree::build(
            &pos,
            &Aabb::unit(),
            OctreeConfig { max_leaf_size: 16, parallel_sort: false },
        );
        for (theta, order, tol) in [
            (0.5, MultipoleOrder::Monopole, 3e-2),
            (0.5, MultipoleOrder::Quadrupole, 6e-3),
            (0.3, MultipoleOrder::Quadrupole, 2e-3),
        ] {
            let solver = build_solver(&tree, &masses, theta, order);
            let mut max_rel = 0.0_f64;
            for i in (0..pos.len()).step_by(37) {
                let mut stats = TraversalStats::default();
                let bh = solver.field_at(pos[i], Some(i as u32), &mut stats);
                let exact = direct_field(&pos, &masses, pos[i], Some(i), 1.0, 1e-3);
                let rel = (bh.accel - exact.accel).norm() / exact.accel.norm().max(1e-12);
                max_rel = max_rel.max(rel);
            }
            assert!(max_rel < tol, "θ={theta} {order:?}: max rel accel error {max_rel} ≥ {tol}");
        }
    }

    #[test]
    fn octupole_beats_quadrupole() {
        // Each added multipole order must reduce the acceleration error at
        // a fixed opening angle (the point of carrying them: ChaNGa's
        // 16-pole expansion buys accuracy per accepted cell).
        let (pos, masses) = random_system(700, 21);
        let tree = Octree::build(
            &pos,
            &Aabb::unit(),
            OctreeConfig { max_leaf_size: 16, parallel_sort: false },
        );
        let theta = 0.5;
        let mut errs = Vec::new();
        for order in
            [MultipoleOrder::Monopole, MultipoleOrder::Quadrupole, MultipoleOrder::Octupole]
        {
            let solver = build_solver(&tree, &masses, theta, order);
            let mut err = 0.0;
            let mut st = TraversalStats::default();
            for i in (0..pos.len()).step_by(23) {
                let bh = solver.field_at(pos[i], Some(i as u32), &mut st).accel;
                let exact = direct_field(&pos, &masses, pos[i], Some(i), 1.0, 1e-3).accel;
                err += (bh - exact).norm() / exact.norm().max(1e-12);
            }
            errs.push(err);
        }
        assert!(errs[1] < 0.7 * errs[0], "quad {} !< mono {}", errs[1], errs[0]);
        assert!(errs[2] < 0.75 * errs[1], "oct {} !< quad {}", errs[2], errs[1]);
    }

    #[test]
    fn octupole_potential_matches_direct_sum_tightly() {
        let (pos, masses) = random_system(400, 29);
        let tree = Octree::build(
            &pos,
            &Aabb::unit(),
            OctreeConfig { max_leaf_size: 16, parallel_sort: false },
        );
        let solver = build_solver(&tree, &masses, 0.5, MultipoleOrder::Octupole);
        let mut st = TraversalStats::default();
        for i in [5usize, 111, 333] {
            let bh = solver.field_at(pos[i], Some(i as u32), &mut st);
            let exact = direct_field(&pos, &masses, pos[i], Some(i), 1.0, 1e-3);
            let rel = (bh.potential - exact.potential).abs() / exact.potential.abs();
            assert!(rel < 2e-3, "octupole potential rel err {rel}");
        }
    }

    #[test]
    fn multipole_degrees() {
        assert_eq!(MultipoleOrder::Monopole.degree(), 1);
        assert_eq!(MultipoleOrder::Quadrupole.degree(), 2);
        assert_eq!(MultipoleOrder::Octupole.degree(), 3);
    }

    #[test]
    fn quadrupole_beats_monopole() {
        let (pos, masses) = random_system(600, 12);
        let tree = Octree::build(
            &pos,
            &Aabb::unit(),
            OctreeConfig { max_leaf_size: 16, parallel_sort: false },
        );
        let mono = build_solver(&tree, &masses, 0.7, MultipoleOrder::Monopole);
        let quad = build_solver(&tree, &masses, 0.7, MultipoleOrder::Quadrupole);
        let mut err_mono = 0.0;
        let mut err_quad = 0.0;
        for i in (0..pos.len()).step_by(29) {
            let mut st = TraversalStats::default();
            let exact = direct_field(&pos, &masses, pos[i], Some(i), 1.0, 1e-3);
            let am = mono.field_at(pos[i], Some(i as u32), &mut st).accel;
            let aq = quad.field_at(pos[i], Some(i as u32), &mut st).accel;
            err_mono += (am - exact.accel).norm();
            err_quad += (aq - exact.accel).norm();
        }
        assert!(
            err_quad < err_mono * 0.7,
            "quadrupole ({err_quad}) should clearly beat monopole ({err_mono})"
        );
    }

    #[test]
    fn smaller_theta_costs_more_interactions() {
        let (pos, masses) = random_system(2000, 15);
        let tree = Octree::build(
            &pos,
            &Aabb::unit(),
            OctreeConfig { max_leaf_size: 16, parallel_sort: false },
        );
        let loose = build_solver(&tree, &masses, 0.9, MultipoleOrder::Monopole);
        let tight = build_solver(&tree, &masses, 0.3, MultipoleOrder::Monopole);
        let (_, st_loose) = loose.accelerations(&pos);
        let (_, st_tight) = tight.accelerations(&pos);
        assert!(
            st_tight.total_interactions() > 2 * st_loose.total_interactions(),
            "tight {} vs loose {}",
            st_tight.total_interactions(),
            st_loose.total_interactions()
        );
    }

    #[test]
    fn momentum_conservation_of_pairwise_forces() {
        // Direct sum: Σ m a = 0 exactly (Newton's third law); Barnes–Hut
        // violates it only at the multipole truncation level.
        let (pos, masses) = random_system(300, 33);
        let tree = Octree::build(
            &pos,
            &Aabb::unit(),
            OctreeConfig { max_leaf_size: 8, parallel_sort: false },
        );
        let solver = build_solver(&tree, &masses, 0.4, MultipoleOrder::Quadrupole);
        let (samples, _) = solver.accelerations(&pos);
        let net: Vec3 =
            samples.iter().zip(&masses).map(|(s, &m)| s.accel * m).fold(Vec3::ZERO, |a, b| a + b);
        // Scale: typical |m a| ~ G m²/r² ~ (1/300)² × 300 pairs ≈ 1e-3.
        let typical: f64 =
            samples.iter().zip(&masses).map(|(s, &m)| (s.accel * m).norm()).sum::<f64>() / 300.0;
        assert!(
            net.norm() < 0.05 * typical * 300.0_f64.sqrt(),
            "net force {net:?} too large vs typical {typical}"
        );
    }

    #[test]
    fn gravitational_energy_sign_and_scaling() {
        let (pos, masses) = random_system(200, 44);
        let tree = Octree::build(&pos, &Aabb::unit(), OctreeConfig::default());
        let solver = build_solver(&tree, &masses, 0.4, MultipoleOrder::Quadrupole);
        let (samples, _) = solver.accelerations(&pos);
        let pots: Vec<f64> = samples.iter().map(|s| s.potential).collect();
        let e = gravitational_energy(&masses, &pots);
        assert!(e < 0.0, "bound system must have negative energy, got {e}");
    }

    #[test]
    fn potential_matches_direct_sum() {
        let (pos, masses) = random_system(400, 50);
        let tree = Octree::build(
            &pos,
            &Aabb::unit(),
            OctreeConfig { max_leaf_size: 16, parallel_sort: false },
        );
        let solver = build_solver(&tree, &masses, 0.4, MultipoleOrder::Quadrupole);
        let mut st = TraversalStats::default();
        for i in [0usize, 111, 333] {
            let bh = solver.field_at(pos[i], Some(i as u32), &mut st);
            let exact = direct_field(&pos, &masses, pos[i], Some(i), 1.0, 1e-3);
            let rel = (bh.potential - exact.potential).abs() / exact.potential.abs();
            assert!(rel < 5e-3, "potential rel err {rel}");
        }
    }

    /// Centrally condensed blob (Evrard-like): deep tree at the centre.
    fn condensed_system(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let pos: Vec<Vec3> = (0..n)
            .map(|_| {
                let r = rng.next_f64().powi(3) * 0.5;
                let theta = rng.uniform(0.0, std::f64::consts::PI);
                let phi = rng.uniform(0.0, 2.0 * std::f64::consts::PI);
                Vec3::splat(0.5)
                    + Vec3::new(theta.sin() * phi.cos(), theta.sin() * phi.sin(), theta.cos()) * r
            })
            .collect();
        let masses: Vec<f64> = (0..n).map(|_| rng.uniform(0.5, 1.5) / n as f64).collect();
        (pos, masses)
    }

    /// `field_at` against the one-pair-at-a-time oracle: every bit of the
    /// sample and every counter.
    fn assert_matches_reference(
        solver: &GravitySolver,
        point: Vec3,
        skip: Option<u32>,
        what: &str,
    ) {
        let (mut stats, mut stats_ref) = (TraversalStats::default(), TraversalStats::default());
        let got = solver.field_at(point, skip, &mut stats);
        let want = solver.field_at_reference(point, skip, &mut stats_ref);
        for (name, a, b) in [
            ("accel.x", got.accel.x, want.accel.x),
            ("accel.y", got.accel.y, want.accel.y),
            ("accel.z", got.accel.z, want.accel.z),
            ("potential", got.potential, want.potential),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {name} {a:e} vs reference {b:e}");
        }
        assert_eq!(stats, stats_ref, "{what}: traversal counters");
    }

    #[test]
    fn field_at_is_bit_identical_to_the_reference_walk() {
        let clouds =
            [("uniform", random_system(600, 71)), ("condensed", condensed_system(600, 72))];
        for (cloud, (pos, masses)) in &clouds {
            for max_leaf_size in [1, 8, 32] {
                let tree = Octree::build(
                    pos,
                    &Aabb::unit(),
                    OctreeConfig { max_leaf_size, parallel_sort: false },
                );
                for order in
                    [MultipoleOrder::Monopole, MultipoleOrder::Quadrupole, MultipoleOrder::Octupole]
                {
                    for theta in [0.3, 0.5, 0.9] {
                        let solver = build_solver(&tree, masses, theta, order);
                        let what = format!("{cloud} leaf {max_leaf_size} {order:?} θ {theta}");
                        for i in (0..pos.len()).step_by(7) {
                            assert_matches_reference(&solver, pos[i], Some(i as u32), &what);
                            assert_matches_reference(&solver, pos[i], None, &what);
                        }
                        // Skipping a particle that is not at the target, an
                        // index no particle has, a target outside the root.
                        assert_matches_reference(&solver, pos[3], Some(11), &what);
                        assert_matches_reference(&solver, pos[3], Some(600), &what);
                        assert_matches_reference(&solver, Vec3::new(2.5, -1.0, 0.5), None, &what);
                        assert_matches_reference(
                            &solver,
                            Vec3::new(2.5, -1.0, 0.5),
                            Some(0),
                            &what,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_particle_tree_matches_the_reference() {
        let pos = vec![Vec3::splat(0.5)];
        let tree = Octree::build(&pos, &Aabb::unit(), OctreeConfig::default());
        let solver = build_solver(&tree, &[2.0], 0.5, MultipoleOrder::Quadrupole);
        assert_matches_reference(&solver, Vec3::new(3.5, 0.5, 0.5), None, "far");
        assert_matches_reference(&solver, pos[0], None, "on the particle");
        assert_matches_reference(&solver, pos[0], Some(0), "on the particle, skipped");
        let mut stats = TraversalStats::default();
        let own = solver.field_at(pos[0], Some(0), &mut stats);
        assert_eq!((own.accel, own.potential), (Vec3::ZERO, 0.0));
        assert_eq!(stats.p2p_interactions, 0);
    }

    #[test]
    fn fat_leaf_spans_several_lane_blocks() {
        // 100 coincident points end in one leaf at the Morton depth limit:
        // four lane blocks, the last one partial, under the deepest stack.
        let (mut pos, _) = random_system(40, 5);
        pos.extend(std::iter::repeat_n(Vec3::splat(0.25), 100));
        let masses = vec![1.0 / 140.0; 140];
        let tree = Octree::build(
            &pos,
            &Aabb::unit(),
            OctreeConfig { max_leaf_size: 4, parallel_sort: false },
        );
        let fat = tree.nodes().iter().find(|n| n.is_leaf() && n.count() == 100).expect("fat leaf");
        assert!(fat.count() > 3 * LANES);
        assert_eq!(u32::from(fat.depth), BITS_PER_AXIS);
        let solver = build_solver(&tree, &masses, 0.5, MultipoleOrder::Quadrupole);
        for i in [0, 39, 40, 41, 72, 73, 104, 139] {
            assert_matches_reference(&solver, pos[i], Some(i as u32), "fat leaf");
            assert_matches_reference(&solver, pos[i], None, "fat leaf");
        }
        let mut stats = TraversalStats::default();
        solver.field_at(pos[40], Some(40), &mut stats);
        assert_eq!(stats.p2p_interactions, 139, "a leaf is always opened: exact near field");
    }

    #[test]
    fn zero_softening_self_lane_never_reaches_the_fold() {
        // With ε = 0 the target's own lane holds 0·∞ = NaN in the buffers.
        let (pos, masses) = condensed_system(300, 13);
        let tree = Octree::build(
            &pos,
            &Aabb::unit(),
            OctreeConfig { max_leaf_size: 8, parallel_sort: false },
        );
        let config = GravityConfig { softening: 0.0, ..GravityConfig::default() };
        let solver = GravitySolver::new(&tree, &masses, config);
        for (i, &p) in pos.iter().enumerate() {
            let mut stats = TraversalStats::default();
            let sample = solver.field_at(p, Some(i as u32), &mut stats);
            assert!(sample.accel.is_finite() && sample.potential.is_finite(), "target {i}");
            assert_matches_reference(&solver, p, Some(i as u32), "ε = 0");
        }
    }

    #[test]
    #[should_panic(expected = "softening")]
    fn negative_softening_is_rejected() {
        let tree = Octree::build(&[Vec3::splat(0.5)], &Aabb::unit(), OctreeConfig::default());
        let _ = GravitySolver::new(
            &tree,
            &[1.0],
            GravityConfig { softening: -1e-3, ..GravityConfig::default() },
        );
    }

    #[test]
    #[should_panic(expected = "softening")]
    fn non_finite_softening_is_rejected() {
        let tree = Octree::build(&[Vec3::splat(0.5)], &Aabb::unit(), OctreeConfig::default());
        let _ = GravitySolver::new(
            &tree,
            &[1.0],
            GravityConfig { softening: f64::NAN, ..GravityConfig::default() },
        );
    }

    #[test]
    #[should_panic(expected = "G must be finite")]
    fn non_finite_g_is_rejected() {
        let tree = Octree::build(&[Vec3::splat(0.5)], &Aabb::unit(), OctreeConfig::default());
        let _ = GravitySolver::new(
            &tree,
            &[1.0],
            GravityConfig { g: f64::INFINITY, ..GravityConfig::default() },
        );
    }

    #[test]
    fn skip_excludes_self() {
        let pos = vec![Vec3::splat(0.3), Vec3::splat(0.7)];
        let masses = vec![1.0, 1.0];
        let tree = Octree::build(&pos, &Aabb::unit(), OctreeConfig::default());
        let solver = build_solver(&tree, &masses, 0.5, MultipoleOrder::Monopole);
        let mut st = TraversalStats::default();
        let with_skip = solver.field_at(pos[0], Some(0), &mut st);
        let without = solver.field_at(pos[0], None, &mut st);
        // Without skip the softened self-term adds −Gm/ε to the potential.
        assert!(without.potential < with_skip.potential);
        // Self-force is zero either way (d = 0 ⇒ softened force 0).
        assert!((with_skip.accel - without.accel).norm() < 1e-12);
    }
}
