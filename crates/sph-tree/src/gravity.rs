//! Barnes–Hut self-gravity with multipole expansions (Algorithm 1, step 4).
//!
//! Table 1: SPHYNX evaluates gravity with multipoles up to quadrupole
//! ("4-pole"), ChaNGa up to hexadecapole ("16-pole"). This module
//! implements monopole, quadrupole and octupole expansions exactly; the
//! cost of the higher-order terms ChaNGa carries is represented in the
//! performance model by a per-cell-interaction cost factor
//! (`sph-bench`'s `CostModel::gravity_flops_per_interaction`), while force
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
//! is. (On the benchmark's 15.5k-particle Evrard state, with the Evrard
//! scenario's octupole at θ = 0.55 and leaves of at most 24, that is 1 464
//! of a target's 1 613 interactions; leaves hold ≈ 6 particles.)
//!
//! **Arithmetic.** One division per pair and per accepted cell: `1/r =
//! 1/√(r²+ε²)` once, the potential term `G·m·(1/r)` and every higher power
//! of `1/r` from products of it.
//!
//! **The production point** is the cheapest cell of the error–cost table
//! that the workspace root's `tests/force_error.rs` prints (leaf size ×
//! order × θ, each against direct summation) whose median, p99 and max
//! force error are within 5 % of the point it replaced and that passes
//! the tier-1 force-error gate there: `OctreeConfig::default()` leaves of
//! 24, and the Evrard scenario's octupole at θ 0.55. The other gravity
//! configurations keep their order and take the θ that holds their own
//! force error at leaves of 24: SPHYNX's and the default quadrupole
//! 0.5 → 0.49, ChaNGa's octupole 0.7 → 0.62.
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
//!   the particle to skip is known before the walk starts and the pair
//!   loop compares a slot, not an id per pair.
//!
//! **Group walk.** [`GravitySolver::fields_at`], the one entry point (the
//! driver's gravity pass and [`GravitySolver::accelerations`] both call
//! it), decides the order in which targets are walked:
//! * *Morton groups* — targets are sorted by the Morton slot of their own
//!   particle and walked `GROUP` (64) at a time in one depth-first
//!   traversal, in fixed `REDUCE_CHUNK` chunks of that order; samples and
//!   counters go back to each target's own place. Targets that sit close
//!   together open much the same nodes, so a group's traversal visits few
//!   nodes that only one of its targets needs.
//! * *Traversal* — a stack entry is a node and the mask of targets that
//!   reach it; at an internal node every target makes its own MAC
//!   decision, and those that open the node carry on into its children
//!   together.
//! * *Leaf runs* — leaves popped one after another for the same mask
//!   (mostly sibling leaves) form one run: its targets are packed into
//!   lanes once, the leaves are evaluated in pop order, each leaf's slots
//!   ascending and outermost, and each lane subtracts its pair terms from
//!   its own sums one slot at a time.
//! * *Mask-free pair loop* — a leaf that holds none of the lanes' own
//!   slots (every leaf but the group's own ones) runs a pair loop that
//!   looks at no mask; in the other, a lane's own slot's terms are masked
//!   to `+0.0`.
//! * *Padding* — an odd lane count gets one more lane, a copy of lane 0
//!   whose sums are discarded, so the lane loop has no odd lane left over.
//!
//! The lane loop has no iteration that depends on another, so the compiler
//! runs it at whatever vector width the target has. Each target thus
//! receives exactly the terms of a walk of its own, in that walk's order,
//! and the same `TraversalStats`: neither the order, the grouping, the
//! thread count nor the lane width changes a bit (CI runs the goldens and
//! the force-error gate with AVX2 enabled to hold that). The one-target walk
//! the group walk replaced is kept under `#[cfg(test)]` as its oracle,
//! `field_at_reference`.

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
    /// Quadrupole at θ 0.49: with `OctreeConfig::default()` leaves of 24,
    /// the force error of the θ 0.5 with leaves of 32 it replaced (each of
    /// median, p99 and max within 5 %; the workspace root's
    /// `tests/force_error.rs` gates it).
    fn default() -> Self {
        GravityConfig { g: 1.0, theta: 0.49, softening: 1e-4, order: MultipoleOrder::Quadrupole }
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

/// Targets that share one traversal of the group walk: the walk stack
/// marks the targets still walking a subtree with one bit each of a
/// `Mask`. With Morton-ordered targets, groups of 64 walked the
/// benchmark's Evrard cloud ≈ 6 % faster than groups of 32 in 10 of 10
/// alternating rounds, and groups of 128 no faster.
const GROUP: usize = 64;

/// One bit per target of a group.
type Mask = u64;

/// Capacity of the walk stack. The stack holds at most the unvisited
/// siblings (≤ 7) of each internal node on the path from the root, plus
/// the 8 children of the node opened last; internal nodes sit at depths
/// `0..BITS_PER_AXIS`. A group walk pushes a node once for all the targets
/// that opened its parent, so one target's bound is the group's.
const STACK_CAPACITY: usize = 7 * BITS_PER_AXIS as usize + 8;

/// The targets of one group walk, structure of arrays: where each sits,
/// the Morton slot it leaves out (`usize::MAX` for none), and what the
/// walk has summed for it so far.
struct Group {
    len: usize,
    x: [f64; GROUP],
    y: [f64; GROUP],
    z: [f64; GROUP],
    skip: [usize; GROUP],
    ax: [f64; GROUP],
    ay: [f64; GROUP],
    az: [f64; GROUP],
    pot: [f64; GROUP],
    stats: [TraversalStats; GROUP],
}

impl Group {
    fn new() -> Group {
        Group {
            len: 0,
            x: [0.0; GROUP],
            y: [0.0; GROUP],
            z: [0.0; GROUP],
            skip: [usize::MAX; GROUP],
            ax: [0.0; GROUP],
            ay: [0.0; GROUP],
            az: [0.0; GROUP],
            pot: [0.0; GROUP],
            stats: [TraversalStats::default(); GROUP],
        }
    }

    /// Add a target at `point` that leaves out Morton slot `skip`.
    fn push(&mut self, point: Vec3, skip: usize) {
        let t = self.len;
        (self.x[t], self.y[t], self.z[t], self.skip[t]) = (point.x, point.y, point.z, skip);
        self.len += 1;
    }

    fn sample(&self, t: usize) -> GravitySample {
        GravitySample {
            accel: Vec3::new(self.ax[t], self.ay[t], self.az[t]),
            potential: self.pot[t],
        }
    }
}

/// Targets packed into lanes `0..n` for one node or run of leaves, so that
/// a loop over the lanes has no iteration that depends on another: each
/// lane's group index, a point and a key, and its running sums. At leaves
/// the point is the target's position and the key the Morton slot it
/// leaves out (a float, so the pair loop compares at the width of the
/// sums; −1 for none). At an accepted cell the point is the target's
/// offset from the cell's centre of mass and the key its squared length.
struct Lanes {
    n: usize,
    target: [usize; GROUP],
    x: [f64; GROUP],
    y: [f64; GROUP],
    z: [f64; GROUP],
    key: [f64; GROUP],
    ax: [f64; GROUP],
    ay: [f64; GROUP],
    az: [f64; GROUP],
    pot: [f64; GROUP],
}

impl Lanes {
    fn new() -> Lanes {
        Lanes {
            n: 0,
            target: [0; GROUP],
            x: [0.0; GROUP],
            y: [0.0; GROUP],
            z: [0.0; GROUP],
            key: [0.0; GROUP],
            ax: [0.0; GROUP],
            ay: [0.0; GROUP],
            az: [0.0; GROUP],
            pot: [0.0; GROUP],
        }
    }

    /// Pack target `t` of `group` into the next lane.
    fn push(&mut self, group: &Group, t: usize, point: Vec3, key: f64) {
        let j = self.n;
        self.target[j] = t;
        (self.x[j], self.y[j], self.z[j], self.key[j]) = (point.x, point.y, point.z, key);
        (self.ax[j], self.ay[j], self.az[j]) = (group.ax[t], group.ay[t], group.az[t]);
        self.pot[j] = group.pot[t];
        self.n += 1;
    }

    /// The lane count rounded up to even: an odd count gets one more lane,
    /// a copy of lane 0 that leaves out nothing, whose sums are never
    /// unpacked. A pair loop over an even count has no odd lane left over
    /// for a scalar tail. (`GROUP` is even, so there is always room.)
    fn padded(&mut self) -> usize {
        let n = self.n;
        if n % 2 == 1 {
            (self.x[n], self.y[n], self.z[n], self.key[n]) =
                (self.x[0], self.y[0], self.z[0], -1.0);
            (self.ax[n], self.ay[n], self.az[n], self.pot[n]) = (0.0, 0.0, 0.0, 0.0);
        }
        n + n % 2
    }

    /// Write the lanes' sums back to their targets and empty the lanes.
    fn unpack(&mut self, group: &mut Group) {
        for j in 0..self.n {
            let t = self.target[j];
            (group.ax[t], group.ay[t], group.az[t]) = (self.ax[j], self.ay[j], self.az[j]);
            group.pot[t] = self.pot[j];
        }
        self.n = 0;
    }

    /// Subtract the terms of the source `[x, y, z, g·m]` in slot `slot`
    /// from the sums of lanes `0..n`. With `OWN` a lane whose key is `slot`
    /// (the source is the particle it leaves out) takes `+0.0` instead;
    /// without, no lane's key is looked at. A method of its own so the
    /// compiler sees the lanes' arrays apart and runs the loop in vector
    /// registers.
    #[inline(always)]
    fn subtract_pair_terms<const OWN: bool>(
        &mut self,
        n: usize,
        source: [f64; 4],
        slot: f64,
        eps2: f64,
    ) {
        let [sx, sy, sz, gm] = source;
        let (x, y, z, own) = (&self.x[..n], &self.y[..n], &self.z[..n], &self.key[..n]);
        let (ax, ay, az, pot) =
            (&mut self.ax[..n], &mut self.ay[..n], &mut self.az[..n], &mut self.pot[..n]);
        for j in 0..n {
            let (dx, dy, dz) = (x[j] - sx, y[j] - sy, z[j] - sz);
            let r2 = (dx * dx + dy * dy + dz * dz) + eps2;
            // One division per pair: φ = g·m/r, force factor φ/r².
            let inv_r = 1.0 / r2.sqrt();
            let phi = gm * inv_r;
            let f = phi * (inv_r * inv_r);
            if OWN {
                // All ones, or all zeros on the lane's own slot: its terms
                // become +0.0 without a branch in the lane loop.
                let keep = u64::from(own[j] != slot).wrapping_neg();
                let term = |t: f64| f64::from_bits(t.to_bits() & keep);
                ax[j] -= term(dx * f);
                ay[j] -= term(dy * f);
                az[j] -= term(dz * f);
                pot[j] -= term(phi);
            } else {
                ax[j] -= dx * f;
                ay[j] -= dy * f;
                az[j] -= dz * f;
                pot[j] -= phi;
            }
        }
    }
}

/// The set bits of `mask`, lowest first: the targets it holds.
fn targets(mut mask: Mask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let t = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (t < GROUP).then_some(t)
    })
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
    /// no particle has skips nothing): a group walk of one target.
    pub fn field_at(
        &self,
        point: Vec3,
        skip: Option<u32>,
        stats: &mut TraversalStats,
    ) -> GravitySample {
        let mut group = Group::new();
        group.push(point, skip.map_or(usize::MAX, |i| self.slot(i)));
        self.walk_group(&mut group);
        stats.merge(&group.stats[0]);
        group.sample(0)
    }

    /// Morton slot of the particle with original index `i` (`usize::MAX`
    /// for an index no particle has).
    fn slot(&self, i: u32) -> usize {
        self.slot_of.get(i as usize).map_or(usize::MAX, |&k| k as usize)
    }

    /// The field at `n` targets: target `i` sits at `target(i).0` and is the
    /// particle with original index `target(i).1`, which it leaves out (an
    /// index no particle has leaves out nothing). `emit(i, sample, stats)`
    /// receives its sample and its own counters, once per target.
    ///
    /// The walk order is the solver's: targets are sorted by the Morton
    /// slot of their own particle, the sorted order is cut into fixed
    /// `REDUCE_CHUNK` chunks that run in parallel, and each chunk walks
    /// `GROUP` consecutive targets per traversal, so a group holds targets
    /// that sit close together and walk much of the tree alike. Each target
    /// gets exactly the terms, the order and the counters of a walk of its
    /// own, so neither the order, the grouping nor the thread count can
    /// change a bit. Allocates the sorted order and the chunks' samples.
    pub fn fields_at(
        &self,
        n: usize,
        target: impl Fn(usize) -> (Vec3, u32) + Sync,
        mut emit: impl FnMut(usize, GravitySample, &TraversalStats),
    ) {
        assert!(u32::try_from(n).is_ok(), "{n} targets overflow u32 indices");
        let slot = |i: u32| self.slot(target(i as usize).1);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| (slot(i), i));
        let chunks: Vec<Vec<(GravitySample, TraversalStats)>> = order
            .par_chunks(REDUCE_CHUNK)
            .map(|chunk| {
                let mut out = Vec::with_capacity(chunk.len());
                for members in chunk.chunks(GROUP) {
                    let mut group = Group::new();
                    for &i in members {
                        group.push(target(i as usize).0, slot(i));
                    }
                    self.walk_group(&mut group);
                    out.extend((0..group.len).map(|t| (group.sample(t), group.stats[t])));
                }
                out
            })
            .collect();
        for (chunk, samples) in order.chunks(REDUCE_CHUNK).zip(&chunks) {
            for (&i, (sample, stats)) in chunk.iter().zip(samples) {
                emit(i as usize, *sample, stats);
            }
        }
    }

    /// One depth-first traversal for every target of `group`. A stack entry
    /// is a node and the mask of targets that reach it; at an internal node
    /// each of them makes its own MAC decision, and those that open it
    /// carry on into its children together.
    fn walk_group(&self, group: &mut Group) {
        let theta2 = self.config.theta * self.config.theta;
        let mut lanes = Lanes::new();
        for stats in &mut group.stats[..group.len] {
            stats.nodes_visited = 1; // the root
        }
        let mut stack: [(u32, Mask); STACK_CAPACITY] = [(0, 0); STACK_CAPACITY];
        stack[0] = (0, Mask::MAX >> (GROUP - group.len)); // the root, every target
        let mut top = 1;
        while top > 0 {
            top -= 1;
            let (ni, mask) = stack[top];
            let node = &self.walk[ni as usize];
            if node.is_leaf() {
                // The leaves popped right after this one for the same
                // targets join it: one run, one lane pack.
                let last = top;
                while top > 0
                    && stack[top - 1].1 == mask
                    && self.walk[stack[top - 1].0 as usize].is_leaf()
                {
                    top -= 1;
                }
                self.open_leaves(&stack[top..=last], mask, group, &mut lanes);
                continue;
            }
            if node.mass <= 0.0 {
                continue;
            }
            let children = &self.children[node.first_child as usize..node.last_child as usize];
            let mut open: Mask = 0;
            for t in targets(mask) {
                let point = Vec3::new(group.x[t], group.y[t], group.z[t]);
                let d = point - node.com;
                let dist2 = d.norm_sq();
                // MAC: accept when (L/d)² < θ² and the point is safely
                // outside the cell (dist² > 0 guards the degenerate
                // self-cell case).
                if dist2 > 0.0
                    && node.size_sq < theta2 * dist2
                    && node.tight.dist_sq_to_point(point) > 0.0
                {
                    group.stats[t].p2m_interactions += 1;
                    lanes.push(group, t, d, dist2);
                } else {
                    open |= 1 << t;
                    // Every child pushed is visited: count it here.
                    group.stats[t].nodes_visited += children.len() as u64;
                }
            }
            if lanes.n > 0 {
                match self.config.order {
                    MultipoleOrder::Monopole => self.add_cell::<1>(ni as usize, &mut lanes),
                    MultipoleOrder::Quadrupole => self.add_cell::<2>(ni as usize, &mut lanes),
                    MultipoleOrder::Octupole => self.add_cell::<3>(ni as usize, &mut lanes),
                }
                lanes.unpack(group);
            }
            if open != 0 {
                for &c in children {
                    stack[top] = (c, open);
                    top += 1;
                }
            }
        }
    }

    /// The multipole terms, up to `DEGREE`, of accepted cell `ni` for every
    /// lane (offset `d` from its centre of mass, key `|d|²`).
    fn add_cell<const DEGREE: u8>(&self, ni: usize, lanes: &mut Lanes) {
        let g = self.config.g;
        let eps2 = self.config.softening * self.config.softening;
        let (mass, mom) = (self.walk[ni].mass, &self.moments[ni]);
        let n = lanes.n;
        let (x, y, z, dist2) = (&lanes.x[..n], &lanes.y[..n], &lanes.z[..n], &lanes.key[..n]);
        let (ax, ay, az, pot) =
            (&mut lanes.ax[..n], &mut lanes.ay[..n], &mut lanes.az[..n], &mut lanes.pot[..n]);
        for j in 0..n {
            let d = Vec3::new(x[j], y[j], z[j]);
            let mut accel = Vec3::new(ax[j], ay[j], az[j]);
            let mut potential = pot[j];
            let r2 = dist2[j] + eps2;
            // One division per cell: every power of 1/r from the same
            // reciprocal.
            let inv_r = 1.0 / r2.sqrt();
            let inv_r2 = inv_r * inv_r;
            let inv_r3 = inv_r * inv_r2;
            // Monopole.
            accel -= d * (g * mass * inv_r3);
            potential -= g * mass * inv_r;
            if DEGREE >= 2 {
                // Traceless quadrupole from the raw second moment:
                // Q = 3·M2 − tr(M2)·I ⇒ Q·d = 3 M2·d − tr(M2) d.
                let tr_m2 = mom.m2.trace();
                let qd = mom.m2.mul_vec(d) * 3.0 - d * tr_m2;
                let dqd = d.dot(qd);
                let inv_r5 = inv_r3 * inv_r2;
                let inv_r7 = inv_r5 * inv_r2;
                // φ₂ = −G (d·Q·d) / (2 r⁵)
                // a₂ = G Q d / r⁵ − (5G/2)(d·Q·d) d / r⁷
                potential -= 0.5 * g * dqd * inv_r5;
                // FROZEN: the multipole traversal accumulates in stack
                // order; part of the gravity bit-identity contract.
                accel += qd * (g * inv_r5) - d * (2.5 * g * dqd * inv_r7);
                if DEGREE >= 3 {
                    // Octupole (Cartesian Taylor term):
                    // φ₃ = −G [5 S:ddd − 3 (t·d) r²] / (2 r⁷)
                    // a₃ = G/2 [ (15 S:dd − 3 t r² − 6 (t·d) d)/r⁷
                    //            − 7 (5 S:ddd − 3 (t·d) r²) d / r⁹ ]
                    let s_dd = mom.s3.contract_twice(d);
                    let s_ddd = s_dd.dot(d);
                    let td = mom.t.dot(d);
                    let inv_r9 = inv_r7 * inv_r2;
                    let poly = 5.0 * s_ddd - 3.0 * td * r2;
                    potential -= 0.5 * g * poly * inv_r7;
                    // FROZEN: same traversal-order contract as the
                    // quadrupole term.
                    accel += (s_dd * 15.0 - mom.t * (3.0 * r2) - d * (6.0 * td))
                        * (0.5 * g * inv_r7)
                        - d * (3.5 * g * poly * inv_r9);
                }
            }
            (ax[j], ay[j], az[j], pot[j]) = (accel.x, accel.y, accel.z, potential);
        }
    }

    /// Every pair of a run of leaves for the targets in `mask`. `run` holds
    /// stack entries, so the leaves are taken from its end, in pop order;
    /// massless leaves are passed over, as a walk of its own passes over
    /// them. The targets are packed into lanes once and the slots run
    /// outermost, so each target's sums take the run's terms one leaf at a
    /// time, each leaf's slots ascending, exactly as a walk of its own
    /// would. A leaf that holds a lane's own slot runs the masked loop, in
    /// which that slot contributes `+0.0` to that lane (leaving its sums
    /// unchanged, because a sum that starts at `+0.0` is never `−0.0`);
    /// every other leaf runs the loop without the mask.
    fn open_leaves(&self, run: &[(u32, Mask)], mask: Mask, group: &mut Group, lanes: &mut Lanes) {
        let leaves = || {
            run.iter().rev().map(|&(ni, _)| &self.walk[ni as usize]).filter(|leaf| leaf.mass > 0.0)
        };
        if leaves().next().is_none() {
            return;
        }
        let eps2 = self.config.softening * self.config.softening;
        // Every target takes every pair of the run but its own.
        let pairs: usize = leaves().map(|leaf| (leaf.end - leaf.start) as usize).sum();
        // The lanes' own slots lie in `own_lo..=own_hi` (empty if none).
        let (mut own_lo, mut own_hi) = (usize::MAX, 0);
        for t in targets(mask) {
            group.stats[t].p2p_interactions += pairs as u64;
            let own = group.skip[t];
            let key = if own == usize::MAX {
                -1.0
            } else {
                (own_lo, own_hi) = (own_lo.min(own), own_hi.max(own));
                own as f64
            };
            lanes.push(group, t, Vec3::new(group.x[t], group.y[t], group.z[t]), key);
        }
        let n = lanes.padded();
        for leaf in leaves() {
            let slots = leaf.start as usize..leaf.end as usize;
            let source = |k: usize| [self.src_x[k], self.src_y[k], self.src_z[k], self.src_gm[k]];
            // FROZEN: each target's sums take the run's pair terms one
            // leaf at a time in pop order, each leaf's slots ascending,
            // its own slot left out; part of the gravity bit-identity
            // contract.
            if own_lo < slots.end && slots.start <= own_hi {
                // The lanes whose own slot this leaf holds take one pair less.
                for j in 0..lanes.n {
                    if slots.contains(&group.skip[lanes.target[j]]) {
                        group.stats[lanes.target[j]].p2p_interactions -= 1;
                    }
                }
                for k in slots {
                    lanes.subtract_pair_terms::<true>(n, source(k), k as f64, eps2);
                }
            } else {
                for k in slots {
                    lanes.subtract_pair_terms::<false>(n, source(k), 0.0, eps2);
                }
            }
        }
        lanes.unpack(group);
    }

    /// The per-target walk the group walk replaced, one pair at a time over
    /// `tree.nodes()`, kept as its oracle: one target, heap stack,
    /// `Node::children` with the sentinel, `Vec3` arithmetic per pair.
    /// (`g·m` is the product stored at construction.)
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
                let inv_r = 1.0 / r2.sqrt();
                let inv_r2 = inv_r * inv_r;
                let inv_r3 = inv_r * inv_r2;
                accel -= d * (g * mass * inv_r3);
                potential -= g * mass * inv_r;
                if self.config.order.degree() >= 2 {
                    let tr_m2 = mom.m2.trace();
                    let qd = mom.m2.mul_vec(d) * 3.0 - d * tr_m2;
                    let dqd = d.dot(qd);
                    let inv_r5 = inv_r3 * inv_r2;
                    let inv_r7 = inv_r5 * inv_r2;
                    potential -= 0.5 * g * dqd * inv_r5;
                    accel += qd * (g * inv_r5) - d * (2.5 * g * dqd * inv_r7);
                    if self.config.order.degree() >= 3 {
                        let s_dd = mom.s3.contract_twice(d);
                        let s_ddd = s_dd.dot(d);
                        let td = mom.t.dot(d);
                        let inv_r9 = inv_r7 * inv_r2;
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
                    let inv_r = 1.0 / r2.sqrt();
                    let phi = self.src_gm[k as usize] * inv_r;
                    accel -= dj * (phi * (inv_r * inv_r));
                    potential -= phi;
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
    /// particle order, skipping self-interaction: [`GravitySolver::fields_at`]
    /// with particle `i` as target `i`.
    pub fn accelerations(&self, positions: &[Vec3]) -> (Vec<GravitySample>, TraversalStats) {
        assert_eq!(positions.len(), self.tree.len());
        let mut out = vec![GravitySample { accel: Vec3::ZERO, potential: 0.0 }; positions.len()];
        let mut merged = TraversalStats::default();
        self.fields_at(
            positions.len(),
            |i| (positions[i], i as u32),
            |i, sample, stats| {
                out[i] = sample;
                merged.merge(stats);
            },
        );
        (out, merged)
    }
}

#[cfg(test)]
/// O(N²) direct-summation reference of the walk's tests.
pub(crate) fn direct_field(
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
        let tree = Octree::build(&pos, &Aabb::unit(), OctreeConfig { max_leaf_size: 16 });
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
        let tree = Octree::build(&pos, &Aabb::unit(), OctreeConfig { max_leaf_size: 16 });
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
        let tree = Octree::build(&pos, &Aabb::unit(), OctreeConfig { max_leaf_size: 16 });
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
        let tree = Octree::build(&pos, &Aabb::unit(), OctreeConfig { max_leaf_size: 16 });
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
        let tree = Octree::build(&pos, &Aabb::unit(), OctreeConfig { max_leaf_size: 16 });
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
        let tree = Octree::build(&pos, &Aabb::unit(), OctreeConfig { max_leaf_size: 8 });
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
        // W = ½ Σ mᵢ φᵢ
        let e: f64 = 0.5 * masses.iter().zip(&samples).map(|(m, s)| m * s.potential).sum::<f64>();
        assert!(e < 0.0, "bound system must have negative energy, got {e}");
    }

    #[test]
    fn potential_matches_direct_sum() {
        let (pos, masses) = random_system(400, 50);
        let tree = Octree::build(&pos, &Aabb::unit(), OctreeConfig { max_leaf_size: 16 });
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

    /// `field_at` (a group walk of one) against the per-target oracle: every
    /// bit of the sample and every counter.
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
                let tree = Octree::build(pos, &Aabb::unit(), OctreeConfig { max_leaf_size });
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

    /// `fields_at` over `targets` (position, own particle) against the
    /// per-target oracle: every bit of every sample and every counter, and
    /// each target emitted once.
    fn assert_group_matches_reference(solver: &GravitySolver, targets: &[(Vec3, u32)], what: &str) {
        let mut emitted = vec![false; targets.len()];
        solver.fields_at(
            targets.len(),
            |i| targets[i],
            |i, got, stats| {
                assert!(!std::mem::replace(&mut emitted[i], true), "{what}: target {i} twice");
                let (point, own) = targets[i];
                let mut stats_ref = TraversalStats::default();
                let want = solver.field_at_reference(point, Some(own), &mut stats_ref);
                for (name, a, b) in [
                    ("accel.x", got.accel.x, want.accel.x),
                    ("accel.y", got.accel.y, want.accel.y),
                    ("accel.z", got.accel.z, want.accel.z),
                    ("potential", got.potential, want.potential),
                ] {
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}, target {i}: {name}");
                }
                assert_eq!(*stats, stats_ref, "{what}, target {i}: traversal counters");
            },
        );
        assert!(emitted.iter().all(|&e| e), "{what}: a target was not emitted");
    }

    #[test]
    fn group_walk_is_bit_identical_to_the_per_target_walk() {
        let n = 600;
        let clouds = [("uniform", random_system(n, 81)), ("condensed", condensed_system(n, 82))];
        for (cloud, (pos, masses)) in &clouds {
            for max_leaf_size in [1, 8, 24, 32] {
                let tree = Octree::build(pos, &Aabb::unit(), OctreeConfig { max_leaf_size });
                for order in
                    [MultipoleOrder::Monopole, MultipoleOrder::Quadrupole, MultipoleOrder::Octupole]
                {
                    let solver = build_solver(&tree, masses, 0.5, order);
                    for size in 1..=GROUP {
                        // Consecutive particles; each is itself (a slot
                        // inside the group), a particle far from the group
                        // (a slot outside it), or an index no particle has.
                        let first = (size * 17) % (n - GROUP);
                        let targets: Vec<(Vec3, u32)> = (first..first + size)
                            .map(|i| {
                                let own = match i % 3 {
                                    0 => i,
                                    1 => (i + n / 2) % n,
                                    _ => n + i,
                                };
                                (pos[i], own as u32)
                            })
                            .collect();
                        let what = format!("{cloud} leaf {max_leaf_size} {order:?} size {size}");
                        assert_group_matches_reference(&solver, &targets, &what);
                    }
                    // Every particle, in id order, in reverse Morton order and
                    // scrambled with repeats (several chunks of Morton-sorted
                    // groups, the last one partial), and through
                    // `accelerations`.
                    let all: Vec<(Vec3, u32)> =
                        pos.iter().enumerate().map(|(i, &p)| (p, i as u32)).collect();
                    let what = format!("{cloud} leaf {max_leaf_size} {order:?} all");
                    assert_group_matches_reference(&solver, &all, &what);
                    let reversed: Vec<(Vec3, u32)> =
                        tree.order().iter().rev().map(|&i| all[i as usize]).collect();
                    assert_group_matches_reference(&solver, &reversed, &format!("{what} reversed"));
                    let scrambled: Vec<(Vec3, u32)> =
                        (0..n).map(|i| all[(i * 7 + 3) % n]).chain(all[..5].to_vec()).collect();
                    assert_group_matches_reference(
                        &solver,
                        &scrambled,
                        &format!("{what} scrambled"),
                    );
                    let (samples, stats) = solver.accelerations(pos);
                    let mut stats_ref = TraversalStats::default();
                    for (i, s) in samples.iter().enumerate() {
                        let want =
                            solver.field_at_reference(pos[i], Some(i as u32), &mut stats_ref);
                        assert_eq!(
                            (s.accel.to_array().map(f64::to_bits), s.potential.to_bits()),
                            (want.accel.to_array().map(f64::to_bits), want.potential.to_bits()),
                            "{what}: accelerations() at {i}"
                        );
                    }
                    assert_eq!(stats, stats_ref, "{what}: accelerations() counters");
                }
            }
        }
    }

    /// Leaves that are consecutive children of one internal node, in the
    /// compact child list: the runs a group walk batches. Returns
    /// `(first leaf, second leaf)` node indices of every such pair.
    fn sibling_leaf_pairs(solver: &GravitySolver) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for node in solver.walk.iter().filter(|n| !n.is_leaf()) {
            let kids = &solver.children[node.first_child as usize..node.last_child as usize];
            for w in kids.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                if solver.walk[a].is_leaf() && solver.walk[b].is_leaf() {
                    pairs.push((a, b));
                }
            }
        }
        pairs
    }

    #[test]
    fn leaf_runs_with_massless_leaves_and_own_slots_match_the_reference() {
        // Massless particles in a ball inside the cloud make whole leaves
        // massless; a run of sibling leaves that holds one of them must
        // pass over it as the per-target walk does. Targets sit in batched
        // leaves (their own slot in the run) and in groups of every lane
        // count, odd and even.
        let (pos, mut masses) = random_system(2000, 93);
        for (p, m) in pos.iter().zip(&mut masses) {
            if p.dist_sq(Vec3::splat(0.3)) < 0.25 * 0.25 {
                *m = 0.0;
            }
        }
        for max_leaf_size in [1, 8, 24] {
            let tree = Octree::build(&pos, &Aabb::unit(), OctreeConfig { max_leaf_size });
            for order in
                [MultipoleOrder::Monopole, MultipoleOrder::Quadrupole, MultipoleOrder::Octupole]
            {
                let solver = build_solver(&tree, &masses, 0.5, order);
                let what = format!("leaf {max_leaf_size} {order:?}");
                let pairs = sibling_leaf_pairs(&solver);
                let massless = |ni: usize| solver.walk[ni].mass <= 0.0;
                let (a, b) = *pairs
                    .iter()
                    .find(|&&(a, b)| massless(a) != massless(b))
                    .unwrap_or_else(|| panic!("{what}: no run mixes massless and massive leaves"));
                // Targets whose own slots sit in the two batched leaves, and
                // every particle of the cloud in lane counts 1..=GROUP.
                let order_ids = tree.order();
                let in_leaf = |ni: usize| {
                    let leaf = solver.walk[ni];
                    order_ids[leaf.start as usize..leaf.end as usize].to_vec()
                };
                let batched: Vec<(Vec3, u32)> = [in_leaf(a), in_leaf(b)]
                    .concat()
                    .iter()
                    .map(|&i| (pos[i as usize], i))
                    .collect();
                assert_group_matches_reference(&solver, &batched, &format!("{what} batched"));
                for &(a, b) in pairs.iter().take(40) {
                    let own: Vec<(Vec3, u32)> = [in_leaf(a), in_leaf(b)]
                        .concat()
                        .iter()
                        .map(|&i| (pos[i as usize], i))
                        .collect();
                    assert_group_matches_reference(&solver, &own, &format!("{what} run {a} {b}"));
                }
                for lanes in 1..=GROUP {
                    let targets: Vec<(Vec3, u32)> =
                        order_ids[..lanes].iter().map(|&i| (pos[i as usize], i)).collect();
                    assert_group_matches_reference(&solver, &targets, &format!("{what} {lanes}"));
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
    fn fat_leaf_at_the_depth_limit() {
        // 3·GROUP + 4 coincident points end in one leaf at the Morton depth
        // limit, under the deepest stack, with more slots than a group has
        // lanes.
        let fat_len = 3 * GROUP + 4;
        let (mut pos, _) = random_system(40, 5);
        pos.extend(std::iter::repeat_n(Vec3::splat(0.25), fat_len));
        let n = pos.len();
        let masses = vec![1.0 / n as f64; n];
        let tree = Octree::build(&pos, &Aabb::unit(), OctreeConfig { max_leaf_size: 4 });
        let fat = tree
            .nodes()
            .iter()
            .find(|node| node.is_leaf() && (node.end - node.start) as usize == fat_len)
            .expect("fat leaf");
        assert_eq!(u32::from(fat.depth), BITS_PER_AXIS);
        let solver = build_solver(&tree, &masses, 0.5, MultipoleOrder::Quadrupole);
        for i in [0, 39, 40, 41, 40 + GROUP, 41 + GROUP, 40 + 2 * GROUP, n - 1] {
            assert_matches_reference(&solver, pos[i], Some(i as u32), "fat leaf");
            assert_matches_reference(&solver, pos[i], None, "fat leaf");
        }
        let mut stats = TraversalStats::default();
        solver.field_at(pos[40], Some(40), &mut stats);
        assert_eq!(
            stats.p2p_interactions,
            n as u64 - 1,
            "a leaf is always opened: exact near field"
        );
    }

    #[test]
    fn zero_softening_self_lane_never_reaches_the_fold() {
        // With ε = 0 the target's own lane holds 0·∞ = NaN in the buffers.
        let (pos, masses) = condensed_system(300, 13);
        let tree = Octree::build(&pos, &Aabb::unit(), OctreeConfig { max_leaf_size: 8 });
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
