//! Linear octree over Morton-sorted particles.
//!
//! Step 1 of Algorithm 1 ("Build tree"). The tree is rebuilt every time-step
//! because SPH neighbourhoods change continuously (§3); construction is one
//! sort of the Morton keys plus a linear-time recursion over the sorted key
//! ranges — each node owns a *contiguous* slice of the reordered particle
//! array, which keeps leaf scans cache-friendly and makes the tree trivially
//! cheap to walk.
//!
//! The Extrae analysis in the paper (Fig. 4, phase A) showed SPHYNX's tree
//! build was serial and a scalability bottleneck. This build is serial too,
//! but sort + linear topology keeps it a small share of a gravity step (the
//! benchmark's `sph-tree.octree_build_s` row).

use crate::morton::{self, BITS_PER_AXIS};
use sph_math::{Aabb, Vec3};

/// Sentinel for "no child".
const NO_CHILD: u32 = u32::MAX;

/// Construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct OctreeConfig {
    /// Maximum number of particles in a leaf before it is split.
    pub max_leaf_size: usize,
}

impl Default for OctreeConfig {
    /// Leaves of at most 24 particles: with the Evrard scenario's octupole
    /// at θ 0.55, the cheapest point of the error–cost table in the
    /// workspace root's `tests/force_error.rs` at the force error of the
    /// leaves of 32 and quadrupole at θ 0.5 it replaced (≈ 6 particles per
    /// leaf on the benchmark's Evrard state). Every gravity configuration
    /// runs on this tree, so each chose its θ at this leaf size against its
    /// own force error at leaves of 32 (see `GravityConfig::default`).
    fn default() -> Self {
        OctreeConfig { max_leaf_size: 24 }
    }
}

/// One octree node. Nodes are stored in a flat `Vec`; children are indices.
#[derive(Debug, Clone)]
pub struct Node {
    /// Geometric cell of this node (an octant of the root cube).
    pub cell: Aabb,
    /// Tight bounding box of the particles inside (used for pruning).
    pub tight: Aabb,
    /// Range `[start, end)` into the Morton-sorted particle order.
    pub start: u32,
    pub end: u32,
    /// Child node indices in octant order; `u32::MAX` = absent.
    pub children: [u32; 8],
    /// Depth in the tree (root = 0).
    pub depth: u8,
}

impl Node {
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.children.iter().all(|&c| c == NO_CHILD)
    }
}

/// Morton-ordered linear octree.
///
/// The tree stores its own copy of the particle positions in Morton order;
/// `order[k]` maps the k-th sorted slot back to the caller's particle index.
pub struct Octree {
    nodes: Vec<Node>,
    /// Sorted → original index map.
    order: Vec<u32>,
    /// Positions in sorted order (cache-friendly leaf scans).
    sorted_pos: Vec<Vec3>,
    config: OctreeConfig,
}

impl Octree {
    /// Build from particle positions.
    ///
    /// `bounds` may be any box containing all positions; it is expanded to
    /// the bounding cube required by the Morton grid. Panics on an empty
    /// input or non-finite positions.
    pub fn build(positions: &[Vec3], bounds: &Aabb, config: OctreeConfig) -> Octree {
        assert!(!positions.is_empty(), "octree: empty particle set");
        let root_cell = bounds.bounding_cube();

        // Phase 1: keys + sort (the expensive part; Fig. 4 phase A). The
        // keys are unique (`i` breaks Morton ties), so the permutation is the
        // one sorted order whatever the sort algorithm.
        // The finite check is a real assert (not debug): a NaN coordinate
        // would otherwise quantise to cell 0 and scramble the tree silently,
        // and only this loop knows which particle to blame.
        let mut keyed: Vec<(u64, u32)> = positions
            .iter()
            .enumerate()
            .map(|(i, p)| {
                assert!(p.is_finite(), "octree: non-finite position for particle {i}: {p:?}");
                (morton::encode_point(*p, &root_cell), i as u32)
            })
            .collect();
        keyed.sort_unstable();
        let order: Vec<u32> = keyed.iter().map(|&(_, i)| i).collect();
        let keys: Vec<u64> = keyed.iter().map(|&(k, _)| k).collect();
        let sorted_pos: Vec<Vec3> = order.iter().map(|&i| positions[i as usize]).collect();

        // Phase 2: linear-time topology over key ranges.
        let mut tree = Octree { nodes: Vec::new(), order, sorted_pos, config };
        tree.nodes.push(Node {
            cell: root_cell,
            tight: root_cell, // fixed up below
            start: 0,
            end: keys.len() as u32,
            children: [NO_CHILD; 8],
            depth: 0,
        });
        tree.split_node(0, &keys);
        tree.compute_tight_boxes(0);
        tree
    }

    /// Split `node` recursively until every leaf holds at most
    /// `max_leaf_size` particles or maximum Morton depth is reached.
    fn split_node(&mut self, node: usize, keys: &[u64]) {
        let (start, end, depth, cell) = {
            let n = &self.nodes[node];
            (n.start as usize, n.end as usize, n.depth, n.cell)
        };
        if end - start <= self.config.max_leaf_size || depth as u32 >= BITS_PER_AXIS {
            return;
        }
        // The 3 bits selecting the octant at this depth.
        let shift = 3 * (BITS_PER_AXIS - 1 - depth as u32);
        let mut cursor = start;
        for oct in 0..8u64 {
            // Upper bound of keys whose octant bits at `shift` equal `oct`.
            let range = &keys[cursor..end];
            let split = cursor + range.partition_point(|&k| (k >> shift) & 0b111 <= oct);
            if split > cursor {
                let child_idx = self.nodes.len() as u32;
                self.nodes.push(Node {
                    cell: cell.octant(oct as usize),
                    tight: cell,
                    start: cursor as u32,
                    end: split as u32,
                    children: [NO_CHILD; 8],
                    depth: depth + 1,
                });
                self.nodes[node].children[oct as usize] = child_idx;
                self.split_node(child_idx as usize, keys);
            }
            cursor = split;
            if cursor == end {
                break;
            }
        }
        debug_assert_eq!(cursor, end, "octree split lost particles");
    }

    /// Bottom-up tight-bounding-box computation.
    fn compute_tight_boxes(&mut self, node: usize) -> Aabb {
        if self.nodes[node].is_leaf() {
            let (s, e) = (self.nodes[node].start as usize, self.nodes[node].end as usize);
            let tight =
                Aabb::from_points(self.sorted_pos[s..e].iter()).unwrap_or(self.nodes[node].cell);
            self.nodes[node].tight = tight;
            return tight;
        }
        let children = self.nodes[node].children;
        let mut tight: Option<Aabb> = None;
        for c in children {
            if c != NO_CHILD {
                let cb = self.compute_tight_boxes(c as usize);
                tight = Some(match tight {
                    Some(t) => t.union(&cb),
                    None => cb,
                });
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "`build` only creates internal nodes by splitting an overfull leaf, so at \
                      least one child exists; an all-NO_CHILD internal node is a construction bug"
        )]
        let tight = tight.expect("internal node without children");
        self.nodes[node].tight = tight;
        tight
    }

    /// All nodes (index 0 is the root).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of particles indexed.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// Map from sorted slot to original particle index.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Positions in Morton order.
    pub(crate) fn sorted_positions(&self) -> &[Vec3] {
        &self.sorted_pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sph_math::SplitMix64;

    /// `b` grown by `pad` on every side.
    fn padded(b: &Aabb, pad: f64) -> Aabb {
        Aabb::new(b.lo - Vec3::splat(pad), b.hi + Vec3::splat(pad))
    }

    fn random_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64())).collect()
    }

    fn build(n: usize, leaf: usize) -> (Vec<Vec3>, Octree) {
        let pts = random_points(n, 99);
        let bounds = Aabb::unit();
        let tree = Octree::build(&pts, &bounds, OctreeConfig { max_leaf_size: leaf });
        (pts, tree)
    }

    #[test]
    fn all_particles_indexed_exactly_once() {
        let (pts, tree) = build(1000, 16);
        assert_eq!(tree.len(), pts.len());
        let mut seen = vec![false; pts.len()];
        for &i in tree.order() {
            assert!(!seen[i as usize], "duplicate particle {i}");
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn leaves_partition_the_particle_range() {
        let (_, tree) = build(1000, 16);
        let mut ranges: Vec<(u32, u32)> =
            tree.nodes().iter().filter(|n| n.is_leaf()).map(|n| (n.start, n.end)).collect();
        ranges.sort_unstable();
        let mut cursor = 0;
        for (s, e) in ranges {
            assert_eq!(s, cursor, "gap or overlap in leaf ranges");
            assert!(e > s);
            cursor = e;
        }
        assert_eq!(cursor, tree.len() as u32);
    }

    #[test]
    fn leaf_size_respected() {
        let (_, tree) = build(5000, 24);
        for n in tree.nodes().iter().filter(|n| n.is_leaf()) {
            assert!(n.end - n.start <= 24 || n.depth as u32 >= BITS_PER_AXIS);
        }
    }

    #[test]
    fn children_ranges_cover_parent() {
        let (_, tree) = build(2000, 8);
        for n in tree.nodes() {
            if n.is_leaf() {
                continue;
            }
            let mut total = 0;
            let mut cursor = n.start;
            for &c in &n.children {
                if c != NO_CHILD {
                    let ch = &tree.nodes()[c as usize];
                    assert_eq!(ch.start, cursor, "children not contiguous");
                    assert_eq!(ch.depth, n.depth + 1);
                    total += ch.end - ch.start;
                    cursor = ch.end;
                }
            }
            assert_eq!(total, n.end - n.start);
            assert_eq!(cursor, n.end);
        }
    }

    #[test]
    fn particles_lie_in_their_leaf_cell() {
        let (_, tree) = build(2000, 16);
        for n in tree.nodes().iter().filter(|n| n.is_leaf()) {
            // The geometric cell is half-open in Morton space; allow the
            // closed tight box instead, plus a tiny tolerance for the hi
            // face clamping.
            let cell = padded(&n.cell, 1e-12 * n.cell.max_extent().max(1.0));
            for k in n.start..n.end {
                let p = tree.sorted_positions()[k as usize];
                assert!(cell.contains(p), "particle {p:?} outside cell {:?}", n.cell);
            }
        }
    }

    #[test]
    fn tight_boxes_contain_particles_and_nest() {
        let (_, tree) = build(3000, 16);
        for n in tree.nodes() {
            for k in n.start..n.end {
                assert!(padded(&n.tight, 1e-12).contains(tree.sorted_positions()[k as usize]));
            }
            if !n.is_leaf() {
                for &c in &n.children {
                    if c != NO_CHILD {
                        let ch = &tree.nodes()[c as usize];
                        assert!(padded(&n.tight, 1e-12).contains(ch.tight.lo));
                        assert!(padded(&n.tight, 1e-12).contains(ch.tight.hi));
                    }
                }
            }
        }
    }

    #[test]
    fn single_particle_tree() {
        let pts = vec![Vec3::splat(0.5)];
        let tree = Octree::build(&pts, &Aabb::unit(), OctreeConfig::default());
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.nodes().len(), 1);
        assert!(tree.nodes()[0].is_leaf());
    }

    #[test]
    fn duplicate_positions_are_handled() {
        // Pathological but legal: all particles at one point. The depth
        // guard must terminate the recursion.
        let pts = vec![Vec3::splat(0.25); 100];
        let tree = Octree::build(&pts, &Aabb::unit(), OctreeConfig { max_leaf_size: 4 });
        assert_eq!(tree.len(), 100);
        // One deep chain ending in a fat leaf.
        let leaf = tree.nodes().iter().find(|n| n.is_leaf()).unwrap();
        assert_eq!(leaf.end - leaf.start, 100);
    }

    #[test]
    #[should_panic]
    fn empty_input_panics() {
        let _ = Octree::build(&[], &Aabb::unit(), OctreeConfig::default());
    }

    #[test]
    #[should_panic(expected = "particle 3")]
    fn nan_position_reports_particle_index() {
        let mut pts = random_points(8, 44);
        pts[3].y = f64::NAN;
        let _ = Octree::build(&pts, &Aabb::unit(), OctreeConfig::default());
    }

    #[test]
    fn clustered_distribution_deepens_tree() {
        // A centrally condensed blob (Evrard-like) must refine deeper at
        // the centre than a uniform field refines anywhere.
        let mut rng = SplitMix64::new(5);
        let clustered: Vec<Vec3> = (0..4000)
            .map(|_| {
                let r = rng.next_f64().powi(3) * 0.5; // heavy centre
                let theta = rng.uniform(0.0, std::f64::consts::PI);
                let phi = rng.uniform(0.0, 2.0 * std::f64::consts::PI);
                Vec3::new(
                    0.5 + r * theta.sin() * phi.cos(),
                    0.5 + r * theta.sin() * phi.sin(),
                    0.5 + r * theta.cos(),
                )
            })
            .collect();
        let uniform = random_points(4000, 6);
        let cfg = OctreeConfig { max_leaf_size: 16 };
        let tc = Octree::build(&clustered, &Aabb::unit(), cfg);
        let tu = Octree::build(&uniform, &Aabb::unit(), cfg);
        let max_depth = |t: &Octree| t.nodes().iter().map(|n| n.depth).max().unwrap_or(0);
        assert!(
            max_depth(&tc) > max_depth(&tu),
            "clustered depth {} vs uniform {}",
            max_depth(&tc),
            max_depth(&tu)
        );
    }
}
