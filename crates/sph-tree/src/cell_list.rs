//! Uniform cell-list neighbour pipeline (the per-step hot path, and the
//! only neighbour back-end).
//!
//! Once per step the particles are binned into a uniform grid (a counting
//! sort keyed by the flattened cell index — the same spatial hash a Morton
//! key encodes, without needing the bit interleave), and ball queries
//! become scans of the ≤ 27 (or more, for radii above the cell edge) cells
//! overlapping the query ball. The results of the smoothing-length
//! iteration are assembled into **compact CSR neighbour lists**
//! ([`NeighborLists`]) that every downstream kernel pass (volume, IAD,
//! velocity gradients, forces) streams over — the octree is built only for
//! gravity.
//!
//! A [`CellGrid`] query is exact: it returns every particle whose distance
//! to the centre (Euclidean `dist_sq` to the nearest periodic image) is at
//! most the clamped radius, and nothing else. The O(N²) ball of
//! `tests/properties.rs` is the oracle for that; the drivers rely on it for
//! identical sets → identical h-iteration → identical ascending-id
//! summation order → identical sums on every rank layout.

use crate::TraversalStats;
use rayon::prelude::*;
use sph_math::{Periodicity, Vec3, REDUCE_CHUNK};

/// Compressed-row (CSR) neighbour lists for a set of query particles,
/// shared by every kernel pass of the step. The `u32` offsets run over
/// all rows; the entries are kept in **segments**, one `Vec<u32>` per
/// `REDUCE_CHUNK` consecutive rows — exactly the fragment each chunk of a
/// chunked pass builds, so a pass hands its fragments over instead of
/// splicing them into a second array, and the symmetric closure grows
/// each segment in place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NeighborLists {
    /// `offsets[k]..offsets[k+1]` are row `k`'s entries, counted over all
    /// rows.
    offsets: Vec<u32>,
    /// Segment `s` holds the entries of rows `s·REDUCE_CHUNK ..
    /// (s+1)·REDUCE_CHUNK`, from entry `offsets[s·REDUCE_CHUNK]` on:
    /// neighbour particle ids (original indexing), self included.
    segments: Vec<Vec<u32>>,
    /// Set only by the closure: the rows are strictly ascending and
    /// `j ∈ N(k) ⇔ k ∈ N(j)` between rows — what lets the force pass
    /// evaluate each pair once (see [`NeighborLists::is_symmetric_closure`]).
    closure: bool,
}

impl NeighborLists {
    /// Assemble from per-query rows (test/interop convenience; the hot
    /// path builds the segments directly).
    pub fn from_lists(lists: Vec<Vec<u32>>) -> Self {
        let total: usize = lists.iter().map(|l| l.len()).sum();
        assert!(total <= u32::MAX as usize, "neighbour count overflows u32 CSR offsets");
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0u32);
        let mut segments = Vec::with_capacity(lists.len().div_ceil(REDUCE_CHUNK));
        for rows in lists.chunks(REDUCE_CHUNK) {
            let mut segment = Vec::with_capacity(rows.iter().map(Vec::len).sum());
            for row in rows {
                segment.extend_from_slice(row);
                offsets.push(offsets[offsets.len() - 1] + row.len() as u32);
            }
            segments.push(segment);
        }
        NeighborLists { offsets, segments, closure: false }
    }

    /// Assemble from the offsets over all rows (`offsets[0] == 0`,
    /// monotone) and one segment per `REDUCE_CHUNK` rows holding exactly
    /// those rows' entries.
    pub fn from_segments(offsets: Vec<u32>, segments: Vec<Vec<u32>>) -> Self {
        assert!(!offsets.is_empty() && offsets[0] == 0, "CSR offsets must start at 0");
        let n = offsets.len() - 1;
        assert_eq!(segments.len(), n.div_ceil(REDUCE_CHUNK), "one segment per REDUCE_CHUNK rows");
        for (s, segment) in segments.iter().enumerate() {
            let rows = segment_rows(s, n);
            let held = offsets[rows.end] - offsets[rows.start];
            assert_eq!(segment.len(), held as usize, "segment {s} must hold its rows' entries");
        }
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "CSR offsets must be monotone");
        NeighborLists { offsets, segments, closure: false }
    }

    /// Neighbour slice of the k-th query particle.
    #[inline]
    pub fn neighbors(&self, k: usize) -> &[u32] {
        let base = self.offsets[k - k % REDUCE_CHUNK];
        let s = (self.offsets[k] - base) as usize;
        let e = (self.offsets[k + 1] - base) as usize;
        &self.segments[k / REDUCE_CHUNK][s..e]
    }

    /// Number of query particles covered.
    pub fn query_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of stored neighbour entries.
    pub fn total_neighbors(&self) -> usize {
        self.offsets.last().map_or(0, |&t| t as usize)
    }

    /// Were these lists built by [`NeighborLists::symmetrized`],
    /// [`NeighborLists::into_symmetrized`] or
    /// [`NeighborLists::into_symmetrized_over_ghosts`]? Only then are the
    /// rows proven strictly ascending and symmetric — between two rows,
    /// `j` is in `k`'s exactly when `k` is in `j`'s — so that a pair may be
    /// evaluated once and its terms handed to both sides. Lists assembled
    /// any other way (gather lists, [`NeighborLists::from_segments`],
    /// [`NeighborLists::from_lists`]) are unmarked, whatever they hold.
    pub fn is_symmetric_closure(&self) -> bool {
        self.closure
    }

    /// Mean neighbours per query.
    pub fn mean_count(&self) -> f64 {
        if self.query_count() == 0 {
            return 0.0;
        }
        self.total_neighbors() as f64 / self.query_count() as f64
    }

    /// Symmetric closure of the lists, leaving them as they are: a copy
    /// closed by [`NeighborLists::into_symmetrized`].
    pub fn symmetrized(&self) -> NeighborLists {
        self.clone().into_symmetrized()
    }

    /// Symmetric closure of the lists: if `j ∈ N(i)` then also `i ∈ N(j)`.
    ///
    /// The density pass gathers within each particle's *own* support
    /// `2h_i`; with per-particle smoothing lengths that relation is not
    /// symmetric, but the pairwise momentum/energy equations must see
    /// every pair from both sides or conservation is silently broken.
    /// Only valid when the lists cover *all* particles (query `k` ⇔
    /// particle `k`); [`NeighborLists::into_symmetrized_over_ghosts`] is
    /// the closure of a subset's lists.
    ///
    /// Rows must be (and stay) strictly ascending. The rows are closed in
    /// place: only the reverse entries a row lacks are found, and each
    /// segment grows by its own (see `close_in_place`).
    pub fn into_symmetrized(mut self) -> NeighborLists {
        let n = self.query_count();
        let row_of = |j: u32| {
            assert!((j as usize) < n, "symmetrized() requires full-system lists");
            Some(j as usize)
        };
        self.close_in_place(|q| q as u32, row_of, &[], &NeighborLists::default());
        self
    }

    /// Symmetric closure of the lists of a *subset*, in place: row `q`
    /// belongs to particle `row_ids[q]` (strictly ascending ids below
    /// `id_count`) and, like every id in it, is in that id space.
    /// Particles without a row are *ghosts*: ids the rows name get no
    /// reverse edge (no row would hold it), and the ghosts that gather a
    /// row's particle are passed in — `ghost_ids` (strictly ascending,
    /// disjoint from `row_ids`) with `ghost_rows.neighbors(g)` the **row
    /// indices** ghost `g` gathers, in any order. Row `q` of the result is
    /// `N(q) ∪ {k : row_ids[q] ∈ N(k)}` over rows and ghosts, ascending —
    /// what [`NeighborLists::into_symmetrized`] over the whole system holds
    /// for that particle, restricted to the ids this subset knows.
    pub fn into_symmetrized_over_ghosts(
        mut self,
        row_ids: &[u32],
        id_count: usize,
        ghost_ids: &[u32],
        ghost_rows: &NeighborLists,
    ) -> NeighborLists {
        assert_eq!(row_ids.len(), self.query_count(), "one id per row");
        assert_eq!(ghost_ids.len(), ghost_rows.query_count(), "one gather set per ghost");
        const NO_ROW: u32 = u32::MAX;
        let mut row_of = vec![NO_ROW; id_count];
        for (q, &k) in row_ids.iter().enumerate() {
            row_of[k as usize] = q as u32;
        }
        self.close_in_place(
            |q| row_ids[q],
            |j| match row_of[j as usize] {
                NO_ROW => None,
                q => Some(q as usize),
            },
            ghost_ids,
            ghost_rows,
        );
        self
    }

    /// The closure behind both `into_symmetrized*` (identity maps and no
    /// ghosts, or a subset's). `id_of(q)` is the particle of row `q`,
    /// `row_of(id)` the row of a particle (`None`: it has none).
    ///
    /// 1. One pass over the reverse edges — `(row of j, k)` for every
    ///    `j ∈ N(k)`, `j ≠ k`, and `(q, g)` for every row `q` a ghost `g`
    ///    gathers — keeps only the **missing** ones, those whose source is
    ///    not yet in the target row. Sources are visited in ascending id,
    ///    so the edges into one row arrive ascending, and a per-row cursor
    ///    finds each by a merge with the (ascending) row.
    /// 2. Each segment grows by its own missing entries and merges them
    ///    in back to front, so no entry is moved twice and no second copy
    ///    of the lists exists.
    fn close_in_place(
        &mut self,
        id_of: impl Fn(usize) -> u32,
        row_of: impl Fn(u32) -> Option<usize>,
        ghost_ids: &[u32],
        ghost_rows: &NeighborLists,
    ) {
        let n = self.query_count();
        // Missing `(row, source)` entries.
        let mut missing: Vec<(u32, u32)> = Vec::new();
        let mut cursor = vec![0u32; n];
        let mut reverse_edge = |target: usize, source: u32| {
            let row = self.neighbors(target);
            let c = &mut cursor[target];
            while row.get(*c as usize).is_some_and(|&j| j < source) {
                *c += 1;
            }
            if row.get(*c as usize) != Some(&source) {
                missing.push((target as u32, source));
            }
        };
        let (mut q, mut g) = (0, 0);
        while q < n || g < ghost_ids.len() {
            if g == ghost_ids.len() || (q < n && id_of(q) < ghost_ids[g]) {
                let k = id_of(q);
                for &j in self.neighbors(q) {
                    if let Some(target) = row_of(j).filter(|_| j != k) {
                        reverse_edge(target, k);
                    }
                }
                q += 1;
            } else {
                for &target in ghost_rows.neighbors(g) {
                    reverse_edge(target as usize, ghost_ids[g]);
                }
                g += 1;
            }
        }
        drop(cursor);

        assert!(
            self.total_neighbors() + missing.len() <= u32::MAX as usize,
            "neighbour count overflows u32 CSR offsets"
        );
        // Row by row, sources ascending; each segment pops its own from
        // the back.
        missing.sort_unstable();
        let mut later = &missing[..];
        for (s, segment) in self.segments.iter_mut().enumerate() {
            let rows = segment_rows(s, n);
            let extra;
            (extra, later) =
                later.split_at(later.partition_point(|&(t, _)| (t as usize) < rows.end));
            if extra.is_empty() {
                continue;
            }
            let old = &self.offsets[rows.clone()];
            let base = old[0];
            let mut read = segment.len();
            segment.reserve_exact(extra.len());
            segment.resize(read + extra.len(), 0);
            let mut write = segment.len();
            let mut pending = extra;
            for r in rows.rev() {
                if pending.is_empty() {
                    break; // every row below is already in place
                }
                let start = (old[r - s * REDUCE_CHUNK] - base) as usize;
                while let Some((&(_, source), rest)) =
                    pending.split_last().filter(|&(&(t, _), _)| t as usize == r)
                {
                    while read > start && segment[read - 1] > source {
                        read -= 1;
                        write -= 1;
                        segment[write] = segment[read];
                    }
                    write -= 1;
                    segment[write] = source;
                    pending = rest;
                }
                segment.copy_within(start..read, write - (read - start));
                write -= read - start;
                read = start;
            }
        }
        // Shift every row end by the entries added up to it.
        let mut rows_grown = missing.iter().map(|&(t, _)| t as usize).peekable();
        let mut grown = 0u32;
        for k in 0..n {
            while rows_grown.next_if_eq(&k).is_some() {
                grown += 1;
            }
            self.offsets[k + 1] += grown;
        }
        self.closure = true;
    }
}

/// The rows segment `s` of `n` rows holds: its entries are
/// `offsets[start]..offsets[end]`.
fn segment_rows(s: usize, n: usize) -> std::ops::Range<usize> {
    s * REDUCE_CHUNK..((s + 1) * REDUCE_CHUNK).min(n)
}

/// Soft cap on the total cell count, as a multiple of the particle count:
/// finer grids than ~one particle per cell only add empty-cell scan
/// overhead and bloat the `cell_offsets` array.
const MAX_CELLS_PER_PARTICLE: usize = 4;

/// Uniform cell grid over a particle set — the per-step neighbour
/// structure of the pipeline.
///
/// Built once per derivative evaluation with a counting sort (O(n), no
/// key sort), then shared read-only by every query of the step. On
/// periodic axes the grid spans exactly the periodic domain; on open axes
/// it spans the tight particle bounds. Queries whose radius exceeds the
/// cell edge scan proportionally more rings, so the smoothing-length
/// iteration can grow its radius freely without rebuilding.
pub struct CellGrid {
    periodicity: Periodicity,
    /// Grid origin (per axis: domain lo on periodic axes, tight particle
    /// minimum on open axes).
    lo: Vec3,
    /// Cells per axis (≥ 1).
    dims: [usize; 3],
    /// `dims[axis] / span[axis]`; 0 for a degenerate (single-cell) axis.
    inv_width: [f64; 3],
    /// CSR over cells: `cell_offsets[c]..cell_offsets[c+1]` indexes the
    /// sorted arrays below. Length `ncells + 1`.
    cell_offsets: Vec<u32>,
    /// Original particle ids, cell-major, ascending within each cell.
    entries: Vec<u32>,
    /// Positions in the same order as `entries` (cache-friendly scans).
    sorted_pos: Vec<Vec3>,
}

impl CellGrid {
    /// Build over `positions` with a target cell edge of `cell_size`
    /// (the expected search radius, e.g. `2·h̄`). The actual edge is at
    /// least `cell_size` on every axis (never smaller, so a typical query
    /// scans ≤ 27 cells) and the total cell count is capped at
    /// `MAX_CELLS_PER_PARTICLE`·n. Panics on an empty particle set or
    /// non-finite positions, like [`crate::Octree::build`].
    pub fn build(positions: &[Vec3], periodicity: Periodicity, cell_size: f64) -> CellGrid {
        Self::build_impl(positions, periodicity, cell_size)
    }

    /// Build a grid tuned for ball queries up to `max_radius`: the cell
    /// edge is set to **half** that radius. Radius-sized cells scan a
    /// `(4r)³ = 64r³` volume for a `4πr³/3 ≈ 4.2r³` ball (a 15× candidate
    /// overscan); half-radius cells shrink the scanned volume to
    /// `(3r)³ = 27r³` — ~2.4× fewer distance tests for a slightly longer
    /// (but contiguous and branch-light) cell loop. This is what the
    /// drivers call; [`CellGrid::build`] keeps the exact edge for tests
    /// and callers with their own tuning. Query results are identical
    /// either way — cell size is purely a performance knob.
    pub fn for_radius(positions: &[Vec3], periodicity: Periodicity, max_radius: f64) -> CellGrid {
        Self::build_impl(positions, periodicity, 0.5 * max_radius)
    }

    fn build_impl(positions: &[Vec3], periodicity: Periodicity, cell_size: f64) -> CellGrid {
        assert!(!positions.is_empty(), "cell grid: empty particle set");
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell grid: bad target cell size {cell_size}"
        );
        // Grid box: exact periodic domain on wrapping axes (so images and
        // wrapped positions index consistently), tight bounds elsewhere.
        let mut lo = Vec3::ZERO;
        let mut span = [0.0f64; 3];
        for (axis, span_axis) in span.iter_mut().enumerate() {
            if periodicity.periodic[axis] {
                *lo.component_mut(axis) = periodicity.domain.lo.component(axis);
                *span_axis = periodicity.domain.extent().component(axis);
            } else {
                let mut mn = f64::INFINITY;
                let mut mx = f64::NEG_INFINITY;
                for (i, p) in positions.iter().enumerate() {
                    let c = p.component(axis);
                    assert!(
                        c.is_finite(),
                        "cell grid: non-finite position for particle {i}: {p:?}"
                    );
                    mn = mn.min(c);
                    mx = mx.max(c);
                }
                *lo.component_mut(axis) = mn;
                *span_axis = mx - mn;
            }
        }
        let mut dims = [1usize; 3];
        for axis in 0..3 {
            if span[axis] > 0.0 {
                dims[axis] = ((span[axis] / cell_size).floor() as usize).max(1);
            }
        }
        // Deterministic cap: halve the largest axis until the total cell
        // count is proportionate to the particle count.
        let cap = (MAX_CELLS_PER_PARTICLE * positions.len()).max(8);
        while dims[0] * dims[1] * dims[2] > cap {
            let widest = (0..3).max_by_key(|&a| dims[a]).unwrap_or(0);
            dims[widest] = dims[widest].div_ceil(2);
        }
        let mut inv_width = [0.0f64; 3];
        for axis in 0..3 {
            if span[axis] > 0.0 {
                inv_width[axis] = dims[axis] as f64 / span[axis];
            }
        }

        let grid = CellGrid {
            periodicity,
            lo,
            dims,
            inv_width,
            cell_offsets: Vec::new(),
            entries: Vec::new(),
            sorted_pos: Vec::new(),
        };
        let ncells = dims[0] * dims[1] * dims[2];

        // Counting sort by flattened cell index. Iterating particles in
        // ascending id keeps each cell's entries ascending — the
        // canonical order downstream summation relies on — and the whole
        // build is a deterministic O(n + ncells) sequential pass (cheaper
        // than any parallel alternative at the cell counts this serves).
        let mut cell_of = Vec::with_capacity(positions.len());
        let mut counts = vec![0u32; ncells + 1];
        for (i, p) in positions.iter().enumerate() {
            assert!(p.is_finite(), "cell grid: non-finite position for particle {i}: {p:?}");
            let c = grid.flat_cell(grid.cell_coord(*p));
            cell_of.push(c as u32);
            counts[c + 1] += 1;
        }
        for c in 0..ncells {
            counts[c + 1] += counts[c];
        }
        let mut entries = vec![0u32; positions.len()];
        let mut sorted_pos = vec![Vec3::ZERO; positions.len()];
        let mut cursor: Vec<u32> = counts[..ncells].to_vec();
        for (i, &c) in cell_of.iter().enumerate() {
            let slot = cursor[c as usize] as usize;
            entries[slot] = i as u32;
            sorted_pos[slot] = positions[i];
            cursor[c as usize] += 1;
        }
        CellGrid { cell_offsets: counts, entries, sorted_pos, ..grid }
    }

    /// Grid coordinates of a position, clamped into the grid (positions
    /// exactly on the high face — FP wrap can land there — fold into the
    /// last cell).
    #[inline]
    fn cell_coord(&self, p: Vec3) -> [usize; 3] {
        let mut c = [0usize; 3];
        for (axis, c_axis) in c.iter_mut().enumerate() {
            let t = (p.component(axis) - self.lo.component(axis)) * self.inv_width[axis];
            *c_axis = (t.floor().max(0.0) as usize).min(self.dims[axis] - 1);
        }
        c
    }

    /// Flatten grid coordinates (x fastest, like the Morton cell layout).
    #[inline]
    fn flat_cell(&self, c: [usize; 3]) -> usize {
        (c[2] * self.dims[1] + c[1]) * self.dims[0] + c[0]
    }

    /// Inclusive cell range covering `[v − r, v + r]` on one axis,
    /// clamped into the grid. Ghost images handle periodic wrap, so
    /// clamping (not modular wrap) is correct on every axis.
    #[inline]
    fn axis_range(&self, axis: usize, v: f64, r: f64) -> (usize, usize) {
        let lo = self.lo.component(axis);
        let iw = self.inv_width[axis];
        let max = self.dims[axis] - 1;
        let a = (((v - r) - lo) * iw).floor().max(0.0) as usize;
        let b = (((v + r) - lo) * iw).floor().max(0.0) as usize;
        (a.min(max), b.min(max))
    }

    /// Scan every cell overlapping the ball at one (possibly image)
    /// centre. The accept test is the plain Euclidean `dist_sq` to that
    /// image — what the brute-force oracle evaluates.
    ///
    /// Row runs of ≥ 16 candidates are common on every benchmark workload,
    /// not only on irregular clouds: they are 10 % of the runs (26 % of the
    /// candidates) on `sedov_hydro`, 69 % (87 %) on `evrard_gravity`, 58 %
    /// (77 %) on `patch_dist4` and 43 % (72 %) on `serve_mixed`. On a
    /// 2-vCPU host a branch-free compaction of long runs made the traced
    /// density row slower on `evrard_gravity` and `sedov_hydro`, and
    /// per-axis position arrays made a scan probe of the Sedov lattice
    /// slower, so the accept test branches on `Vec3` positions.
    fn scan_one_image(
        &self,
        center: Vec3,
        radius: f64,
        mut visit: impl FnMut(usize, f64),
        stats: &mut TraversalStats,
    ) {
        let r2 = radius * radius;
        let (x0, x1) = self.axis_range(0, center.x, radius);
        let (y0, y1) = self.axis_range(1, center.y, radius);
        let (z0, z1) = self.axis_range(2, center.z, radius);
        let cells_per_row = (x1 - x0 + 1) as u64;
        for iz in z0..=z1 {
            for iy in y0..=y1 {
                // Cells x0..=x1 of one (iy, iz) row are adjacent in the
                // cell-major arrays: one contiguous run, visited in the
                // order the cell-by-cell loop visits it.
                let row = (iz * self.dims[1] + iy) * self.dims[0];
                let s = self.cell_offsets[row + x0] as usize;
                let e = self.cell_offsets[row + x1 + 1] as usize;
                stats.nodes_visited += cells_per_row;
                stats.p2p_interactions += (e - s) as u64;
                for (k, p) in (s..e).zip(&self.sorted_pos[s..e]) {
                    let d2 = p.dist_sq(center);
                    if d2 <= r2 {
                        visit(k, d2);
                    }
                }
            }
        }
    }

    /// The cell-by-cell scan `scan_one_image` replaced, kept as its
    /// oracle: same visit order, same counts.
    #[cfg(test)]
    fn scan_one_image_reference(
        &self,
        center: Vec3,
        radius: f64,
        mut visit: impl FnMut(usize, f64),
        stats: &mut TraversalStats,
    ) {
        let r2 = radius * radius;
        let (x0, x1) = self.axis_range(0, center.x, radius);
        let (y0, y1) = self.axis_range(1, center.y, radius);
        let (z0, z1) = self.axis_range(2, center.z, radius);
        for iz in z0..=z1 {
            for iy in y0..=y1 {
                let row = (iz * self.dims[1] + iy) * self.dims[0];
                for ix in x0..=x1 {
                    let cell = row + ix;
                    stats.nodes_visited += 1;
                    let s = self.cell_offsets[cell] as usize;
                    let e = self.cell_offsets[cell + 1] as usize;
                    for k in s..e {
                        stats.p2p_interactions += 1;
                        let d2 = self.sorted_pos[k].dist_sq(center);
                        if d2 <= r2 {
                            visit(k, d2);
                        }
                    }
                }
            }
        }
    }
}

/// Fixed-radius ball queries.
impl CellGrid {
    /// Largest usable search radius: strictly below half of every
    /// periodic span (where the minimum image becomes ambiguous), the
    /// input radius otherwise.
    pub fn clamp_radius(&self, radius: f64) -> f64 {
        let mut r = radius;
        for axis in 0..3 {
            if self.periodicity.periodic[axis] {
                let span = self.periodicity.domain.extent().component(axis);
                r = r.min(0.5 * span * (1.0 - 1e-9));
            }
        }
        r
    }

    /// Indices (original particle ids) of all particles within `radius`
    /// of `center`, appended to `out` (self included when in range).
    /// Records a [`TraversalStats::radius_clamps`] event when the
    /// periodic half-span clamp engages.
    pub fn neighbors_within(
        &self,
        center: Vec3,
        radius: f64,
        out: &mut Vec<u32>,
        stats: &mut TraversalStats,
    ) {
        assert!(radius > 0.0 && radius.is_finite(), "bad search radius {radius}");
        let clamped = self.clamp_radius(radius);
        if clamped < radius {
            stats.radius_clamps += 1;
        }
        self.periodicity.for_each_ghost_offset(center, clamped, |offset| {
            self.scan_one_image(center + offset, clamped, |k, _| out.push(self.entries[k]), stats);
        });
    }

    /// Like [`CellGrid::neighbors_within`], but each id arrives with the
    /// squared distance the accept test compared against `r²` — the
    /// Euclidean `dist_sq` to the accepting periodic image. Because the
    /// half-span clamp keeps the ball strictly smaller than every periodic
    /// half-span, at most one image of any particle can lie inside it, so
    /// the distance is unique per id. The smoothing-length iteration
    /// caches these pairs to answer shrinking-radius rounds by filtering
    /// instead of re-scanning the grid.
    pub fn neighbors_with_dist(
        &self,
        center: Vec3,
        radius: f64,
        out: &mut Vec<(u32, f64)>,
        stats: &mut TraversalStats,
    ) {
        assert!(radius > 0.0 && radius.is_finite(), "bad search radius {radius}");
        let clamped = self.clamp_radius(radius);
        if clamped < radius {
            stats.radius_clamps += 1;
        }
        self.periodicity.for_each_ghost_offset(center, clamped, |offset| {
            self.scan_one_image(
                center + offset,
                clamped,
                |k, d2| out.push((self.entries[k], d2)),
                stats,
            );
        });
    }
}

/// Batch ball queries into one CSR structure: the shape of the per-step
/// neighbour phase (Fig. 4 phases B–D). Chunked map over fixed
/// `REDUCE_CHUNK` boundaries + ordered reduce, so the assembled lists and
/// merged stats are bit-identical for any thread count; each chunk's
/// fragment, trimmed to its length, becomes one segment of the lists.
/// Each row is sorted ascending (the canonical summation order).
pub fn build_csr_lists(
    query: &CellGrid,
    centers: &[Vec3],
    radii: &[f64],
) -> (NeighborLists, TraversalStats) {
    assert_eq!(centers.len(), radii.len());
    struct CsrChunk {
        flat: Vec<u32>,
        counts: Vec<u32>,
        stats: TraversalStats,
    }
    let chunks: Vec<CsrChunk> = centers
        .par_chunks(REDUCE_CHUNK)
        .enumerate()
        .map(|(c, chunk)| {
            let base = c * REDUCE_CHUNK;
            let mut stats = TraversalStats::default();
            let mut flat = Vec::with_capacity(chunk.len() * 64);
            let mut counts = Vec::with_capacity(chunk.len());
            for (off, &center) in chunk.iter().enumerate() {
                let before = flat.len();
                query.neighbors_within(center, radii[base + off], &mut flat, &mut stats);
                flat[before..].sort_unstable();
                counts.push((flat.len() - before) as u32);
            }
            flat.shrink_to_fit();
            CsrChunk { flat, counts, stats }
        })
        .collect();
    // Ordered reduce: the offsets over all rows; the fragments are the
    // segments.
    let total: usize = chunks.iter().map(|c| c.flat.len()).sum();
    assert!(total <= u32::MAX as usize, "neighbour count overflows u32 CSR offsets");
    let mut offsets = Vec::with_capacity(centers.len() + 1);
    offsets.push(0u32);
    let mut segments = Vec::with_capacity(chunks.len());
    let mut merged = TraversalStats::default();
    let mut running = 0u32;
    for chunk in chunks {
        merged.merge(&chunk.stats);
        for c in chunk.counts {
            running += c;
            offsets.push(running);
        }
        segments.push(chunk.flat);
    }
    (NeighborLists::from_segments(offsets, segments), merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sph_math::{Aabb, SplitMix64};

    /// Every reverse edge `(target row, source id)` of the forward rows and
    /// the ghosts' gather sets, sources in ascending id — so the edges of one
    /// target arrive ascending. `id_of(q)` is the particle of row `q`,
    /// `row_of(id)` the row of a particle (`None`: it has none).
    fn for_each_reverse_edge(
        forward: &NeighborLists,
        id_of: &impl Fn(usize) -> u32,
        row_of: &impl Fn(u32) -> Option<usize>,
        ghost_ids: &[u32],
        ghost_rows: &NeighborLists,
        mut emit: impl FnMut(usize, u32),
    ) {
        let n = forward.query_count();
        let (mut q, mut g) = (0, 0);
        while q < n || g < ghost_ids.len() {
            if g == ghost_ids.len() || (q < n && id_of(q) < ghost_ids[g]) {
                let k = id_of(q);
                for &j in forward.neighbors(q) {
                    if j != k {
                        if let Some(target) = row_of(j) {
                            emit(target, k);
                        }
                    }
                }
                q += 1;
            } else {
                for &target in ghost_rows.neighbors(g) {
                    emit(target as usize, ghost_ids[g]);
                }
                g += 1;
            }
        }
    }

    /// The closure `close_in_place` replaced, kept as its oracle: count →
    /// prefix-sum → scatter the reverse edges into a CSR whose rows are born
    /// ascending, then merge-union each forward row with its reverse row.
    fn symmetric_closure(
        forward: &NeighborLists,
        id_of: impl Fn(usize) -> u32,
        row_of: impl Fn(u32) -> Option<usize>,
        ghost_ids: &[u32],
        ghost_rows: &NeighborLists,
    ) -> NeighborLists {
        let n = forward.query_count();
        // Reverse-edge degrees: how many k ≠ j list j as a neighbour.
        let mut rev_off = vec![0u32; n + 1];
        for_each_reverse_edge(forward, &id_of, &row_of, ghost_ids, ghost_rows, |target, _| {
            rev_off[target + 1] += 1;
        });
        for j in 0..n {
            rev_off[j + 1] += rev_off[j];
        }
        let mut rev_idx = vec![0u32; rev_off[n] as usize];
        let mut cursor = rev_off[..n].to_vec();
        for_each_reverse_edge(forward, &id_of, &row_of, ghost_ids, ghost_rows, |target, k| {
            let c = &mut cursor[target];
            rev_idx[*c as usize] = k;
            *c += 1;
        });
        // Merge-union each forward row with its (sorted) reverse row.
        let rows = (0..n)
            .map(|k| {
                let a = forward.neighbors(k);
                let b = &rev_idx[rev_off[k] as usize..rev_off[k + 1] as usize];
                let mut row = Vec::with_capacity(a.len() + b.len());
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => {
                            row.push(a[i]);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            row.push(b[j]);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            row.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                row.extend_from_slice(&a[i..]);
                row.extend_from_slice(&b[j..]);
                row
            })
            .collect();
        NeighborLists { closure: true, ..NeighborLists::from_lists(rows) }
    }

    fn random_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64())).collect()
    }

    fn brute_force(pts: &[Vec3], per: &Periodicity, c: Vec3, r: f64) -> Vec<u32> {
        (0..pts.len() as u32)
            .filter(|&i| per.displacement(pts[i as usize], c).norm_sq() <= r * r)
            .collect()
    }

    #[test]
    fn matches_brute_force_open_domain() {
        let pts = random_points(2000, 31);
        let per = Periodicity::open(Aabb::unit());
        let grid = CellGrid::build(&pts, per, 0.1);
        let mut rng = SplitMix64::new(77);
        for _ in 0..50 {
            let c = Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64());
            let r = rng.uniform(0.02, 0.3);
            let mut found = Vec::new();
            let mut stats = TraversalStats::default();
            grid.neighbors_within(c, r, &mut found, &mut stats);
            found.sort_unstable();
            assert_eq!(found, brute_force(&pts, &per, c, r), "c={c:?} r={r}");
            assert!(stats.nodes_visited > 0);
        }
    }

    #[test]
    fn matches_brute_force_fully_periodic() {
        let pts = random_points(1200, 41);
        let per = Periodicity::fully_periodic(Aabb::unit());
        let grid = CellGrid::build(&pts, per, 0.12);
        let mut rng = SplitMix64::new(88);
        for _ in 0..60 {
            // Bias toward the faces to stress the image scans.
            let pick = |rng: &mut SplitMix64| {
                if rng.next_f64() < 0.5 {
                    rng.uniform(0.0, 0.08)
                } else {
                    rng.uniform(0.08, 1.0)
                }
            };
            let c = Vec3::new(pick(&mut rng), pick(&mut rng), pick(&mut rng));
            let r = rng.uniform(0.02, 0.2);
            let mut found = Vec::new();
            let mut stats = TraversalStats::default();
            grid.neighbors_within(c, r, &mut found, &mut stats);
            found.sort_unstable();
            assert_eq!(found, brute_force(&pts, &per, c, r), "c={c:?} r={r}");
        }
    }

    #[test]
    fn fully_periodic_corner_query() {
        let pts = random_points(1000, 55);
        let per = Periodicity::fully_periodic(Aabb::unit());
        let grid = CellGrid::build(&pts, per, 0.1);
        let c = Vec3::splat(0.01); // near the corner: 8 images
        let r = 0.12;
        let mut found = Vec::new();
        let mut stats = TraversalStats::default();
        grid.neighbors_within(c, r, &mut found, &mut stats);
        found.sort_unstable();
        assert_eq!(found, brute_force(&pts, &per, c, r));
    }

    #[test]
    fn clamp_only_affects_periodic_axes() {
        let pts = random_points(200, 9);
        // Open domain: no clamping, arbitrarily large radius finds everyone.
        let open = CellGrid::build(&pts, Periodicity::open(Aabb::unit()), 0.2);
        assert_eq!(open.clamp_radius(5.0), 5.0);
        let mut out = Vec::new();
        let mut stats = TraversalStats::default();
        open.neighbors_within(Vec3::splat(0.5), 5.0, &mut out, &mut stats);
        assert_eq!(out.len(), pts.len());
        // Periodic z: only the z span caps the radius.
        let periodic_z = CellGrid::build(&pts, Periodicity::periodic_z(Aabb::unit()), 0.2);
        let clamped = periodic_z.clamp_radius(5.0);
        assert!(clamped < 0.5 && clamped > 0.49);
    }

    /// One ball query against the cell-by-cell oracle: the accepted
    /// `(id, d²)` sequence bit for bit and every traversal counter.
    /// Returns how many were accepted.
    fn assert_scan_matches_reference(grid: &CellGrid, center: Vec3, radius: f64) -> usize {
        let what = format!("c={center:?} r={radius}");
        let mut want = Vec::new();
        let mut want_stats = TraversalStats::default();
        let clamped = grid.clamp_radius(radius);
        if clamped < radius {
            want_stats.radius_clamps += 1;
        }
        grid.periodicity.for_each_ghost_offset(center, clamped, |offset| {
            grid.scan_one_image_reference(
                center + offset,
                clamped,
                |k, d2| want.push((grid.entries[k], d2)),
                &mut want_stats,
            );
        });
        let mut got = Vec::new();
        let mut stats = TraversalStats::default();
        grid.neighbors_with_dist(center, radius, &mut got, &mut stats);
        assert_eq!(got.len(), want.len(), "{what}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!((g.0, g.1.to_bits()), (w.0, w.1.to_bits()), "{what}");
        }
        assert_eq!(stats, want_stats, "{what}");
        got.len()
    }

    #[test]
    fn row_run_scan_keeps_the_cell_by_cell_sequence_and_counts() {
        // The scan walks one contiguous run per (iy, iz) row instead of
        // one cell at a time. The accepted `(id, d²)` sequence and all
        // three traversal counters feed the h-iteration, the performance
        // model and the benchmark's exact counts: none may move.
        let pts = random_points(2000, 0x5CA9);
        let per = Periodicity::fully_periodic(Aabb::unit());
        let grid = CellGrid::build(&pts, per, 0.1);
        assert_eq!(grid.dims, [10, 10, 10]);
        let mut queries = vec![
            // x0..=x1 is the whole axis (and the images reach past it).
            (Vec3::new(0.5, 0.5, 0.5), 0.49),
            // Past the half span: clamped, one clamp event.
            (Vec3::new(0.3, 0.6, 0.2), 0.7),
            // Range cut off at the high face on every axis.
            (Vec3::new(0.999, 0.995, 0.97), 0.15),
            // … and at the low face.
            (Vec3::new(0.001, 0.0, 0.03), 0.12),
            // A single cell per row.
            (Vec3::new(0.55, 0.55, 0.55), 0.01),
        ];
        let mut rng = SplitMix64::new(0xCE11);
        for _ in 0..40 {
            let c = Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64());
            queries.push((c, rng.uniform(0.02, 0.3)));
        }
        let accepted: usize =
            queries.iter().map(|&(c, r)| assert_scan_matches_reference(&grid, c, r)).sum();
        assert!(accepted > 3_000, "queries too small to mean anything: {accepted}");
    }

    #[test]
    fn long_runs_keep_the_cell_by_cell_sequence_and_counts() {
        // A grid of one cell makes every query one run of every particle
        // per image: short runs and runs far longer than the 27-cell scans
        // of a lattice hold, on open, periodic-z and fully periodic boxes.
        // The particles fill a small ball or the whole box, so that a query
        // accepts every candidate, none, or some.
        let lengths = [1, 15, 16, 17, 31, 32, 33, 67, 192];
        let boxes = [
            Periodicity::open(Aabb::unit()),
            Periodicity::periodic_z(Aabb::unit()),
            Periodicity::fully_periodic(Aabb::unit()),
        ];
        let ball = Vec3::new(0.4, 0.6, 0.5);
        for per in boxes {
            for n in lengths {
                let mut rng = SplitMix64::new(n as u64);
                let clustered: Vec<Vec3> = (0..n)
                    .map(|_| {
                        ball + Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()) * 0.05
                    })
                    .collect();
                for (cloud, pts) in [("clustered", clustered), ("spread", random_points(n, 7))] {
                    let what = format!("{per:?} {cloud} n {n}");
                    let grid = CellGrid::build(&pts, per, 10.0);
                    assert_eq!(grid.dims, [1, 1, 1], "{what}");
                    // Every candidate: the ball of a clustered cloud.
                    let all = assert_scan_matches_reference(&grid, ball, 0.2);
                    if cloud == "clustered" {
                        assert_eq!(all, n, "{what}: every candidate");
                    }
                    // None: a corner far from the cluster.
                    let none = assert_scan_matches_reference(&grid, Vec3::splat(0.02), 1e-3);
                    if cloud == "clustered" {
                        assert_eq!(none, 0, "{what}: no candidate");
                    }
                    // Some, from several images.
                    for &(c, r) in &[(Vec3::new(0.1, 0.9, 0.05), 0.3), (Vec3::splat(0.5), 0.45)] {
                        assert_scan_matches_reference(&grid, c, r);
                    }
                }
            }
        }
    }

    #[test]
    fn radius_spanning_many_cells_is_exact() {
        // Radii well past the cell edge force multi-ring scans.
        let pts = random_points(800, 5);
        let per = Periodicity::open(Aabb::unit());
        let grid = CellGrid::build(&pts, per, 0.05);
        assert!(grid.dims.iter().all(|&d| d >= 4), "grid too coarse for the test");
        for r in [0.04, 0.11, 0.26, 0.7] {
            let c = Vec3::splat(0.4);
            let mut found = Vec::new();
            let mut stats = TraversalStats::default();
            grid.neighbors_within(c, r, &mut found, &mut stats);
            found.sort_unstable();
            assert_eq!(found, brute_force(&pts, &per, c, r), "r={r}");
        }
    }

    #[test]
    fn clamp_counter_fires_exactly_when_the_clamp_engages() {
        let pts = random_points(100, 17);
        let grid = CellGrid::build(&pts, Periodicity::periodic_z(Aabb::unit()), 0.2);
        let mut stats = TraversalStats::default();
        let mut out = Vec::new();
        // Below half the z span: no clamp event.
        grid.neighbors_within(Vec3::splat(0.5), 0.3, &mut out, &mut stats);
        assert_eq!(stats.radius_clamps, 0);
        // Past half the z span: exactly one event per query.
        out.clear();
        grid.neighbors_within(Vec3::splat(0.5), 0.6, &mut out, &mut stats);
        assert_eq!(stats.radius_clamps, 1);
        // Open domain: never clamps.
        let open = CellGrid::build(&pts, Periodicity::open(Aabb::unit()), 0.2);
        let mut ostats = TraversalStats::default();
        out.clear();
        open.neighbors_within(Vec3::splat(0.5), 9.0, &mut out, &mut ostats);
        assert_eq!(ostats.radius_clamps, 0);
        assert_eq!(out.len(), pts.len());
    }

    #[test]
    fn entries_within_a_cell_are_ascending() {
        let pts = random_points(3000, 23);
        let grid = CellGrid::build(&pts, Periodicity::open(Aabb::unit()), 0.15);
        let ncells = grid.dims[0] * grid.dims[1] * grid.dims[2];
        let mut seen = vec![false; pts.len()];
        for c in 0..ncells {
            let s = grid.cell_offsets[c] as usize;
            let e = grid.cell_offsets[c + 1] as usize;
            let cell = &grid.entries[s..e];
            assert!(cell.windows(2).all(|w| w[0] < w[1]), "cell {c} not ascending");
            for &i in cell {
                assert!(!seen[i as usize], "particle {i} indexed twice");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some particle was dropped");
    }

    #[test]
    fn cell_count_is_capped() {
        // A huge spread with a tiny cell size must not explode the grid.
        let pts = random_points(100, 2);
        let grid = CellGrid::build(&pts, Periodicity::open(Aabb::unit()), 1e-4);
        let ncells = grid.dims[0] * grid.dims[1] * grid.dims[2];
        assert!(ncells <= (MAX_CELLS_PER_PARTICLE * pts.len()).max(8));
        // Queries stay exact after the cap.
        let per = Periodicity::open(Aabb::unit());
        let mut out = Vec::new();
        let mut stats = TraversalStats::default();
        grid.neighbors_within(Vec3::splat(0.5), 0.25, &mut out, &mut stats);
        out.sort_unstable();
        assert_eq!(out, brute_force(&pts, &per, Vec3::splat(0.5), 0.25));
    }

    #[test]
    fn degenerate_single_point_set() {
        let pts = vec![Vec3::splat(0.5)];
        let grid = CellGrid::build(&pts, Periodicity::open(Aabb::unit()), 0.1);
        let mut out = Vec::new();
        let mut stats = TraversalStats::default();
        grid.neighbors_within(Vec3::splat(0.5), 0.01, &mut out, &mut stats);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn batch_csr_matches_single_queries() {
        let pts = random_points(900, 21);
        let per = Periodicity::fully_periodic(Aabb::unit());
        let grid = CellGrid::build(&pts, per, 0.1);
        let centers: Vec<Vec3> = pts[..150].to_vec();
        let radii: Vec<f64> = (0..150).map(|i| 0.05 + 0.001 * i as f64).collect();
        let (lists, stats) = build_csr_lists(&grid, &centers, &radii);
        assert_eq!(lists.query_count(), 150);
        assert!(lists.segments.iter().all(|s| s.capacity() == s.len()), "untrimmed segment");
        assert!(stats.p2p_interactions > 0);
        for (i, (&c, &r)) in centers.iter().zip(&radii).enumerate() {
            let mut expect = brute_force(&pts, &per, c, r);
            expect.sort_unstable();
            assert_eq!(lists.neighbors(i), expect, "query {i}");
        }
    }

    #[test]
    fn csr_roundtrip() {
        let lists = vec![vec![1, 2, 3], vec![], vec![7]];
        let nl = NeighborLists::from_lists(lists);
        assert_eq!(nl.query_count(), 3);
        assert_eq!(nl.neighbors(0), &[1, 2, 3]);
        assert_eq!(nl.neighbors(1), &[] as &[u32]);
        assert_eq!(nl.neighbors(2), &[7]);
        assert_eq!(nl.total_neighbors(), 4);
        assert!((nl.mean_count() - 4.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "symmetrized() requires full-system lists")]
    fn symmetrized_rejects_an_id_beyond_the_query_count() {
        // Row 1 names particle 3 of a 3-query list: a subset's gather
        // lists, whose closure would need rows that do not exist.
        NeighborLists::from_lists(vec![vec![0, 1], vec![1, 3], vec![2]]).symmetrized();
    }

    #[test]
    fn closure_of_a_subset_with_its_ghosts_is_the_full_closure_restricted() {
        // Asymmetric gather lists over 60 particles; every third particle
        // keeps its row, the others become ghosts known only by which rows
        // they gather. Each kept row must come out as the whole system's
        // closure holds it.
        let mut rng = SplitMix64::new(24);
        let n = 60u32;
        let rows: Vec<Vec<u32>> =
            (0..n).map(|k| (0..n).filter(|&j| j == k || rng.next_f64() < 0.2).collect()).collect();
        let full = NeighborLists::from_lists(rows.clone()).symmetrized();
        let row_ids: Vec<u32> = (0..n).filter(|k| k % 3 == 1).collect();
        let ghost_ids: Vec<u32> = (0..n).filter(|k| k % 3 != 1).collect();
        let forward =
            NeighborLists::from_lists(row_ids.iter().map(|&k| rows[k as usize].clone()).collect());
        // Row indices each ghost gathers, deliberately descending.
        let ghost_rows = NeighborLists::from_lists(
            ghost_ids
                .iter()
                .map(|&g| {
                    let hits = row_ids.iter().enumerate().rev();
                    hits.filter(|(_, k)| rows[g as usize].contains(k))
                        .map(|(q, _)| q as u32)
                        .collect()
                })
                .collect(),
        );
        let gathered = forward.total_neighbors();
        let sym =
            forward.into_symmetrized_over_ghosts(&row_ids, n as usize, &ghost_ids, &ghost_rows);
        assert_eq!(sym.query_count(), row_ids.len());
        for (q, &k) in row_ids.iter().enumerate() {
            assert_eq!(sym.neighbors(q), full.neighbors(k as usize), "row {q} (particle {k})");
        }
        assert!(sym.total_neighbors() > gathered, "no reverse edge was added");
    }

    #[test]
    fn symmetrized_matches_naive_closure() {
        let mut rng = SplitMix64::new(6);
        // Random asymmetric gather lists over 40 particles, self included,
        // rows ascending (the production invariant).
        let n = 40usize;
        let rows: Vec<Vec<u32>> = (0..n as u32)
            .map(|k| {
                let mut row: Vec<u32> =
                    (0..n as u32).filter(|&j| j == k || rng.next_f64() < 0.15).collect();
                row.sort_unstable();
                row
            })
            .collect();
        let nl = NeighborLists::from_lists(rows.clone());
        let sym = nl.symmetrized();
        // Naive reference: push reverse edges, sort, dedup.
        let mut sets = rows.clone();
        for (k, row) in rows.iter().enumerate() {
            for &j in row {
                if j as usize != k {
                    sets[j as usize].push(k as u32);
                }
            }
        }
        for (k, s) in sets.iter_mut().enumerate() {
            s.sort_unstable();
            s.dedup();
            assert_eq!(sym.neighbors(k), s.as_slice(), "row {k}");
        }
    }

    #[test]
    fn in_place_closure_equals_the_count_scatter_merge_oracle() {
        // Row counts on both sides of the segment length, and from no
        // asymmetry to dense asymmetry. Each case closes the whole system
        // and, with every third particle keeping its row, a subset whose
        // other particles are ghosts.
        let mut rng = SplitMix64::new(0x1A7E);
        for n in [0u32, 1, 255, 256, 257, 3 * 256 + 17] {
            for p in [0.0, 4.0 / n.max(1) as f64, 0.05] {
                let case = format!("n {n} p {p}");
                let rows: Vec<Vec<u32>> = (0..n)
                    .map(|k| (0..n).filter(|&j| j == k || rng.next_f64() < p).collect())
                    .collect();
                let forward = NeighborLists::from_lists(rows.clone());
                let none = NeighborLists::default();
                let want =
                    symmetric_closure(&forward, |q| q as u32, |j| Some(j as usize), &[], &none);
                let gathered = forward.total_neighbors();
                let got = forward.into_symmetrized();
                assert_eq!(got, want, "{case}");
                assert!(got.segments.iter().all(|s| s.capacity() == s.len()), "{case}: spare room");
                if p > 0.0 && n > 1 {
                    assert!(got.total_neighbors() > gathered, "{case}: nothing was missing");
                }

                let (row_ids, ghost_ids): (Vec<u32>, Vec<u32>) = (0..n).partition(|k| k % 3 == 1);
                let forward = NeighborLists::from_lists(
                    row_ids.iter().map(|&k| rows[k as usize].clone()).collect(),
                );
                let row_of = |j: u32| row_ids.binary_search(&j).ok();
                let ghost_rows = NeighborLists::from_lists(
                    ghost_ids
                        .iter()
                        .map(|&g| rows[g as usize].iter().filter_map(|&j| row_of(j)))
                        .map(|hits| hits.map(|q| q as u32).collect())
                        .collect(),
                );
                let id_of = |q: usize| row_ids[q];
                let want = symmetric_closure(&forward, id_of, row_of, &ghost_ids, &ghost_rows);
                let got = forward.into_symmetrized_over_ghosts(
                    &row_ids,
                    n as usize,
                    &ghost_ids,
                    &ghost_rows,
                );
                assert_eq!(got, want, "{case}: subset");
            }
        }
    }
}
