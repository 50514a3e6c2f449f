//! The pass table of one derivative evaluation (Algorithm 1, steps 1–4).
//!
//! [`PASSES`] is the evaluation, in order: each entry names the
//! [`Phase`] it is charged to, the `sph-core` / `sph-tree` pass it calls on
//! one rank's particles, the owner-computed [`Fields`] it publishes and
//! the [`ExchangePoint`] that follows it. The driver's loop
//! (`DistributedSimulation::evaluate_derivatives`) runs the table over the
//! [`RankView`]s and performs the exchange after each pass; nothing else
//! in the crate calls a kernel pass.
//!
//! A rank computes on its *local* particles: a copy of (owned ∪ ghost)
//! when there is more than one rank, the global system itself when the
//! rank owns every particle — then local index ≡ global id, nothing is
//! copied in or published back, and no ghost exists to refresh.

use crate::distributed::{with_retry, ExchangeLog};
use rayon::prelude::*;
use sph_core::config::{GradientScheme, SphConfig};
use sph_core::density::{compute_density, NeighborLists};
use sph_core::eos::IdealGas;
use sph_core::forces::compute_forces;
use sph_core::gradients::{compute_iad_matrices, compute_velocity_gradients};
use sph_core::particles::ParticleSystem;
use sph_core::volume::compute_volume_elements;
use sph_core::StepStats;
use sph_domain::exchange::{Exchange, ExchangeError, ExchangePath};
use sph_kernels::{Kernel, SUPPORT_RADIUS};
use sph_math::{Vec3, REDUCE_CHUNK};
use sph_profiler::Phase;
use sph_tree::gravity::GravitySample;
use sph_tree::{build_csr_lists, CellGrid, GravitySolver, TraversalStats};
use ExchangePoint::{Refresh, VerifyHaloThenRefresh};

/// Per-particle fields that cross a rank boundary together: written from
/// a rank's local copy into the global store by the pass that computes
/// them (publish), and — for those a neighbour sum reads — shipped from
/// there to every ghost copy (refresh).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fields {
    /// Adapted smoothing length, density, grad-h term.
    HRhoOmega,
    /// Volume elements + the generalized-VE rewritten density.
    VolRho,
    /// IAD correction matrices.
    CIad,
    /// Pressure and sound speed.
    PCs,
    /// Velocity divergence and curl.
    DivCurl,
    /// Acceleration and energy rate.
    ADuDt,
}

impl Fields {
    fn words(self) -> usize {
        match self {
            Fields::HRhoOmega => 3,
            Fields::VolRho | Fields::PCs | Fields::DivCurl => 2,
            Fields::CIad => 9,
            Fields::ADuDt => 4,
        }
    }

    /// Append particle `i`'s fields.
    fn pack(self, sys: &ParticleSystem, i: usize, out: &mut Vec<f64>) {
        match self {
            Fields::HRhoOmega => out.extend_from_slice(&[sys.h[i], sys.rho[i], sys.omega[i]]),
            Fields::VolRho => out.extend_from_slice(&[sys.vol[i], sys.rho[i]]),
            Fields::CIad => {
                for row in sys.c_iad[i].m {
                    out.extend_from_slice(&row);
                }
            }
            Fields::PCs => out.extend_from_slice(&[sys.p[i], sys.cs[i]]),
            Fields::DivCurl => out.extend_from_slice(&[sys.div_v[i], sys.curl_v[i]]),
            Fields::ADuDt => {
                let a = sys.a[i];
                out.extend_from_slice(&[a.x, a.y, a.z, sys.du_dt[i]]);
            }
        }
    }

    /// Scatter one particle's words into index `i`.
    fn unpack(self, sys: &mut ParticleSystem, i: usize, words: &[f64]) {
        match self {
            Fields::HRhoOmega => {
                sys.h[i] = words[0];
                sys.rho[i] = words[1];
                sys.omega[i] = words[2];
            }
            Fields::VolRho => {
                sys.vol[i] = words[0];
                sys.rho[i] = words[1];
            }
            Fields::CIad => {
                for (r, row) in sys.c_iad[i].m.iter_mut().enumerate() {
                    row.copy_from_slice(&words[3 * r..3 * r + 3]);
                }
            }
            Fields::PCs => {
                sys.p[i] = words[0];
                sys.cs[i] = words[1];
            }
            Fields::DivCurl => {
                sys.div_v[i] = words[0];
                sys.curl_v[i] = words[1];
            }
            Fields::ADuDt => {
                sys.a[i] = Vec3::new(words[0], words[1], words[2]);
                sys.du_dt[i] = words[3];
            }
        }
    }
}

/// What crosses ranks once every rank has run a pass and published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExchangePoint {
    /// Nothing: no later neighbour sum reads the published fields from a
    /// ghost (or every rank recomputes them locally, bit for bit).
    None,
    /// Every ghost copy of the published fields is refreshed from its
    /// owner — the exchange a real MPI code would post between kernels.
    Refresh,
    /// The density pass only: first the measured search radius is
    /// max-reduced against the negotiated halo radius (on a miss the halo
    /// is renegotiated and the pass re-runs), then `Refresh`.
    VerifyHaloThenRefresh,
}

/// What every pass sees besides its rank's particles.
pub(crate) struct PassEnv<'a> {
    pub kernel: &'a dyn Kernel,
    pub config: &'a SphConfig,
    pub eos: &'a IdealGas,
    /// Solver over the replicated global tree when self-gravity is on —
    /// the in-process analogue of the locally essential tree every
    /// distributed gravity code assembles, which keeps the traversal (and
    /// its rounding) identical for any rank count.
    pub gravity: Option<&'a GravitySolver<'a>>,
    /// Whether the evaluation computes a strict subset of the particles
    /// (block time-stepping) — a global flag, the same on every rank.
    pub subset: bool,
}

/// One entry of the evaluation.
pub(crate) struct Pass {
    /// The phase timer the pass is charged to.
    pub phase: Phase,
    /// Whether the configuration asks for the pass at all.
    pub enabled: fn(&PassEnv) -> bool,
    /// The pass over one rank's local particles.
    pub run: fn(&PassEnv, &mut ParticleSystem, &mut Workspace) -> StepStats,
    /// Fields the rank's owned particles publish afterwards.
    pub publishes: Option<Fields>,
    /// The exchange that follows the publish.
    pub then: ExchangePoint,
}

const fn pass(
    phase: Phase,
    enabled: fn(&PassEnv) -> bool,
    run: fn(&PassEnv, &mut ParticleSystem, &mut Workspace) -> StepStats,
    publishes: Option<Fields>,
    then: ExchangePoint,
) -> Pass {
    Pass { phase, enabled, run, publishes, then }
}

fn always(_: &PassEnv) -> bool {
    true
}

fn with_iad(env: &PassEnv) -> bool {
    env.config.gradients == GradientScheme::Iad
}

fn with_gravity(env: &PassEnv) -> bool {
    env.gravity.is_some()
}

/// Algorithm 1, steps 2–4 (step 1, the cell grid, is built with the
/// view). Columns: phase, configured?, pass, owners publish, exchange.
pub(crate) const PASSES: [Pass; 8] = [
    // Phases B–E: neighbours, smoothing lengths, density.
    pass(Phase::Density, always, density, Some(Fields::HRhoOmega), VerifyHaloThenRefresh),
    // Phase F: volume elements, IAD matrices, EOS, velocity gradients.
    pass(Phase::Gradients, always, volume_elements, Some(Fields::VolRho), Refresh),
    pass(Phase::Gradients, with_iad, iad_matrices, Some(Fields::CIad), Refresh),
    pass(Phase::Gradients, always, equation_of_state, Some(Fields::PCs), ExchangePoint::None),
    pass(Phase::Gradients, always, velocity_gradients, Some(Fields::DivCurl), Refresh),
    // Phases G–H: momentum and energy over the symmetric pair lists.
    pass(Phase::Momentum, always, force_lists, None, ExchangePoint::None),
    pass(Phase::Momentum, always, forces, Some(Fields::ADuDt), ExchangePoint::None),
    // Phase I: self-gravity, added onto the hydro acceleration.
    pass(Phase::Gravity, with_gravity, gravity, Some(Fields::ADuDt), ExchangePoint::None),
];

/// One rank's working set of an evaluation, in local indices.
pub(crate) struct Workspace {
    /// Global id of every local particle (owned ∪ ghost), ascending — so
    /// local index order ≡ global id order. Empty when the local system
    /// *is* the global one.
    ids: Vec<u32>,
    /// Local indices of the particles this rank computes (its owned
    /// particles; under block time-stepping the active ones), ascending.
    active: Vec<u32>,
    /// `(local index, global id)` of every particle the rank reads but
    /// does not compute, refreshed from the global store after each pass
    /// that publishes: the ghosts and, in a copy, the resting particles.
    ghosts: Vec<(u32, u32)>,
    /// Local indices of the resting particles of a copy — owned but not
    /// active — whose `p, c_s` the EOS row publishes, ascending.
    resting: Vec<u32>,
    /// Cell grid over the local positions — the spatial structure of the
    /// evaluation's ball queries; dropped with the last of them, before
    /// the gather lists grow into the pair lists.
    grid: Option<CellGrid>,
    /// Gather lists of the active particles (from the density pass),
    /// indexed like `active`; taken by the force lists.
    lists: NeighborLists,
    /// Pair lists of the active particles the force pass sums over: the
    /// gather lists themselves, closed in place unless only a subset is
    /// active — one copy of the pairs per evaluation.
    force_lists: NeighborLists,
    /// Potential and gravity interaction count of each active particle
    /// (empty with gravity off).
    potentials: Vec<f64>,
    gravity_work: Vec<u64>,
}

/// One rank's side of an evaluation.
pub(crate) struct RankView {
    pub rank: usize,
    /// The rank's copy of its (owned ∪ ghost) particles; `None` when it
    /// owns every particle and computes on the global system in place.
    pub copy: Option<ParticleSystem>,
    pub ws: Workspace,
}

impl RankView {
    /// View of a rank that owns every particle: no copy, no ghosts.
    /// `active` are global ids (≡ local indices).
    pub fn of_whole_system(rank: usize, sys: &ParticleSystem, active: Vec<u32>) -> Self {
        RankView { rank, copy: None, ws: Workspace::new(sys, Vec::new(), active, Vec::new()) }
    }

    /// View of a rank that owns `owned` and imports `imports` (both
    /// ascending global ids, disjoint) and computes its owned particles in
    /// `computed` (ascending; all of them when `None`): extracts the local
    /// copy. The owned particles it does not compute rest, refreshed like
    /// ghosts.
    pub fn of_subdomain(
        rank: usize,
        sys: &ParticleSystem,
        owned: &[u32],
        imports: &[u32],
        computed: Option<&[u32]>,
    ) -> Self {
        let mut ids = Vec::with_capacity(owned.len() + imports.len());
        let mut active = Vec::with_capacity(owned.len());
        let mut ghosts = Vec::with_capacity(imports.len());
        let mut resting = Vec::new();
        let (mut o, mut g) = (0, 0);
        while o < owned.len() || g < imports.len() {
            let k = ids.len() as u32;
            if g == imports.len() || (o < owned.len() && owned[o] <= imports[g]) {
                if computed.is_none_or(|c| c.binary_search(&owned[o]).is_ok()) {
                    active.push(k);
                } else {
                    ghosts.push((k, owned[o]));
                    resting.push(k);
                }
                ids.push(owned[o]);
                o += 1;
            } else {
                ghosts.push((k, imports[g]));
                ids.push(imports[g]);
                g += 1;
            }
        }
        // An import carries `[x, v, m, h, u]` — nine words per ghost, the
        // migration payload — and every other field is recomputed by a pass
        // or refreshed from its owner before anything reads it.
        let mut copy = sys.subset(&[]);
        macro_rules! import {
            ($($field:ident),*) => {
                $(copy.$field = ids.iter().map(|&i| sys.$field[i as usize]).collect();)*
            };
        }
        import!(x, v, m, h, u);
        copy.resize_zeroed(ids.len());
        let ws = Workspace { resting, ..Workspace::new(&copy, ids, active, ghosts) };
        RankView { rank, copy: Some(copy), ws }
    }

    /// Copy `fields` of the rank's computed particles into the global
    /// store (nothing to do when the rank computed there in place). The
    /// EOS rewrote every local particle's `p, c_s`, as it does the whole
    /// system in place on one rank, so [`Fields::PCs`] also publishes the
    /// resting particles' — `per_particle_dt` reads them.
    pub fn publish(&self, fields: Fields, global: &mut ParticleSystem) {
        let Some(copy) = &self.copy else { return };
        let resting = if matches!(fields, Fields::PCs) { &self.ws.resting[..] } else { &[] };
        let mut words = Vec::with_capacity(fields.words());
        for &k in self.ws.active.iter().chain(resting) {
            words.clear();
            fields.pack(copy, k as usize, &mut words);
            fields.unpack(global, self.ws.ids[k as usize] as usize, &words);
        }
    }

    /// Per-particle work of the evaluation — SPH pair interactions
    /// (density + force ≈ 2× the pair-list length) plus gravity
    /// interactions, the load measure rebalancing and the cluster model
    /// consume — and, with gravity on, the potentials; both by global id.
    pub fn account(&self, work: &mut [f64], phi: &mut [f64]) {
        let ws = &self.ws;
        for (q, &k) in ws.active.iter().enumerate() {
            let g = ws.global_id(k) as usize;
            let sph = 2.0 * ws.force_lists.neighbors(q).len() as f64;
            work[g] = sph.max(2.0) + ws.gravity_work.get(q).map_or(0.0, |&w| w as f64);
            if let Some(&p) = ws.potentials.get(q) {
                phi[g] = p;
            }
        }
    }
}

impl Workspace {
    fn global_id(&self, k: u32) -> u32 {
        self.ids.get(k as usize).copied().unwrap_or(k)
    }

    /// Cell grid over the *active* positions alone, in row order — its
    /// entries are row indices of the active particles' lists. Only those
    /// rows are ever consumed, so it is where the closure looks up which
    /// of them a ghost gathers.
    fn owned_grid(&self, local: &ParticleSystem) -> CellGrid {
        let owned_x: Vec<Vec3> = self.active.iter().map(|&k| local.x[k as usize]).collect();
        CellGrid::for_radius(&owned_x, local.periodicity, SUPPORT_RADIUS * local.max_h())
    }

    fn new(
        local: &ParticleSystem,
        ids: Vec<u32>,
        active: Vec<u32>,
        ghosts: Vec<(u32, u32)>,
    ) -> Self {
        // The force pass's sweep folds in local index order, and the pair
        // lists are ascending in it: that is the global closure's order
        // only if local index order ≡ global id order.
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "local ids must ascend with index");
        Workspace {
            ids,
            active,
            ghosts,
            resting: Vec::new(),
            grid: Some(CellGrid::for_radius(
                &local.x,
                local.periodicity,
                SUPPORT_RADIUS * local.max_h(),
            )),
            lists: NeighborLists::default(),
            force_lists: NeighborLists::default(),
            potentials: Vec::new(),
            gravity_work: Vec::new(),
        }
    }
}

/// One ghost-refresh superstep: for every rank, pack `fields` of its
/// ghosts from the owners' published state (ascending global-id order),
/// move them through the exchange carrier, and scatter the *delivered*
/// words into the rank's copy. In-process the delivery is the identity,
/// so this is bit-identical to copying straight from the global store; a
/// faulty or real carrier interposes here.
pub(crate) fn refresh_ghosts(
    exchange: &mut dyn Exchange,
    log: &mut ExchangeLog,
    global: &ParticleSystem,
    views: &mut [RankView],
    fields: Fields,
) -> Result<(), ExchangeError> {
    let words = fields.words();
    for view in views {
        let Some(copy) = &mut view.copy else { continue };
        if view.ws.ghosts.is_empty() {
            continue;
        }
        let mut payload = Vec::with_capacity(view.ws.ghosts.len() * words);
        for &(_, g) in &view.ws.ghosts {
            fields.pack(global, g as usize, &mut payload);
        }
        with_retry(exchange, log, |ex| {
            ex.deliver_f64(ExchangePath::GhostRefresh, view.rank as u32, &mut payload)
        })?;
        for (j, &(k, _)) in view.ws.ghosts.iter().enumerate() {
            fields.unpack(copy, k as usize, &payload[j * words..(j + 1) * words]);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The passes
// ---------------------------------------------------------------------

fn density(env: &PassEnv, sys: &mut ParticleSystem, ws: &mut Workspace) -> StepStats {
    #[expect(
        clippy::expect_used,
        reason = "the table runs density before the force lists, which alone take the grid: a \
                  driver bug, not an input"
    )]
    let grid = ws.grid.as_ref().expect("the grid lives until the force lists are built");
    let (lists, stats) = compute_density(sys, grid, env.kernel, env.config, &ws.active);
    ws.lists = lists;
    stats
}

fn volume_elements(env: &PassEnv, sys: &mut ParticleSystem, ws: &mut Workspace) -> StepStats {
    compute_volume_elements(sys, &ws.lists, env.kernel, env.config, &ws.active);
    StepStats::default()
}

fn iad_matrices(env: &PassEnv, sys: &mut ParticleSystem, ws: &mut Workspace) -> StepStats {
    compute_iad_matrices(sys, &ws.lists, env.kernel, &ws.active);
    StepStats::default()
}

/// The EOS is a pure per-particle function of (ρ, u): applied to the
/// whole local set it reproduces the owner's p and cs for every ghost bit
/// for bit — an exchange with zero payload.
fn equation_of_state(env: &PassEnv, sys: &mut ParticleSystem, _: &mut Workspace) -> StepStats {
    env.eos.apply(&sys.rho, &sys.u, &mut sys.p, &mut sys.cs);
    StepStats::default()
}

fn velocity_gradients(env: &PassEnv, sys: &mut ParticleSystem, ws: &mut Workspace) -> StepStats {
    compute_velocity_gradients(sys, &ws.lists, env.kernel, env.config.gradients, &ws.active);
    StepStats::default()
}

/// The pairwise momentum/energy equations must see every pair from both
/// sides, so an evaluation of every particle sums over the symmetric
/// closure of the gather lists (exact pairwise conservation) — over ghosts
/// when the rank has any. An active subset keeps its gather lists on every
/// rank, as block-stepping codes do.
fn force_lists(env: &PassEnv, sys: &mut ParticleSystem, ws: &mut Workspace) -> StepStats {
    // The grid has its last reader before here: it is freed before the
    // closure grows the gather lists, which it consumes in place.
    ws.grid = None;
    let gather = std::mem::take(&mut ws.lists);
    ws.force_lists = if env.subset {
        gather
    } else if !ws.ghosts.is_empty() {
        closure_over_ghosts(sys, ws, gather)
    } else {
        gather.into_symmetrized()
    };
    StepStats::default()
}

/// Symmetric closure when some neighbours are ghosts, whose gather lists
/// this rank never computed. A ghost's gather set — the part of it among
/// this rank's owned particles, which is all their rows can hold — is
/// recovered with one frozen ball query at its exchanged h on the grid
/// over the owned positions in row order ([`Workspace::owned_grid`]).
/// That is exact, by the h-iteration's exit invariant, because the final
/// search radius is within the verified halo radius, and because a
/// query's result depends on centre, radius and periodicity, never on the
/// grid's geometry. The reverse edges of owned rows and ghost balls are
/// then merged into the owned rows in place, in ascending local index ≡
/// ascending global id: identical membership and summation order to
/// `NeighborLists::symmetrized()` over the global system.
fn closure_over_ghosts(
    sys: &ParticleSystem,
    ws: &Workspace,
    gather: NeighborLists,
) -> NeighborLists {
    let ghost_ids: Vec<u32> = ws.ghosts.iter().map(|&(k, _)| k).collect();
    // The queries and the owned grid are gone before the rows grow.
    let ghost_rows = {
        let centers: Vec<Vec3> = ghost_ids.iter().map(|&k| sys.x[k as usize]).collect();
        let radii: Vec<f64> =
            ghost_ids.iter().map(|&k| SUPPORT_RADIUS * sys.h[k as usize]).collect();
        build_csr_lists(&ws.owned_grid(sys), &centers, &radii).0
    };
    gather.into_symmetrized_over_ghosts(&ws.active, ws.ids.len(), &ghost_ids, &ghost_rows)
}

/// The closure [`closure_over_ghosts`] replaced, kept as its oracle: a
/// `Vec` per local particle, one ball query per ghost on the owned ∪
/// ghost grid, then sort + dedup of every owned row.
#[cfg(test)]
fn closure_over_ghosts_reference(
    sys: &ParticleSystem,
    ws: &Workspace,
    gather: &NeighborLists,
    grid: &CellGrid,
) -> NeighborLists {
    let n_local = ws.ids.len();
    // Only the active (owned) rows are ever consumed, so ghost rows are
    // given no reverse edges.
    let mut is_active = vec![false; n_local];
    let mut sym: Vec<Vec<u32>> = vec![Vec::new(); n_local];
    for (q, &k) in ws.active.iter().enumerate() {
        is_active[k as usize] = true;
        sym[k as usize] = gather.neighbors(q).to_vec();
    }
    let mut reverse = |k: u32, gather: &[u32]| {
        for &j in gather {
            if j != k && is_active[j as usize] {
                sym[j as usize].push(k);
            }
        }
    };
    for (q, &k) in ws.active.iter().enumerate() {
        reverse(k, gather.neighbors(q));
    }
    let mut ball = Vec::new();
    let mut ts = TraversalStats::default();
    for &(k, _) in &ws.ghosts {
        let radius = SUPPORT_RADIUS * sys.h[k as usize];
        ball.clear();
        grid.neighbors_within(sys.x[k as usize], radius, &mut ball, &mut ts);
        reverse(k, &ball);
    }
    let rows = ws
        .active
        .iter()
        .map(|&k| {
            let mut row = std::mem::take(&mut sym[k as usize]);
            row.sort_unstable();
            row.dedup();
            row
        })
        .collect();
    NeighborLists::from_lists(rows)
}

fn forces(env: &PassEnv, sys: &mut ParticleSystem, ws: &mut Workspace) -> StepStats {
    let pairs = compute_forces(sys, &ws.force_lists, env.kernel, env.config, &ws.active);
    StepStats { sph_interactions: pairs, ..StepStats::default() }
}

/// Field of the replicated tree at every active particle. Chunked map
/// over fixed `REDUCE_CHUNK` boundaries + ordered scatter; `field_at` is a
/// pure per-particle function, so parallelism cannot change a bit. The
/// per-particle interaction count is kept with each sample because it is
/// the load measure the cluster model consumes.
fn gravity(env: &PassEnv, sys: &mut ParticleSystem, ws: &mut Workspace) -> StepStats {
    let Some(solver) = env.gravity else { return StepStats::default() };
    /// Local index, field sample, interaction count.
    type Row = (u32, GravitySample, u64);
    let chunks: Vec<(Vec<Row>, TraversalStats)> = ws
        .active
        .par_chunks(REDUCE_CHUNK)
        .map(|chunk| {
            let mut chunk_stats = TraversalStats::default();
            let rows = chunk
                .iter()
                .map(|&k| {
                    let mut ts = TraversalStats::default();
                    let sample = solver.field_at(sys.x[k as usize], Some(ws.global_id(k)), &mut ts);
                    chunk_stats.merge(&ts);
                    (k, sample, ts.total_interactions())
                })
                .collect();
            (rows, chunk_stats)
        })
        .collect();
    let mut stats = StepStats::default();
    for (rows, chunk_stats) in chunks {
        stats.gravity.merge(&chunk_stats);
        for (k, sample, work) in rows {
            sys.a[k as usize] += sample.accel;
            ws.potentials.push(sample.potential);
            ws.gravity_work.push(work);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::bucket_owned;
    use sph_domain::{halo_sets, Partitioner, SfcKind};
    use sph_math::{Aabb, Mat3, Periodicity, SplitMix64};

    const PARTITIONERS: [Partitioner; 3] =
        [Partitioner::Orb, Partitioner::Sfc(SfcKind::Hilbert), Partitioner::Slab { axis: 0 }];

    /// A uniform cloud in the unit cube whose smoothing lengths vary by a
    /// factor ≈ 2 from particle to particle, so `j ∈ N(k)` without
    /// `k ∈ N(j)` is common.
    fn variable_h_cloud(n: usize, seed: u64, periodicity: Periodicity) -> ParticleSystem {
        let mut rng = SplitMix64::new(seed);
        let x = (0..n).map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64())).collect();
        let mut sys = ParticleSystem::new(
            x,
            vec![Vec3::ZERO; n],
            vec![1.0; n],
            vec![1.0; n],
            0.1,
            periodicity,
        );
        sys.h.fill_with(|| rng.uniform(0.05, 0.11));
        sys
    }

    /// Gather lists of `ids` on `grid`: every particle within `2h` of each.
    fn gather_lists(sys: &ParticleSystem, grid: &CellGrid, ids: &[u32]) -> NeighborLists {
        let centers: Vec<Vec3> = ids.iter().map(|&k| sys.x[k as usize]).collect();
        let radii: Vec<f64> = ids.iter().map(|&k| SUPPORT_RADIUS * sys.h[k as usize]).collect();
        build_csr_lists(grid, &centers, &radii).0
    }

    #[test]
    fn closure_over_ghosts_equals_its_oracle_and_the_global_closure() {
        let n = 700;
        let domains = [
            Periodicity::open(Aabb::unit()),
            Periodicity::periodic_z(Aabb::unit()),
            Periodicity::fully_periodic(Aabb::unit()),
        ];
        for (d, &periodicity) in domains.iter().enumerate() {
            let sys = variable_h_cloud(n, 0xC105 + d as u64, periodicity);
            let radius = SUPPORT_RADIUS * sys.max_h();
            let all: Vec<u32> = (0..n as u32).collect();
            let global_grid = CellGrid::for_radius(&sys.x, periodicity, radius);
            let global = gather_lists(&sys, &global_grid, &all).symmetrized();
            for partitioner in PARTITIONERS {
                for nranks in [2usize, 3, 4] {
                    let case = format!("{periodicity:?} {partitioner:?} nranks {nranks}");
                    let decomp = partitioner.partition(&sys.x, nranks, &vec![1.0; n]);
                    let owned = bucket_owned(&decomp);
                    let halos = halo_sets(&sys.x, &decomp, radius, &periodicity);
                    // Pairs only the ghost's ball finds: owned k, ghost j,
                    // k ∈ N(j), j ∉ N(k).
                    let mut ghost_only_pairs = 0;
                    for (r, (owned, imports)) in owned.iter().zip(&halos.imports).enumerate() {
                        let view = RankView::of_subdomain(r, &sys, owned, imports, None);
                        let (Some(local), ws) = (&view.copy, &view.ws) else {
                            panic!("{case}: a subdomain view computes on a copy")
                        };
                        assert!(!ws.ghosts.is_empty(), "{case}: rank {r} imports nothing");
                        let grid = ws.grid.as_ref().unwrap();
                        let gather = gather_lists(local, grid, &ws.active);
                        let got = closure_over_ghosts(local, ws, gather.clone());
                        let want = closure_over_ghosts_reference(local, ws, &gather, grid);
                        assert_eq!(got.query_count(), ws.active.len(), "{case}");
                        for (q, &k) in ws.active.iter().enumerate() {
                            let row = got.neighbors(q);
                            assert_eq!(row, want.neighbors(q), "{case}: rank {r} row {q}");
                            let global_ids: Vec<u32> =
                                row.iter().map(|&j| ws.global_id(j)).collect();
                            assert_eq!(
                                global_ids,
                                global.neighbors(ws.global_id(k) as usize),
                                "{case}: rank {r} row {q} against the global closure"
                            );
                            ghost_only_pairs += row
                                .iter()
                                .filter(|j| ws.active.binary_search(j).is_err())
                                .filter(|j| gather.neighbors(q).binary_search(j).is_err())
                                .count();
                        }
                    }
                    assert!(ghost_only_pairs > 0, "{case}: no pair needed a ghost's ball");
                }
            }
        }
    }

    #[test]
    fn force_pass_over_rank_views_equals_the_global_force_pass() {
        // The ghosts of a view have no row: their pairs with owned rows
        // reach those rows only through the sweep's ghost sources. Every
        // field the pass reads is drawn at random (the pass does not care
        // whether it is physical), every seventh IAD matrix singular.
        let n = 700;
        let domains = [
            Periodicity::open(Aabb::unit()),
            Periodicity::periodic_z(Aabb::unit()),
            Periodicity::fully_periodic(Aabb::unit()),
        ];
        for (d, &periodicity) in domains.iter().enumerate() {
            let mut sys = variable_h_cloud(n, 0xF0CE + d as u64, periodicity);
            let mut rng = SplitMix64::new(0x5EED + d as u64);
            for i in 0..n {
                let mut draw = |lo, hi| rng.uniform(lo, hi);
                sys.v[i] = Vec3::new(draw(-1.0, 1.0), draw(-1.0, 1.0), draw(-1.0, 1.0));
                (sys.rho[i], sys.omega[i], sys.p[i]) =
                    (draw(0.8, 1.2), draw(0.9, 1.1), draw(0.5, 2.0));
                (sys.cs[i], sys.div_v[i], sys.curl_v[i]) =
                    (draw(0.5, 1.5), draw(-1.0, 1.0), draw(0.0, 1.0));
                sys.c_iad[i] = if i % 7 == 0 {
                    Mat3::ZERO
                } else {
                    Mat3 { m: [[0.0; 3]; 3].map(|row: [f64; 3]| row.map(|_| draw(-1.0, 1.0))) }
                };
            }
            let radius = SUPPORT_RADIUS * sys.max_h();
            let all: Vec<u32> = (0..n as u32).collect();
            let global_grid = CellGrid::for_radius(&sys.x, periodicity, radius);
            let global_lists = gather_lists(&sys, &global_grid, &all).symmetrized();
            for gradients in [GradientScheme::KernelDerivative, GradientScheme::Iad] {
                let config = SphConfig { gradients, ..SphConfig::default() };
                let kernel = config.kernel.build();
                let mut global = sys.clone();
                let global_pairs =
                    compute_forces(&mut global, &global_lists, kernel.as_ref(), &config, &all);
                for partitioner in PARTITIONERS {
                    for nranks in [2usize, 3, 4] {
                        let case =
                            format!("{periodicity:?} {gradients:?} {partitioner:?} {nranks}");
                        let decomp = partitioner.partition(&sys.x, nranks, &vec![1.0; n]);
                        let halos = halo_sets(&sys.x, &decomp, radius, &periodicity);
                        let mut pairs = 0;
                        for (r, (owned, imports)) in
                            bucket_owned(&decomp).iter().zip(&halos.imports).enumerate()
                        {
                            let view = RankView::of_subdomain(r, &sys, owned, imports, None);
                            let (Some(mut local), ws) = (view.copy, &view.ws) else {
                                panic!("{case}: a subdomain view computes on a copy")
                            };
                            macro_rules! import {
                                ($($field:ident),*) => {
                                    $(for (k, &g) in ws.ids.iter().enumerate() {
                                        local.$field[k] = sys.$field[g as usize];
                                    })*
                                };
                            }
                            import!(rho, omega, p, cs, div_v, curl_v, c_iad);
                            let grid = ws.grid.as_ref().unwrap();
                            let gather = gather_lists(&local, grid, &ws.active);
                            let lists = closure_over_ghosts(&local, ws, gather);
                            pairs += compute_forces(
                                &mut local,
                                &lists,
                                kernel.as_ref(),
                                &config,
                                &ws.active,
                            );
                            for &k in &ws.active {
                                let g = ws.global_id(k) as usize;
                                let (a, want) = (local.a[k as usize], global.a[g]);
                                let bits = |v: Vec3| v.to_array().map(f64::to_bits);
                                assert_eq!(bits(a), bits(want), "{case}: a of {g} on rank {r}");
                                let (du, want) = (local.du_dt[k as usize], global.du_dt[g]);
                                assert_eq!(du.to_bits(), want.to_bits(), "{case}: du_dt of {g}");
                            }
                        }
                        assert_eq!(pairs, global_pairs, "{case}: pair count");
                    }
                }
            }
        }
    }
}
