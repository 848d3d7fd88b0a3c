//! The shared synthesis `Session`: the budget, a per-stage tally, and
//! bounded content-addressed caches for the staged COMPACT pipeline.
//!
//! The paper's flow (Figure 3: network → shared BDD → undirected graph →
//! VH-labeling → crossbar) used to run as one monolithic `synthesize`
//! call, so every caller that varied only a late stage — a γ sweep, a
//! strategy cross-check, repair's budget-bounded resynthesis — rebuilt the
//! BDD and graph from scratch. A [`Session`] separates the stages behind
//! explicit, cacheable artifacts:
//!
//! - **BDD artifacts** ([`flowc_bdd::NetworkBdds`]) are keyed by a stable
//!   content hash of the network structure plus the variable order.
//! - **Graph artifacts** ([`crate::BddGraph`]) are keyed by the BDD key.
//!
//! Both live behind [`Arc`] handles, so a cache hit is a refcount bump —
//! no rebuild, no deep clone. Each stage execution is counted in the
//! session's [`StageTrace`] tally (runs, cache hits and misses, wall
//! clock), which tests and the bench harness assert on: a 5-point γ sweep
//! through one session performs exactly **one** BDD build and one graph
//! extraction.
//!
//! [`synthesize_batch`] runs many tasks (different networks, or γ /
//! strategy points of one network) across `std::thread::scope` workers
//! under the session budget. Results come back in task order regardless
//! of scheduling.
//!
//! **Determinism contract.** Every stage is a deterministic function of
//! its input artifact and configuration (no `RandomState`), so with
//! solver time limits generous enough for every point to close — or with
//! the deterministic heuristic strategies — a batch produces identical
//! results at any thread count, in task order. Under tight wall-clock
//! budgets the anytime solvers may stop at different incumbents
//! run-to-run; that nondeterminism comes from the clock, not from the
//! session or the batch machinery.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use flowc_bdd::NetworkBdds;
use flowc_budget::Budget;
use flowc_graph::OctResult;
use flowc_logic::Network;
use flowc_report::Json;

use crate::labeling::{Labeling, VhLabel};
use crate::pass::{BddBuildPass, GraphExtractPass, LadderPass, NormalizePass, Pass, VerifyPass};
use crate::pipeline::{CompactError, CompactResult, Config, VhStrategy};
use crate::preprocess::BddGraph;
use crate::supervisor::{panic_message, Rung};

/// Content-addressed identity of a cached artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey(pub u64);

impl fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a combination of key material (stage tags + upstream hashes).
fn combine(parts: &[u64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &x in parts {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// Stage tags folded into artifact keys so different stages of the same
/// upstream content never collide.
const TAG_BDD: u64 = 0xB00D_0001;
const TAG_GRAPH: u64 = 0x6AA9_0002;
const TAG_LABEL: u64 = 0x1ABE_0003;

/// The key of the BDD artifact for `network` under `var_order`.
pub fn bdd_key(network: &Network, var_order: Option<&[usize]>) -> ArtifactKey {
    let mut parts = vec![TAG_BDD, network.content_hash()];
    match var_order {
        Some(order) => {
            parts.push(1 + order.len() as u64);
            parts.extend(order.iter().map(|&i| i as u64));
        }
        None => parts.push(0),
    }
    ArtifactKey(combine(&parts))
}

/// The key of the graph artifact extracted from the BDD artifact `bdd`.
pub fn graph_key(bdd: ArtifactKey) -> ArtifactKey {
    ArtifactKey(combine(&[TAG_GRAPH, bdd.0]))
}

/// The key of the labeling artifact for the graph artifact `graph` under
/// `config`'s strategy (γ bits, alignment, strategy shape). The solver
/// time limit is deliberately **not** part of the key: a labeling is only
/// stored when its content is budget-independent — proven optimal, or
/// produced by a deterministic heuristic strategy — so any budget that
/// reaches the cache would have computed the same artifact.
pub fn label_key(graph: ArtifactKey, config: &Config) -> ArtifactKey {
    let mut parts = vec![TAG_LABEL, graph.0, u64::from(config.align)];
    match &config.strategy {
        VhStrategy::Weighted { gamma, .. } => {
            parts.push(1);
            parts.push(gamma.to_bits());
        }
        VhStrategy::MinSemiperimeter { .. } => parts.push(2),
        VhStrategy::Heuristic { gamma } => {
            parts.push(3);
            parts.push(gamma.to_bits());
        }
        VhStrategy::Staircase => parts.push(4),
    }
    ArtifactKey(combine(&parts))
}

/// The pipeline stages a session traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StageKind {
    /// Netlist validation and artifact-key derivation.
    Normalize,
    /// (Shared) BDD construction.
    BddBuild,
    /// BDD → undirected graph extraction.
    GraphExtract,
    /// VH-labeling (the supervised degradation ladder).
    VhLabel,
    /// Crossbar mapping of the winning labeling.
    Map,
    /// Functional verification of the mapped design.
    Verify,
}

impl StageKind {
    /// Stable lowercase stage name (used in traces and JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Normalize => "normalize",
            StageKind::BddBuild => "bdd-build",
            StageKind::GraphExtract => "graph-extract",
            StageKind::VhLabel => "vh-label",
            StageKind::Map => "map",
            StageKind::Verify => "verify",
        }
    }

    /// Every stage kind, in pipeline order.
    pub fn all() -> [StageKind; 6] {
        [
            StageKind::Normalize,
            StageKind::BddBuild,
            StageKind::GraphExtract,
            StageKind::VhLabel,
            StageKind::Map,
            StageKind::Verify,
        ]
    }
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether a stage execution was served from the artifact cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheOutcome {
    /// The artifact was found in the cache; no work was done.
    Hit,
    /// The artifact was computed and inserted into the cache.
    Miss,
    /// The stage's output is not cacheable (or this labeling was not).
    Uncached,
}

/// One stage kind's counters in a [`StageTrace`].
#[derive(Debug, Clone, Copy, Default)]
struct StageCount {
    runs: usize,
    hits: usize,
    misses: usize,
    wall: Duration,
}

/// The per-stage tally of a session: fixed-size counters that every stage
/// execution adds to, so a session that runs for days holds no more
/// bookkeeping than one that ran a single job.
#[derive(Debug, Clone, Default)]
pub struct StageTrace {
    /// Indexed by `StageKind as usize` (the order of [`StageKind::all`]).
    stages: [StageCount; 6],
    /// Branch & bound nodes explored across every labeling run.
    pub bnb_nodes: u64,
    /// Labeling runs whose offered warm start was accepted.
    pub warm_hits: usize,
    /// Labeling runs whose offered warm start was rejected.
    pub warm_misses: usize,
    /// The largest relative optimality gap a labeling run ended with.
    pub worst_gap: f64,
}

impl StageTrace {
    fn count(&self, kind: StageKind) -> &StageCount {
        &self.stages[kind as usize]
    }

    fn add(&mut self, kind: StageKind, wall: Duration, cache: CacheOutcome) {
        let count = &mut self.stages[kind as usize];
        count.runs += 1;
        count.wall += wall;
        match cache {
            CacheOutcome::Hit => count.hits += 1,
            CacheOutcome::Miss => count.misses += 1,
            CacheOutcome::Uncached => {}
        }
    }

    /// Adds `other`'s counters to this tally (the worst gap is the larger
    /// of the two) — how a sharded service sums its sessions.
    pub fn absorb(&mut self, other: &StageTrace) {
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.runs += theirs.runs;
            mine.hits += theirs.hits;
            mine.misses += theirs.misses;
            mine.wall += theirs.wall;
        }
        self.bnb_nodes += other.bnb_nodes;
        self.warm_hits += other.warm_hits;
        self.warm_misses += other.warm_misses;
        self.worst_gap = self.worst_gap.max(other.worst_gap);
    }

    /// Number of times `kind` executed (cache hits included).
    pub fn runs(&self, kind: StageKind) -> usize {
        self.count(kind).runs
    }

    /// Number of times `kind` actually computed its output (cache misses
    /// plus uncached executions) — the figure the γ-sweep reuse tests
    /// assert equals 1 for [`StageKind::BddBuild`].
    pub fn builds(&self, kind: StageKind) -> usize {
        let count = self.count(kind);
        count.runs - count.hits
    }

    /// Number of cache hits for `kind`.
    pub fn hits(&self, kind: StageKind) -> usize {
        self.count(kind).hits
    }

    /// Total wall-clock time spent in `kind`.
    pub fn total_wall(&self, kind: StageKind) -> Duration {
        self.count(kind).wall
    }

    /// Cache hits across all cacheable stages.
    pub fn cache_hits(&self) -> usize {
        self.stages.iter().map(|c| c.hits).sum()
    }

    /// Cache misses (artifact computed and stored) across all stages.
    pub fn cache_misses(&self) -> usize {
        self.stages.iter().map(|c| c.misses).sum()
    }

    /// One line per stage kind with runs, builds, hits, and wall time —
    /// for logs and the CLI's `--gamma-sweep` summary.
    pub fn summary(&self) -> String {
        StageKind::all()
            .iter()
            .filter(|&&k| self.runs(k) > 0)
            .map(|&k| {
                format!(
                    "{}: {} run(s), {} build(s), {} hit(s), {:.3}s",
                    k,
                    self.runs(k),
                    self.builds(k),
                    self.hits(k),
                    self.total_wall(k).as_secs_f64()
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// Aggregate cache statistics of a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cache hits across all cacheable stages.
    pub hits: usize,
    /// Cache misses (artifact computed and stored).
    pub misses: usize,
    /// Artifacts currently cached.
    pub entries: usize,
    /// Artifacts evicted to respect the capacity bound.
    pub evicted: usize,
    /// Labelings served from the on-disk cache (checksum verified).
    pub disk_hits: usize,
    /// On-disk entries rejected by checksum/format verification and
    /// treated as misses (the corrupt file is deleted).
    pub disk_corrupt: usize,
}

/// Session construction parameters.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The shared resource budget for every stage run in the session.
    pub budget: Budget,
    /// Maximum entries per cache (BDDs, graphs, labelings, warm hints
    /// and OCT hints each); oldest-inserted entries are evicted first, so
    /// long-running consumers (the conform fuzzer pushes thousands of
    /// distinct networks through one session) stay bounded in memory.
    pub cache_capacity: usize,
    /// When set, every synthesized design is functionally verified on
    /// this many assignments as a traced [`StageKind::Verify`] stage; a
    /// mismatch is a [`CompactError::Mismatch`] (an internal bug, never
    /// a budget condition).
    pub verify_samples: Option<usize>,
    /// Chain branch & bound warm starts across solves over the same graph
    /// (a γ sweep seeds each point with the previous incumbent, re-costed
    /// under the new γ). Off by default: a warm start can pick a different
    /// *tied* optimum, so sessions that must be bit-deterministic across
    /// execution orders (batch vs. sequential) leave it disabled. Sweep
    /// drivers that run points sequentially opt in.
    pub warm_labels: bool,
    /// Directory for a write-through on-disk labeling cache. Cacheable
    /// labelings (proven-optimal or deterministic — the same ones the
    /// in-memory cache stores) are persisted as CRC32-enveloped JSON and
    /// probed on a memory miss, so they survive process restarts. A
    /// corrupt or torn file fails checksum verification and is treated
    /// as a miss (and deleted), never served.
    pub disk_cache: Option<PathBuf>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            budget: Budget::unlimited(),
            cache_capacity: 64,
            verify_samples: None,
            warm_labels: false,
            disk_cache: None,
        }
    }
}

/// A bounded insertion-order (FIFO) artifact cache.
#[derive(Debug)]
struct ArtifactCache<T> {
    map: HashMap<ArtifactKey, T>,
    order: Vec<ArtifactKey>,
    capacity: usize,
    evicted: usize,
}

impl<T: Clone> ArtifactCache<T> {
    fn new(capacity: usize) -> Self {
        ArtifactCache {
            map: HashMap::new(),
            order: Vec::new(),
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    fn get(&self, key: ArtifactKey) -> Option<T> {
        self.map.get(&key).cloned()
    }

    fn insert(&mut self, key: ArtifactKey, value: T) {
        if self.map.insert(key, value).is_none() {
            self.order.push(key);
            if self.order.len() > self.capacity {
                let oldest = self.order.remove(0);
                self.map.remove(&oldest);
                self.evicted += 1;
            }
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

/// A cached VH-labeling outcome. Stored only when budget-independent:
/// proven optimal for its objective, or produced by a deterministic
/// heuristic strategy (see [`label_key`]).
#[derive(Debug, Clone)]
pub struct LabelArtifact {
    /// The labeling (alignment already enforced by the ladder).
    pub labeling: Labeling,
    /// Whether it was proven optimal for its objective.
    pub optimal: bool,
    /// Relative optimality gap at the original solve's termination.
    pub relative_gap: f64,
    /// The ladder rung that originally produced it.
    pub rung: Rung,
}

/// File the labeling artifact `key` persists to under the disk cache root.
fn label_path(dir: &Path, key: ArtifactKey) -> PathBuf {
    dir.join(format!("label-{key}.json"))
}

/// Serializes a [`LabelArtifact`] for the on-disk cache. Labels pack into
/// one character per node: `V`, `H`, or `B` (both).
fn label_to_json(artifact: &LabelArtifact) -> Json {
    let labels: String = artifact
        .labeling
        .labels()
        .iter()
        .map(|l| match l {
            VhLabel::V => 'V',
            VhLabel::H => 'H',
            VhLabel::Vh => 'B',
        })
        .collect();
    Json::Obj(vec![
        ("labels".into(), Json::str(labels)),
        ("optimal".into(), Json::Bool(artifact.optimal)),
        ("relative_gap".into(), Json::Num(artifact.relative_gap)),
        ("rung".into(), Json::str(artifact.rung.name())),
    ])
}

/// Inverse of [`label_to_json`]; `None` on any shape mismatch (unknown
/// label character or rung name, missing or mistyped field), which the
/// caller treats exactly like a checksum failure.
fn label_from_json(payload: &Json) -> Option<LabelArtifact> {
    let text = payload.get("labels")?.as_str()?;
    let mut labels = Vec::with_capacity(text.len());
    for c in text.chars() {
        labels.push(match c {
            'V' => VhLabel::V,
            'H' => VhLabel::H,
            'B' => VhLabel::Vh,
            _ => return None,
        });
    }
    Some(LabelArtifact {
        labeling: Labeling::new(labels),
        optimal: payload.get("optimal")?.as_bool()?,
        relative_gap: payload.get("relative_gap")?.as_f64()?,
        rung: Rung::parse(payload.get("rung")?.as_str()?)?,
    })
}

/// Mutable session state behind one lock: the bounded caches and the
/// stage tally. One coarse mutex keeps lock ordering trivial; every
/// critical section is a map probe or a counter update, never a build
/// (artifacts are computed outside the lock).
#[derive(Debug)]
struct SessionState {
    bdds: ArtifactCache<Arc<NetworkBdds>>,
    graphs: ArtifactCache<Arc<BddGraph>>,
    labels: ArtifactCache<Arc<LabelArtifact>>,
    /// Best known labeling per *graph* key, offered as a branch & bound
    /// warm start to subsequent solves over the same graph (a γ sweep
    /// re-costs it under each point's objective).
    warm_hints: ArtifactCache<Labeling>,
    /// Proven-optimal odd cycle transversals per *graph* key. The OCT is a
    /// pure, γ-independent function of the graph, so reuse never changes a
    /// result — it only skips the dominant stage of the anytime path.
    octs: ArtifactCache<Arc<OctResult>>,
    trace: StageTrace,
    disk_hits: usize,
    disk_corrupt: usize,
    /// Keys whose artifact is being built right now (single-flight): a
    /// second thread asking for the same key blocks on [`Session::build_cv`]
    /// instead of duplicating the build.
    in_flight: HashSet<ArtifactKey>,
}

/// A synthesis session: the shared context every pass runs in.
///
/// Owns the [`Budget`], the per-stage [`StageTrace`] tally, and the
/// bounded content-addressed caches. All state is behind interior
/// mutability (`&Session` suffices everywhere), so one session can be
/// shared by [`synthesize_batch`] workers and by the conformance oracles
/// without cloning artifacts.
#[derive(Debug)]
pub struct Session {
    budget: Budget,
    verify_samples: Option<usize>,
    warm_labels: bool,
    disk_cache: Option<PathBuf>,
    state: Mutex<SessionState>,
    /// Signaled whenever an in-flight build finishes (published or
    /// abandoned), waking threads blocked on the same artifact key.
    build_cv: Condvar,
}

impl Default for Session {
    fn default() -> Self {
        Session::new(SessionConfig::default())
    }
}

impl Session {
    /// Creates a session from explicit parameters.
    pub fn new(config: SessionConfig) -> Self {
        Session {
            budget: config.budget,
            verify_samples: config.verify_samples,
            warm_labels: config.warm_labels,
            disk_cache: config.disk_cache,
            state: Mutex::new(SessionState {
                bdds: ArtifactCache::new(config.cache_capacity),
                graphs: ArtifactCache::new(config.cache_capacity),
                labels: ArtifactCache::new(config.cache_capacity),
                warm_hints: ArtifactCache::new(config.cache_capacity),
                octs: ArtifactCache::new(config.cache_capacity),
                trace: StageTrace::default(),
                disk_hits: 0,
                disk_corrupt: 0,
                in_flight: HashSet::new(),
            }),
            build_cv: Condvar::new(),
        }
    }

    /// A session with the default configuration except for `budget`.
    pub fn with_budget(budget: Budget) -> Self {
        Session::new(SessionConfig {
            budget,
            ..SessionConfig::default()
        })
    }

    /// The session budget (shared by every stage).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Assignments to verify each design on, when verification is enabled.
    pub fn verify_samples(&self) -> Option<usize> {
        self.verify_samples
    }

    /// A snapshot of the stage tally so far.
    pub fn trace(&self) -> StageTrace {
        self.lock().trace.clone()
    }

    /// Aggregate cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        let state = self.lock();
        CacheStats {
            hits: state.trace.cache_hits(),
            misses: state.trace.cache_misses(),
            entries: state.bdds.len() + state.graphs.len() + state.labels.len(),
            evicted: state.bdds.evicted + state.graphs.evicted + state.labels.evicted,
            disk_hits: state.disk_hits,
            disk_corrupt: state.disk_corrupt,
        }
    }

    /// Drops every cached artifact and hint (the tally is kept).
    pub fn clear_cache(&self) {
        let mut state = self.lock();
        state.bdds.clear();
        state.graphs.clear();
        state.labels.clear();
        state.warm_hints.clear();
        state.octs.clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SessionState> {
        // A panicking stage can poison the lock while holding only
        // consistent state (probes and pushes); recover the guard.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Claims the BDD artifact `key` for single-flight construction: a
    /// cached artifact (possibly published by a sibling thread we waited
    /// out) comes back [`Claim::Ready`]; otherwise the caller owns the
    /// build and must publish via [`Session::store_bdd`] before dropping
    /// the ticket.
    pub(crate) fn claim_bdd(&self, key: ArtifactKey) -> Claim<'_, Arc<NetworkBdds>> {
        self.claim_with(key, |state| state.bdds.get(key))
    }

    /// [`Session::claim_bdd`] for graph artifacts.
    pub(crate) fn claim_graph(&self, key: ArtifactKey) -> Claim<'_, Arc<BddGraph>> {
        self.claim_with(key, |state| state.graphs.get(key))
    }

    /// [`Session::claim_bdd`] for labeling artifacts. A builder whose
    /// outcome turns out not to be cacheable (not proven optimal) simply
    /// drops the ticket unpublished; waiters then solve for themselves.
    ///
    /// With [`SessionConfig::disk_cache`] set, a memory miss probes the
    /// on-disk cache before the caller is handed the build: a checksum-
    /// verified entry is promoted into memory and returned [`Claim::Ready`]
    /// (the dropped ticket releases the single-flight claim), while a
    /// corrupt one is deleted and counted, and the build proceeds.
    pub(crate) fn claim_label(&self, key: ArtifactKey) -> Claim<'_, Arc<LabelArtifact>> {
        match self.claim_with(key, |state| state.labels.get(key)) {
            Claim::Build(ticket) => match self.load_label_from_disk(key) {
                Some(artifact) => {
                    drop(ticket);
                    Claim::Ready(artifact)
                }
                None => Claim::Build(ticket),
            },
            ready => ready,
        }
    }

    /// Reads `key`'s labeling from the on-disk cache, promoting a valid
    /// entry into the in-memory cache. Checksum or format failures delete
    /// the file and count as [`CacheStats::disk_corrupt`]; a missing file
    /// (or no disk cache configured) is a plain `None`.
    fn load_label_from_disk(&self, key: ArtifactKey) -> Option<Arc<LabelArtifact>> {
        let dir = self.disk_cache.as_ref()?;
        let path = label_path(dir, key);
        let corrupt = match flowc_report::read_json_checked(&path) {
            Ok(payload) => match label_from_json(&payload) {
                Some(artifact) => {
                    let artifact = Arc::new(artifact);
                    let mut state = self.lock();
                    state.labels.insert(key, Arc::clone(&artifact));
                    state.disk_hits += 1;
                    return Some(artifact);
                }
                // Envelope checksum passed but the payload shape didn't:
                // same remedy as a checksum failure.
                None => true,
            },
            Err(e) => e.is_corrupt(),
        };
        if corrupt {
            let _ = std::fs::remove_file(&path);
            self.lock().disk_corrupt += 1;
        }
        None
    }

    /// The best known labeling for the graph artifact `graph`, to seed a
    /// branch & bound warm start (re-costed under the caller's γ).
    pub(crate) fn warm_hint(&self, graph: ArtifactKey) -> Option<Labeling> {
        if !self.warm_labels {
            return None;
        }
        self.lock().warm_hints.get(graph)
    }

    /// Offers `labeling` as the warm hint for `graph`. Last writer wins:
    /// any valid labeling is a usable seed, and adjacent sweep points
    /// (the most recent writers) make the best ones.
    pub(crate) fn offer_warm_hint(&self, graph: ArtifactKey, labeling: Labeling) {
        if !self.warm_labels {
            return;
        }
        self.lock().warm_hints.insert(graph, labeling);
    }

    /// The cached proven-optimal odd cycle transversal for `graph`, if any.
    /// Unlike warm labels this is not gated behind an opt-in: the OCT is
    /// deterministic per graph, so a hit returns exactly what a fresh
    /// solve would compute.
    pub(crate) fn oct_hint(&self, graph: ArtifactKey) -> Option<Arc<OctResult>> {
        self.lock().octs.get(graph)
    }

    /// Publishes a proven-optimal OCT for `graph` (first writer wins —
    /// every writer would publish the same value).
    pub(crate) fn offer_oct_hint(&self, graph: ArtifactKey, oct: Arc<OctResult>) {
        let mut state = self.lock();
        if state.octs.get(graph).is_none() {
            state.octs.insert(graph, oct);
        }
    }

    fn claim_with<T>(
        &self,
        key: ArtifactKey,
        get: impl Fn(&SessionState) -> Option<T>,
    ) -> Claim<'_, T> {
        let mut state = self.lock();
        loop {
            if let Some(value) = get(&state) {
                return Claim::Ready(value);
            }
            if state.in_flight.insert(key) {
                return Claim::Build(BuildTicket { session: self, key });
            }
            // Another thread is building this artifact; wait for it to
            // publish (then hit the cache) or abandon (then claim the
            // build ourselves on the next loop iteration).
            state = self.build_cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    pub(crate) fn store_bdd(&self, key: ArtifactKey, bdds: Arc<NetworkBdds>) {
        self.lock().bdds.insert(key, bdds);
    }

    pub(crate) fn store_graph(&self, key: ArtifactKey, graph: Arc<BddGraph>) {
        self.lock().graphs.insert(key, graph);
    }

    pub(crate) fn store_label(&self, key: ArtifactKey, label: Arc<LabelArtifact>) {
        if let Some(dir) = &self.disk_cache {
            // Best-effort write-through (atomic + CRC32-enveloped): a
            // failed persist only costs future processes the disk hit.
            let _ = flowc_report::write_json_checked(&label_path(dir, key), &label_to_json(&label));
        }
        self.lock().labels.insert(key, label);
    }

    /// Counts one execution of `kind` in the stage tally.
    pub(crate) fn record(&self, kind: StageKind, wall: Duration, cache: CacheOutcome) {
        self.lock().trace.add(kind, wall, cache);
    }

    /// Counts one labeling run with its solver figures: branch & bound
    /// `nodes`, the relative `gap` it ended with, and the warm-start
    /// outcome (`None` when no warm start was offered).
    pub(crate) fn record_label(
        &self,
        wall: Duration,
        cache: CacheOutcome,
        nodes: u64,
        gap: f64,
        warm_start: Option<bool>,
    ) {
        let mut state = self.lock();
        let trace = &mut state.trace;
        trace.add(StageKind::VhLabel, wall, cache);
        trace.bnb_nodes += nodes;
        match warm_start {
            Some(true) => trace.warm_hits += 1,
            Some(false) => trace.warm_misses += 1,
            None => {}
        }
        trace.worst_gap = trace.worst_gap.max(gap);
    }
}

/// Outcome of claiming a cacheable artifact (see [`Session::claim_bdd`]).
pub(crate) enum Claim<'s, T> {
    /// The artifact is available — either it was already cached, or this
    /// thread waited out a sibling's in-flight build of the same key.
    Ready(T),
    /// This thread owns the build. Publish the artifact with the matching
    /// `store_*`, then drop the ticket; dropping without publishing
    /// (failure, panic unwind) releases the claim so a waiter can retry.
    Build(BuildTicket<'s>),
}

/// Exclusive permission to build one artifact key (single-flight lease).
pub(crate) struct BuildTicket<'s> {
    session: &'s Session,
    key: ArtifactKey,
}

impl Drop for BuildTicket<'_> {
    fn drop(&mut self) {
        let mut state = self.session.lock();
        state.in_flight.remove(&self.key);
        drop(state);
        self.session.build_cv.notify_all();
    }
}

/// Runs the full staged pipeline inside `session`: normalize → BDD build
/// (cached) → graph extraction (cached) → VH-labeling ladder → mapping →
/// optional verification. This is the engine behind
/// [`crate::pipeline::synthesize`] and
/// [`crate::supervisor::synthesize_with_budget`], which wrap it with a
/// one-shot session.
///
/// # Errors
///
/// As [`crate::pipeline::synthesize`]: an error indicates an internal bug
/// (budget and input conditions degrade instead of failing).
pub fn synthesize_in(
    session: &Session,
    network: &Network,
    config: &Config,
) -> Result<CompactResult, CompactError> {
    run_staged(session, network, config, session.budget())
}

/// [`synthesize_in`] under an explicit budget instead of the session's
/// own: solver work is bounded by `budget` while artifacts still come
/// from (and land in) the session cache. This is what a campaign wants
/// when each trial gets a fresh deadline but all trials share one BDD.
///
/// # Errors
///
/// See [`synthesize_in`].
pub fn synthesize_in_budgeted(
    session: &Session,
    network: &Network,
    config: &Config,
    budget: &Budget,
) -> Result<CompactResult, CompactError> {
    run_staged(session, network, config, budget)
}

/// The staged engine under an explicit budget (the session budget for
/// direct calls, a [`Budget::capped`] slice for batch tasks). The
/// session's cache and trace are shared either way.
fn run_staged(
    session: &Session,
    network: &Network,
    config: &Config,
    budget: &Budget,
) -> Result<CompactResult, CompactError> {
    let sw = budget.stopwatch();
    let norm = NormalizePass.run_with_budget(session, network, budget)?;
    let bdd =
        BddBuildPass.run_with_budget(session, (network, config.var_order.as_deref()), budget)?;
    let graph = GraphExtractPass.run_with_budget(session, (&bdd.bdds, bdd.key), budget)?;
    let ladder = LadderPass { config }.run_with_budget(
        session,
        (
            &*graph,
            graph_key(bdd.key),
            norm.output_names.as_slice(),
            bdd.lift_trigger,
        ),
        budget,
    )?;
    if let Some(samples) = session.verify_samples() {
        VerifyPass { samples }.run_with_budget(session, (&ladder.crossbar, network), budget)?;
    }
    Ok(ladder.into_result(&graph, bdd.wall, bdd.budget_lifted, sw.elapsed()))
}

/// One unit of work for [`synthesize_batch`].
#[derive(Debug, Clone)]
pub struct BatchTask {
    /// Display label carried into results and reports (e.g. `"γ=0.25"`).
    pub label: String,
    /// The network to synthesize. An [`Arc`] handle so many tasks over
    /// one network share it without deep clones.
    pub network: Arc<Network>,
    /// The synthesis configuration for this task.
    pub config: Config,
}

impl BatchTask {
    /// A task synthesizing `network` under `config`, labeled `label`.
    pub fn new(label: impl Into<String>, network: Arc<Network>, config: Config) -> Self {
        BatchTask {
            label: label.into(),
            network,
            config,
        }
    }
}

/// Tasks for a γ sweep of one network: `gammas.len()` weighted-strategy
/// points sharing one [`Arc<Network>`], so a session-backed batch builds
/// the BDD and extracts the graph exactly once.
///
/// Points are ordered by **descending** γ to maximize warm-start reuse:
/// γ = 1 (pure semiperimeter) closes fastest, and each point's optimum
/// seeds the next point's branch & bound incumbent through the session's
/// warm-hint registry. Consumers that want results in a particular γ
/// order should read each task's γ from its label or
/// [`BatchTask::config`] rather than assuming input order.
pub fn gamma_sweep_tasks(
    network: &Arc<Network>,
    gammas: &[f64],
    time_limit: Duration,
) -> Vec<BatchTask> {
    let mut ordered: Vec<f64> = gammas.to_vec();
    ordered.sort_by(|a, b| b.total_cmp(a));
    ordered
        .iter()
        .map(|&gamma| {
            let config = Config {
                strategy: VhStrategy::entering(Rung::ExactMip, gamma, time_limit),
                ..Config::gamma(gamma)
            };
            BatchTask::new(format!("γ={gamma:.3}"), Arc::clone(network), config)
        })
        .collect()
}

/// Runs every task through `session` under its budget, in parallel across
/// `threads` scoped threads (0 means `std::thread::available_parallelism`),
/// and returns the results **in task order** (worker scheduling cannot
/// reorder them). Artifacts are shared through the session cache, so
/// tasks that agree on network + variable order reuse one BDD and one
/// graph. Panics inside a task are isolated per task and surfaced as
/// [`CompactError::Panicked`] results, never poisoning sibling tasks.
pub fn synthesize_batch(
    session: &Session,
    tasks: &[BatchTask],
    threads: usize,
) -> Vec<Result<CompactResult, CompactError>> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    if tasks.is_empty() {
        return Vec::new();
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
    .min(tasks.len());

    // Tasks that agree on network + variable order dedupe through the
    // session's single-flight claims: the first worker to reach a key
    // builds it, siblings block on the claim and then hit the cache, so
    // the trace records one build regardless of scheduling.

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<CompactResult, CompactError>>>> =
        tasks.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks.len() {
                    break;
                }
                let task = &tasks[i];
                let run = catch_unwind(AssertUnwindSafe(|| {
                    run_staged(session, &task.network, &task.config, session.budget())
                }));
                let result = match run {
                    Ok(r) => r,
                    Err(p) => Err(CompactError::Panicked {
                        stage: "batch-task",
                        message: format!("`{}`: {}", task.label, panic_message(p)),
                    }),
                };
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every slot is filled before the scope joins")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowc_logic::{GateKind, Network};

    fn fig2_network() -> Network {
        let mut n = Network::new("fig2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.add_gate(GateKind::And, &[a, b], "ab").unwrap();
        let f = n.add_gate(GateKind::Or, &[ab, c], "f").unwrap();
        n.mark_output(f);
        n
    }

    #[test]
    fn artifact_keys_separate_stage_and_order() {
        let n = fig2_network();
        let k1 = bdd_key(&n, None);
        let k2 = bdd_key(&n, Some(&[2, 1, 0]));
        let k3 = bdd_key(&n, Some(&[0, 1, 2]));
        assert_ne!(k1, k2, "variable order is part of the key");
        assert_ne!(k2, k3);
        assert_ne!(k1, graph_key(k1), "stage tag is part of the key");
        assert_eq!(k1, bdd_key(&n, None), "keys are stable");
    }

    #[test]
    fn second_synthesis_hits_the_cache() {
        let n = fig2_network();
        let session = Session::default();
        let a = synthesize_in(&session, &n, &Config::gamma(0.3)).unwrap();
        let b = synthesize_in(&session, &n, &Config::gamma(0.7)).unwrap();
        assert_eq!(a.graph_nodes, b.graph_nodes);
        let trace = session.trace();
        assert_eq!(trace.builds(StageKind::BddBuild), 1);
        assert_eq!(trace.hits(StageKind::BddBuild), 1);
        assert_eq!(trace.builds(StageKind::GraphExtract), 1);
        assert_eq!(trace.hits(StageKind::GraphExtract), 1);
        let stats = session.cache_stats();
        // Two BDD/graph hits; misses and entries count the BDD, the graph,
        // and one cached labeling per γ (both close optimally on fig2).
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.entries, 4);

        // Re-running an identical config must serve the labeling itself
        // from the cache: no new misses, three new hits (BDD, graph, label).
        let c = synthesize_in(&session, &n, &Config::gamma(0.7)).unwrap();
        assert_eq!(c.stats.semiperimeter, b.stats.semiperimeter);
        assert!(c.degradation.as_ref().is_some_and(|d| d.label_cached));
        let stats = session.cache_stats();
        assert_eq!(stats.hits, 5);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.entries, 4);
    }

    #[test]
    fn cache_eviction_is_bounded_fifo() {
        let mut cache: ArtifactCache<usize> = ArtifactCache::new(2);
        cache.insert(ArtifactKey(1), 10);
        cache.insert(ArtifactKey(2), 20);
        cache.insert(ArtifactKey(1), 11); // update, not a new entry
        cache.insert(ArtifactKey(3), 30); // evicts key 1 (oldest inserted)
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evicted, 1);
        assert_eq!(cache.get(ArtifactKey(1)), None);
        assert_eq!(cache.get(ArtifactKey(2)), Some(20));
        assert_eq!(cache.get(ArtifactKey(3)), Some(30));
    }

    fn disk_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flowc-session-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn disk_session(dir: &Path) -> Session {
        Session::new(SessionConfig {
            disk_cache: Some(dir.to_path_buf()),
            ..SessionConfig::default()
        })
    }

    #[test]
    fn disk_cache_round_trips_labelings_across_sessions() {
        let dir = disk_dir("roundtrip");
        let n = fig2_network();

        let first = disk_session(&dir);
        let a = synthesize_in(&first, &n, &Config::gamma(0.3)).unwrap();
        let persisted = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with("label-"))
            .count();
        assert_eq!(
            persisted, 1,
            "the proven-optimal labeling is written through"
        );

        // A fresh session over the same directory stands in for a process
        // restart: the VH solve must come back from disk, not recompute.
        let second = disk_session(&dir);
        let b = synthesize_in(&second, &n, &Config::gamma(0.3)).unwrap();
        assert_eq!(a.stats.semiperimeter, b.stats.semiperimeter);
        assert!(b.degradation.as_ref().is_some_and(|d| d.label_cached));
        let stats = second.cache_stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.disk_corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_are_a_deleted_counted_miss() {
        let dir = disk_dir("corrupt");
        let key = ArtifactKey(0x7E57);
        let artifact = Arc::new(LabelArtifact {
            labeling: Labeling::new(vec![VhLabel::V, VhLabel::Vh, VhLabel::H]),
            optimal: true,
            relative_gap: 0.0,
            rung: Rung::ExactMip,
        });
        disk_session(&dir).store_label(key, Arc::clone(&artifact));
        let path = label_path(&dir, key);

        // Flip payload bytes under the envelope: the checksum catches it,
        // the entry is deleted, and the caller owns the build.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("VBH", "HBH", 1)).unwrap();
        let probe = disk_session(&dir);
        assert!(matches!(probe.claim_label(key), Claim::Build(_)));
        assert_eq!(probe.cache_stats().disk_corrupt, 1);
        assert!(!path.exists(), "the corrupt entry is deleted");

        // Re-probing the now-missing file is a plain miss, not corruption.
        assert!(matches!(probe.claim_label(key), Claim::Build(_)));
        assert_eq!(probe.cache_stats().disk_corrupt, 1);

        // A checksum-valid envelope whose payload has the wrong shape is
        // handled exactly like a checksum failure.
        flowc_report::write_json_checked(&path, &Json::str("not a labeling")).unwrap();
        assert!(matches!(probe.claim_label(key), Claim::Build(_)));
        assert_eq!(probe.cache_stats().disk_corrupt, 2);
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn label_json_round_trips_and_rejects_unknown_shapes() {
        let artifact = LabelArtifact {
            labeling: Labeling::new(vec![VhLabel::H, VhLabel::V, VhLabel::Vh]),
            optimal: false,
            relative_gap: 0.25,
            rung: Rung::HeuristicOct,
        };
        let back = label_from_json(&label_to_json(&artifact)).unwrap();
        assert_eq!(back.labeling.labels(), artifact.labeling.labels());
        assert!(!back.optimal);
        assert_eq!(back.relative_gap, 0.25);
        assert_eq!(back.rung, Rung::HeuristicOct);

        let mut bad = label_to_json(&artifact);
        if let Json::Obj(fields) = &mut bad {
            for (k, v) in fields.iter_mut() {
                if k == "rung" {
                    *v = Json::str("warp-drive");
                }
            }
        }
        assert!(
            label_from_json(&bad).is_none(),
            "unknown rung names are rejected"
        );
        assert!(label_from_json(&Json::str("nope")).is_none());
    }

    #[test]
    fn verify_samples_records_a_verify_stage() {
        let n = fig2_network();
        let session = Session::new(SessionConfig {
            verify_samples: Some(64),
            ..SessionConfig::default()
        });
        synthesize_in(&session, &n, &Config::default()).unwrap();
        let trace = session.trace();
        assert_eq!(trace.runs(StageKind::Verify), 1);
        assert_eq!(trace.builds(StageKind::Verify), 1, "verify is never cached");
    }

    #[test]
    fn verify_pass_reports_a_mismatch_with_its_counts() {
        let session = Session::default();
        let fig2 = synthesize_in(&session, &fig2_network(), &Config::default()).unwrap();
        // (a + b)·c: same ports as fig2's a·b + c, a different function.
        let mut other = Network::new("other");
        let a = other.add_input("a");
        let b = other.add_input("b");
        let c = other.add_input("c");
        let ab = other.add_gate(GateKind::Or, &[a, b], "ab").unwrap();
        let f = other.add_gate(GateKind::And, &[ab, c], "f").unwrap();
        other.mark_output(f);
        let expected = flowc_xbar::verify::verify_functional(&fig2.crossbar, &other, 64).unwrap();
        assert!(!expected.is_valid());
        let err = VerifyPass { samples: 64 }
            .run(&session, (&fig2.crossbar, &other))
            .unwrap_err();
        assert_eq!(
            err,
            CompactError::Mismatch {
                mismatches: expected.mismatches.len(),
                checked: 8,
            }
        );
    }

    #[test]
    fn an_invalid_network_is_refused_as_invalid_network() {
        let mut wider = Network::new("wider");
        let dangling = (0..4).map(|i| wider.add_input(format!("x{i}"))).last();
        let mut bad = Network::new("bad");
        bad.add_input("a");
        // A dangling output id is the one invalid state the public
        // constructors let through, and only in release builds: debug
        // builds refuse it in `mark_output` already.
        let marked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bad.mark_output(dangling.unwrap())
        }));
        if cfg!(debug_assertions) {
            assert!(marked.is_err());
            return;
        }
        let err = synthesize_in(&Session::default(), &bad, &Config::default()).unwrap_err();
        assert_eq!(
            err,
            CompactError::InvalidNetwork(flowc_logic::LogicError::UnknownNet(3))
        );
    }
}
