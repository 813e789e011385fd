//! Real-time (streaming) cluster identification (§4).
//!
//! "The real-time client clustering information ... gives the service
//! provider a global view of where their customers are located and how
//! their demands change from time to time." [`StreamingClustering`]
//! consumes requests one at a time, maintains per-cluster aggregates
//! incrementally, and supports swapping in a fresh routing table
//! ([`StreamingClustering::try_swap`]) so the view adapts to routing
//! dynamics without replaying the past — the paper's "real-time cluster
//! identifying ... using real-time routing information".
//!
//! Table swaps are *validated*: BGP snapshots are scraped from noisy
//! sources and churn day to day (§3.4), so a candidate table is
//! sanity-checked (non-empty, parse noise under budget, coverage of the
//! currently-known clients not collapsing) and compiled off to the side
//! before it replaces the serving table. A rejected candidate leaves the
//! old table serving — degraded but correct — with the rejection and the
//! stale-table age recorded in [`SwapStats`].
//!
//! Between full swaps, live BGP churn lands **incrementally**:
//! [`StreamingClustering::apply_deltas`] patches a candidate off to the
//! side (`CompiledMerged::apply_delta`), re-resolves only the clients a
//! batch can affect, and installs the patched table as the serving one.
//! The candidate is the previous generation, kept as a spare and caught
//! up by replaying the one batch it missed, so a patch batch costs
//! O(batch) instead of a full clone of the serving table. The same
//! [`SwapPolicy`] entry/coverage gates are evaluated per patch batch, so a
//! desynchronized feed degrades the stream no further than a bad snapshot
//! would.
//!
//! The stream owns its serving table outright and does no synchronization
//! of its own: a concurrent server wraps it in a `RwLock`, so a reader
//! sees the table either before or after a whole batch, never a torn mix.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::net::Ipv4Addr;

use netclust_obs::{Counter, ErrorCounts, Gauge, Histogram, Obs};
use netclust_prefix::Ipv4Net;
use netclust_rtable::{
    CompiledMerged, DeltaKind, MergedTable, PatchReport, RoutingTable, TableDelta, TableKind,
};
use netclust_weblog::clf::ClfError;
use netclust_weblog::clf_bytes;
use netclust_weblog::Request;

use crate::faults::{failpoints, FaultInjector};
use crate::persist::{CorrectionState, FeedProgress, StreamState};

/// Resolved swap/patch-path observability handles (`stream.swap.*`,
/// `stream.patch.*`); inert when the stream was built
/// without [`StreamingBuilder::obs`].
#[derive(Debug, Clone, Default)]
struct StreamObs {
    attempts: Counter,
    accepted: Counter,
    rejected: Counter,
    stale_age: Gauge,
    patch_batches: Counter,
    patch_rejected: Counter,
    patch_slot_writes: Counter,
    patch_group_rebuilds: Counter,
    patch_recompiles: Counter,
    patch_batch_deltas: Histogram,
}

impl StreamObs {
    fn resolve(obs: &Obs) -> Self {
        StreamObs {
            attempts: obs.counter("stream.swap.attempts"),
            accepted: obs.counter("stream.swap.accepted"),
            rejected: obs.counter("stream.swap.rejected"),
            stale_age: obs.gauge("stream.swap.stale_age"),
            patch_batches: obs.counter("stream.patch.batches"),
            patch_rejected: obs.counter("stream.patch.rejected"),
            patch_slot_writes: obs.counter("stream.patch.slot_writes"),
            patch_group_rebuilds: obs.counter("stream.patch.group_rebuilds"),
            patch_recompiles: obs.counter("stream.patch.recompiles"),
            patch_batch_deltas: obs.histogram("stream.patch.batch_deltas"),
        }
    }
}

/// One generation of the serving table, tagged with its patch-lineage
/// version (bumped by every accepted patch batch or full swap).
#[derive(Clone)]
struct LiveTable {
    table: CompiledMerged,
    version: u64,
}

/// Incremental per-cluster aggregates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Distinct clients seen.
    pub clients: u64,
    /// Requests seen.
    pub requests: u64,
    /// Bytes served.
    pub bytes: u64,
}

/// Thresholds a candidate routing table must clear before it replaces the
/// serving one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapPolicy {
    /// Minimum prefix count across both tiers (an empty or near-empty
    /// snapshot is a scrape failure, not a routing change).
    pub min_entries: usize,
    /// Maximum tolerated parse-noise ratio of the candidate's source dump
    /// (see `netclust_rtable::ParseReport::noise_ratio`).
    pub max_noise_ratio: f64,
    /// The candidate's request-weighted coverage of the currently-known
    /// clients must be at least this fraction of the serving table's
    /// coverage (1.0 = no regression allowed, 0.0 = never reject).
    pub min_coverage_retention: f64,
}

impl Default for SwapPolicy {
    fn default() -> Self {
        SwapPolicy {
            min_entries: 1,
            max_noise_ratio: 0.05,
            min_coverage_retention: 0.8,
        }
    }
}

impl SwapPolicy {
    /// A policy that accepts any compilable candidate (the legacy
    /// unconditional swap).
    pub fn permissive() -> Self {
        SwapPolicy {
            min_entries: 0,
            max_noise_ratio: 1.0,
            min_coverage_retention: 0.0,
        }
    }
}

/// Why a candidate table was turned away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwapRejection {
    /// The candidate had fewer prefixes than the policy floor.
    TooFewEntries {
        /// Prefixes in the candidate.
        entries: usize,
        /// The policy's minimum.
        floor: usize,
    },
    /// The candidate's source dump was noisier than the budget allows.
    NoiseOverBudget {
        /// Observed malformed-line ratio.
        ratio: f64,
        /// The policy's budget.
        budget: f64,
    },
    /// Compiling the candidate failed (injected fault or real).
    CompileFault,
    /// Patching the candidate generation failed mid-apply (injected fault
    /// or real); the half-patched generation was discarded and the old one
    /// keeps serving.
    PatchFault,
    /// The candidate would drop coverage of the known clients too far.
    CoverageCollapse {
        /// Serving table's request-weighted coverage.
        before: f64,
        /// Candidate's request-weighted coverage.
        after: f64,
        /// Minimum acceptable `after` given the policy.
        floor: f64,
    },
}

/// Outcome of one [`StreamingClustering::try_swap`] attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapReport {
    /// Whether the candidate was installed.
    pub accepted: bool,
    /// The reason it was not (when `accepted` is false).
    pub rejection: Option<SwapRejection>,
    /// Prefix count of the candidate.
    pub candidate_entries: usize,
    /// Request-weighted coverage before the attempt.
    pub coverage_before: f64,
    /// Coverage after the attempt (the candidate's when accepted, the
    /// serving table's when rejected).
    pub coverage_after: f64,
}

/// Cumulative swap accounting, including the degraded-mode age counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Candidates installed.
    pub accepted: u64,
    /// Candidates rejected.
    pub rejected: u64,
    /// Rejections since the serving table was last replaced — how many
    /// refresh cycles stale the serving table is (0 = fresh). Non-zero
    /// means the stream is serving in degraded mode on an old table.
    pub stale_age: u64,
}

/// Outcome of one [`StreamingClustering::apply_deltas`] batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatchBatchReport {
    /// Whether the patched generation was published.
    pub accepted: bool,
    /// Why it was not (when `accepted` is false).
    pub rejection: Option<SwapRejection>,
    /// The table-layer patch accounting (slot writes, group rebuilds,
    /// recompile fallback). Populated even on rejection — the patch is
    /// applied off to the side before the gates run.
    pub patch: PatchReport,
    /// Live prefix count of the candidate generation (both tiers).
    pub candidate_entries: usize,
    /// Clients whose cluster assignment the batch changed (0 on rejection).
    pub reassigned_clients: usize,
    /// Request-weighted coverage before the batch.
    pub coverage_before: f64,
    /// Coverage after (the candidate's when accepted, the serving table's
    /// when rejected).
    pub coverage_after: f64,
}

/// Cumulative [`apply_deltas`](StreamingClustering::apply_deltas)
/// accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Batches attempted.
    pub batches: u64,
    /// Batches published.
    pub accepted: u64,
    /// Batches rejected (gates or injected faults).
    pub rejected: u64,
    /// Direct slot writes across accepted and rejected batches.
    pub slot_writes: u64,
    /// Scoped overflow-group rebuilds.
    pub group_rebuilds: u64,
    /// Full-recompile fallbacks.
    pub recompiles: u64,
}

/// Consuming builder for [`StreamingClustering`], mirroring
/// [`IngestPipeline`](crate::IngestPipeline)'s `chunk_bytes(..)`-style
/// configuration surface: chain options, then [`build`](Self::build).
///
/// ```
/// # use netclust_core::{StreamingClustering, SwapPolicy};
/// # use netclust_netgen::{standard_merged, Universe, UniverseConfig};
/// # let u = Universe::generate(UniverseConfig::small(7));
/// let stream = StreamingClustering::builder(standard_merged(&u, 0))
///     .swap_policy(SwapPolicy::default())
///     .build();
/// # assert!(stream.is_empty());
/// ```
pub struct StreamingBuilder {
    table: MergedTable,
    policy: SwapPolicy,
    obs: Obs,
}

impl StreamingBuilder {
    /// Sets the validation thresholds every [`try_swap`]
    /// (`StreamingClustering::try_swap`) attempt is checked against
    /// (default: [`SwapPolicy::default`]).
    ///
    /// [`try_swap`]: StreamingClustering::try_swap
    pub fn swap_policy(mut self, policy: SwapPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches an observability registry: LPM lookup/miss counters on the
    /// compiled table (`lpm.*`) and swap accounting (`stream.swap.*`).
    /// Costs nothing when `obs` is disabled.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Compiles the table to the flat DIR-24-8 layout and builds the
    /// (empty) streaming clustering.
    pub fn build(self) -> StreamingClustering {
        let mut compiled = self.table.compile();
        compiled.attach_obs(&self.obs);
        let metrics = StreamObs::resolve(&self.obs);
        StreamingClustering {
            live: LiveTable {
                table: compiled,
                version: 0,
            },
            spare: None,
            last_batch: Vec::new(),
            clusters: HashMap::new(),
            per_client: HashMap::new(),
            assignment: HashMap::new(),
            unclustered_requests: 0,
            total_requests: 0,
            clf_counts: ErrorCounts::default(),
            swap_stats: SwapStats::default(),
            patch_stats: PatchStats::default(),
            last_rejection: None,
            correction: None,
            policy: self.policy,
            obs: self.obs,
            metrics,
        }
    }
}

/// A recovered [`StreamState`] decoded cleanly but its integrity
/// invariants do not hold: a stored total disagrees with the value
/// recomputed from the per-client rows, so the snapshot was written by a
/// buggy or hostile producer and must not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreError {
    /// Which invariant failed.
    pub what: &'static str,
    /// The value the snapshot claims.
    pub stored: u64,
    /// The value recomputed from the snapshot's own rows.
    pub recomputed: u64,
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "restored state mismatch: {} stored {} but recomputed {}",
            self.what, self.stored, self.recomputed
        )
    }
}

impl std::error::Error for RestoreError {}

/// An incrementally-maintained clustering over a request stream.
///
/// The routing table is compiled once at construction to the flat DIR-24-8
/// layout ([`CompiledMerged`]), so the per-request hot path does O(1)–O(2)
/// array lookups; [`try_swap`](Self::try_swap) validates and recompiles,
/// and [`apply_deltas`](Self::apply_deltas) patches incrementally.
///
/// Construct with [`builder`](Self::builder):
/// `StreamingClustering::builder(table).swap_policy(..).obs(..).build()`.
pub struct StreamingClustering {
    /// The table that serves every lookup.
    live: LiveTable,
    /// The previous generation (`live.version - 1`), recycled as the next
    /// patch candidate so a batch does not clone `live`. `None` after a
    /// rejected batch, a full swap, or a restore.
    spare: Option<LiveTable>,
    /// The batch that moved `spare` to `live`; replayed into `spare` to
    /// catch it up.
    last_batch: Vec<TableDelta>,
    /// Per-cluster aggregates.
    clusters: HashMap<Ipv4Net, StreamStats>,
    /// Per-client totals (kept so a table swap can rebuild assignments
    /// without replaying the stream).
    per_client: HashMap<u32, (u64, u64)>,
    /// Memoized client → prefix assignment under the current table.
    assignment: HashMap<u32, Option<Ipv4Net>>,
    /// Requests from unclusterable clients.
    unclustered_requests: u64,
    total_requests: u64,
    /// Raw-CLF ingest accounting: lines consumed by
    /// [`push_clf`](Self::push_clf) vs lines quarantined as malformed.
    clf_counts: ErrorCounts,
    /// Swap acceptance/rejection accounting.
    swap_stats: SwapStats,
    /// Patch-batch accounting.
    patch_stats: PatchStats,
    /// The most recent rejection, for operators polling stats.
    last_rejection: Option<SwapRejection>,
    /// Durable residue of the last self-correction pass, carried so
    /// snapshots preserve it across restarts.
    correction: Option<CorrectionState>,
    /// Thresholds applied by [`try_swap`](Self::try_swap).
    policy: SwapPolicy,
    /// Registry swapped-in tables resolve their LPM counters against.
    obs: Obs,
    /// Resolved swap-path counters/gauge.
    metrics: StreamObs,
}

impl StreamingClustering {
    /// Starts building a streaming clustering over `table`; finish with
    /// [`StreamingBuilder::build`].
    pub fn builder(table: MergedTable) -> StreamingBuilder {
        StreamingBuilder {
            table,
            policy: SwapPolicy::default(),
            obs: Obs::disabled(),
        }
    }

    /// Feeds one request.
    pub fn push(&mut self, request: &Request) {
        self.push_raw(request.client, request.bytes as u64);
    }

    /// Feeds a buffer of raw Common Log Format bytes through the
    /// zero-copy parser — no `Log` is built and nothing is interned.
    /// Malformed lines are skipped and returned (line numbers are
    /// 0-based within `data`, matching the batch parsers).
    pub fn push_clf(&mut self, data: &[u8]) -> Vec<ClfError> {
        let mut errors = Vec::new();
        let mut lines = 0u64;
        for item in clf_bytes::records(data, 0) {
            lines += 1;
            match item {
                Ok((_, r)) => self.push_raw(r.addr, r.bytes as u64),
                Err(e) => errors.push(e),
            }
        }
        self.clf_counts
            .merge(ErrorCounts::new(lines, errors.len() as u64));
        errors
    }

    /// Cumulative [`push_clf`](Self::push_clf) accounting: every raw line
    /// consumed vs the lines quarantined as malformed. Quarantined lines
    /// never become requests, so they are reported here and excluded from
    /// [`coverage`](Self::coverage)'s denominator.
    pub fn clf_counts(&self) -> ErrorCounts {
        self.clf_counts
    }

    fn push_raw(&mut self, client: u32, bytes: u64) {
        self.total_requests += 1;
        let entry = self.per_client.entry(client).or_insert((0, 0));
        let is_new_client = entry.0 == 0;
        entry.0 += 1;
        entry.1 += bytes;
        let prefix = *self
            .assignment
            .entry(client)
            .or_insert_with(|| self.live.table.net_for_u32(client));
        match prefix {
            Some(net) => {
                let stats = self.clusters.entry(net).or_default();
                if is_new_client {
                    stats.clients += 1;
                }
                stats.requests += 1;
                stats.bytes += bytes;
            }
            None => self.unclustered_requests += 1,
        }
    }

    /// Number of clusters with at least one request.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// `true` before any clustered request arrives.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Total requests consumed.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Aggregates for one cluster prefix.
    pub fn stats(&self, prefix: Ipv4Net) -> Option<StreamStats> {
        self.clusters.get(&prefix).copied()
    }

    /// The cluster a client currently maps to.
    pub fn cluster_of(&self, addr: Ipv4Addr) -> Option<Ipv4Net> {
        self.assignment.get(&u32::from(addr)).copied().flatten()
    }

    /// The cluster `addr` maps to under the serving table, whether or not
    /// the client has been seen: a seen client answers from its memoized
    /// assignment (kept consistent across swaps and patches), an unseen
    /// address is resolved by a longest-prefix match against the current
    /// generation. This is the daemon's `/v1/cluster` primitive.
    pub fn lookup_net(&self, addr: Ipv4Addr) -> Option<Ipv4Net> {
        let client = u32::from(addr);
        match self.assignment.get(&client) {
            Some(&memo) => memo,
            None => self.live.table.net_for_u32(client),
        }
    }

    /// Cumulative `(requests, bytes)` for one client address, `None` when
    /// the address has never been seen.
    pub fn client_totals(&self, addr: Ipv4Addr) -> Option<(u64, u64)> {
        self.per_client.get(&u32::from(addr)).copied()
    }

    /// Distinct client addresses seen.
    pub fn client_count(&self) -> usize {
        self.per_client.len()
    }

    /// Requests from clients that matched no table entry at the time they
    /// arrived.
    pub fn unclustered_requests(&self) -> u64 {
        self.unclustered_requests
    }

    #[cfg(test)]
    pub(crate) fn push_raw_for_tests(&mut self, client: u32, bytes: u64) {
        self.push_raw(client, bytes);
    }

    /// Fraction of *parsed* requests that were clusterable. Lines
    /// quarantined by [`push_clf`](Self::push_clf) never became requests
    /// and are excluded from the denominator — they are accounted in
    /// [`clf_counts`](Self::clf_counts), not as clustered misses — so log
    /// corruption cannot dilute coverage.
    pub fn coverage(&self) -> f64 {
        if self.total_requests == 0 {
            0.0
        } else {
            1.0 - self.unclustered_requests as f64 / self.total_requests as f64
        }
    }

    /// The current top-`k` clusters by request count (ties broken by
    /// prefix for determinism).
    pub fn top_k(&self, k: usize) -> Vec<(Ipv4Net, StreamStats)> {
        // analyze:allow(determinism) collected then sorted with a prefix
        // tie-break below.
        let mut v: Vec<(Ipv4Net, StreamStats)> =
            self.clusters.iter().map(|(&p, &s)| (p, s)).collect();
        v.sort_by(|a, b| b.1.requests.cmp(&a.1.requests).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Swap accounting: accepted/rejected counts and the stale-table age.
    pub fn swap_stats(&self) -> SwapStats {
        self.swap_stats
    }

    /// Patch-batch accounting: batches, acceptance, and the table-layer
    /// write mix.
    pub fn patch_stats(&self) -> PatchStats {
        self.patch_stats
    }

    /// Patch-lineage version of the serving generation (bumps on every
    /// accepted patch batch or full swap).
    pub fn table_version(&self) -> u64 {
        self.live.version
    }

    /// The most recent swap rejection, if any.
    pub fn last_rejection(&self) -> Option<SwapRejection> {
        self.last_rejection
    }

    /// Validated two-phase table swap: the candidate is sanity-checked and
    /// compiled *off to the side*; only a candidate that parses cleanly
    /// enough, compiles, and keeps covering the clients the stream has
    /// already seen replaces the serving table. On rejection the old table
    /// keeps serving untouched and the stale-age counter grows.
    ///
    /// `noise` is the candidate's source parse-noise accounting
    /// ([`ErrorCounts::default`] for programmatically built tables; see
    /// `netclust_rtable::ParseReport::counts`). The thresholds come from
    /// the policy configured at build time
    /// ([`StreamingBuilder::swap_policy`]).
    pub fn try_swap(&mut self, table: MergedTable, noise: ErrorCounts) -> SwapReport {
        self.try_swap_with(table, noise, &mut FaultInjector::disabled())
    }

    /// [`try_swap`](Self::try_swap) with a fault injector: the
    /// [`failpoints::SWAP_COMPILE`] failpoint simulates the candidate
    /// compile dying, which must be survivable like any other rejection.
    pub fn try_swap_with(
        &mut self,
        table: MergedTable,
        noise: ErrorCounts,
        faults: &mut FaultInjector,
    ) -> SwapReport {
        let policy = self.policy;
        self.try_swap_inner(table, noise.ratio(), &policy, faults)
    }

    /// Applies one batch of per-prefix routing deltas incrementally: a
    /// candidate table (the recycled spare caught up by replaying the last
    /// batch, or a clone of the serving table when there is no spare) is
    /// patched in place (`CompiledMerged::apply_delta`), only the clients
    /// the batch can affect are re-resolved, and the [`SwapPolicy`]
    /// entry/coverage gates run before the candidate replaces the serving
    /// table. Rejection discards the candidate; the old table keeps
    /// serving.
    pub fn apply_deltas(&mut self, deltas: &[TableDelta]) -> PatchBatchReport {
        self.apply_deltas_with(deltas, &mut FaultInjector::disabled())
    }

    /// [`apply_deltas`](Self::apply_deltas) with a fault injector: the
    /// [`failpoints::TABLE_PATCH`] failpoint simulates the in-place patch
    /// dying mid-apply, which must discard the candidate and leave the old
    /// generation intact.
    pub fn apply_deltas_with(
        &mut self,
        deltas: &[TableDelta],
        faults: &mut FaultInjector,
    ) -> PatchBatchReport {
        let _span = self.obs.span("stream.patch");
        let coverage_before = self.coverage();
        if deltas.is_empty() {
            return PatchBatchReport {
                accepted: true,
                rejection: None,
                patch: PatchReport::default(),
                candidate_entries: self.live.table.bgp().len() + self.live.table.dump().len(),
                reassigned_clients: 0,
                coverage_before,
                coverage_after: coverage_before,
            };
        }
        self.patch_stats.batches += 1;
        self.metrics.patch_batches.inc();
        self.metrics.patch_batch_deltas.record(deltas.len() as u64);

        // Build the candidate off to the side: recycle the spare, one batch
        // behind the serving table, otherwise clone the serving table.
        let mut candidate = match self.spare.take() {
            Some(mut spare) => {
                spare.table.apply_delta(&self.last_batch);
                spare
            }
            None => self.live.clone(),
        };
        let patch = candidate.table.apply_delta(deltas);
        self.patch_stats.slot_writes += patch.slot_writes() as u64;
        self.patch_stats.group_rebuilds += patch.groups_rebuilt as u64;
        if patch.recompiled {
            self.patch_stats.recompiles += 1;
            self.metrics.patch_recompiles.inc();
        }
        self.metrics
            .patch_slot_writes
            .add(patch.slot_writes() as u64);
        self.metrics
            .patch_group_rebuilds
            .add(patch.groups_rebuilt as u64);

        let candidate_entries = candidate.table.bgp().len() + candidate.table.dump().len();
        let reject = |this: &mut Self, why: SwapRejection| {
            this.patch_stats.rejected += 1;
            this.last_rejection = Some(why);
            this.metrics.patch_rejected.inc();
            PatchBatchReport {
                accepted: false,
                rejection: Some(why),
                patch,
                candidate_entries,
                reassigned_clients: 0,
                coverage_before,
                coverage_after: coverage_before,
            }
        };

        // An injected (or real) mid-patch death: the half-patched candidate
        // is dropped on the floor; the serving table was never touched.
        if faults.should_fire(failpoints::TABLE_PATCH) {
            return reject(self, SwapRejection::PatchFault);
        }
        if candidate_entries < self.policy.min_entries {
            return reject(
                self,
                SwapRejection::TooFewEntries {
                    entries: candidate_entries,
                    floor: self.policy.min_entries,
                },
            );
        }

        // Re-resolve only the clients the batch can affect: those assigned
        // to a withdrawn/replaced prefix and those an announced prefix
        // covers (a longer match may capture them). Everyone else keeps
        // their assignment — that containment argument is what makes a
        // patch batch O(affected) instead of O(clients).
        let withdrawn: BTreeSet<Ipv4Net> = deltas
            .iter()
            .filter(|d| d.kind == DeltaKind::Withdraw)
            .map(|d| d.prefix)
            .collect();
        let announced: Vec<Ipv4Net> = deltas
            .iter()
            .filter(|d| d.kind == DeltaKind::Announce)
            .map(|d| d.prefix)
            .collect();
        // analyze:allow(determinism) moves feed commutative per-cluster
        // sums and a coverage ratio; iteration order cannot reach any
        // output.
        let mut moves: Vec<(u32, Option<Ipv4Net>, Option<Ipv4Net>)> = Vec::new();
        let mut unclustered_delta = 0i64;
        for (&client, &old_net) in &self.assignment {
            let hit = old_net.is_some_and(|n| withdrawn.contains(&n))
                || announced.iter().any(|p| p.contains_u32(client));
            if !hit {
                continue;
            }
            let new_net = candidate.table.net_for_u32(client);
            if new_net == old_net {
                continue;
            }
            let requests = self.per_client.get(&client).map_or(0, |&(r, _)| r);
            if old_net.is_none() {
                unclustered_delta -= requests as i64;
            }
            if new_net.is_none() {
                unclustered_delta += requests as i64;
            }
            moves.push((client, old_net, new_net));
        }
        let coverage_after = if self.total_requests == 0 {
            0.0
        } else {
            let unclustered = (self.unclustered_requests as i64 + unclustered_delta).max(0);
            1.0 - unclustered as f64 / self.total_requests as f64
        };
        if self.total_requests > 0 {
            let floor = coverage_before * self.policy.min_coverage_retention;
            if coverage_after < floor {
                return reject(
                    self,
                    SwapRejection::CoverageCollapse {
                        before: coverage_before,
                        after: coverage_after,
                        floor,
                    },
                );
            }
        }

        // Commit: install the candidate, keep the old table as the spare the
        // next batch recycles, and move the affected clients' aggregates
        // between clusters.
        candidate.version = self.live.version + 1;
        self.spare = Some(std::mem::replace(&mut self.live, candidate));
        self.last_batch.clear();
        self.last_batch.extend_from_slice(deltas);
        let reassigned_clients = moves.len();
        for (client, old_net, new_net) in moves {
            let (requests, bytes) = self.per_client.get(&client).copied().unwrap_or((0, 0));
            self.assignment.insert(client, new_net);
            match old_net {
                Some(net) => {
                    if let Some(stats) = self.clusters.get_mut(&net) {
                        stats.clients = stats.clients.saturating_sub(1);
                        stats.requests = stats.requests.saturating_sub(requests);
                        stats.bytes = stats.bytes.saturating_sub(bytes);
                        if stats.clients == 0 {
                            self.clusters.remove(&net);
                        }
                    }
                }
                None => self.unclustered_requests -= requests,
            }
            match new_net {
                Some(net) => {
                    let stats = self.clusters.entry(net).or_default();
                    stats.clients += 1;
                    stats.requests += requests;
                    stats.bytes += bytes;
                }
                None => self.unclustered_requests += requests,
            }
        }
        self.patch_stats.accepted += 1;
        self.last_rejection = None;
        PatchBatchReport {
            accepted: true,
            rejection: None,
            patch,
            candidate_entries,
            reassigned_clients,
            coverage_before,
            coverage_after: self.coverage(),
        }
    }

    fn try_swap_inner(
        &mut self,
        table: MergedTable,
        noise_ratio: f64,
        policy: &SwapPolicy,
        faults: &mut FaultInjector,
    ) -> SwapReport {
        self.metrics.attempts.inc();
        let candidate_entries = table.len();
        let coverage_before = self.coverage();
        let reject = |this: &mut Self, why: SwapRejection| {
            this.swap_stats.rejected += 1;
            this.swap_stats.stale_age += 1;
            this.last_rejection = Some(why);
            this.metrics.rejected.inc();
            this.metrics.stale_age.set(this.swap_stats.stale_age);
            SwapReport {
                accepted: false,
                rejection: Some(why),
                candidate_entries,
                coverage_before,
                coverage_after: coverage_before,
            }
        };

        if candidate_entries < policy.min_entries {
            return reject(
                self,
                SwapRejection::TooFewEntries {
                    entries: candidate_entries,
                    floor: policy.min_entries,
                },
            );
        }
        if noise_ratio > policy.max_noise_ratio {
            return reject(
                self,
                SwapRejection::NoiseOverBudget {
                    ratio: noise_ratio,
                    budget: policy.max_noise_ratio,
                },
            );
        }
        // Compile off to the side; the serving table stays untouched, so
        // an injected (or real) compile failure degrades, never corrupts.
        if faults.should_fire(failpoints::SWAP_COMPILE) {
            return reject(self, SwapRejection::CompileFault);
        }
        let mut compiled = table.compile();
        compiled.attach_obs(&self.obs);

        // Re-resolve every known client against the candidate and check
        // request-weighted coverage retention before committing.
        // analyze:allow(determinism) feeds a commutative sum and install()'s
        // commutative aggregation; order cannot reach any output.
        let clients: Vec<u32> = self.per_client.keys().copied().collect();
        let nets = compiled.net_for_batch(&clients);
        if self.total_requests > 0 {
            let clustered: u64 = clients
                .iter()
                .zip(&nets)
                .filter(|(_, net)| net.is_some())
                .map(|(c, _)| self.per_client[c].0)
                .sum();
            let coverage_after = clustered as f64 / self.total_requests as f64;
            let floor = coverage_before * policy.min_coverage_retention;
            if coverage_after < floor {
                return reject(
                    self,
                    SwapRejection::CoverageCollapse {
                        before: coverage_before,
                        after: coverage_after,
                        floor,
                    },
                );
            }
        }

        self.install(compiled, clients, nets);
        self.swap_stats.accepted += 1;
        self.swap_stats.stale_age = 0;
        self.last_rejection = None;
        self.metrics.accepted.inc();
        self.metrics.stale_age.set(0);
        SwapReport {
            accepted: true,
            rejection: None,
            candidate_entries,
            coverage_before,
            coverage_after: self.coverage(),
        }
    }

    /// Records the durable residue of a self-correction pass so snapshots
    /// ([`export_state`](Self::export_state)) preserve it across restarts.
    pub fn set_correction(&mut self, correction: CorrectionState) {
        self.correction = Some(correction);
    }

    /// The recorded self-correction residue, if a pass has run.
    pub fn correction(&self) -> Option<&CorrectionState> {
        self.correction.as_ref()
    }

    /// Exports everything the durability layer persists: the serving
    /// table's live prefix sets, the retained per-client totals, and every
    /// cumulative counter. `feed_pos` and `feed` are left zeroed for the
    /// feed driver to fill in. [`restore`](Self::restore) is the inverse.
    pub fn export_state(&self) -> StreamState {
        let bgp_prefixes = self.live.table.bgp().live_prefixes();
        let dump_prefixes = self.live.table.dump().live_prefixes();
        // analyze:allow(determinism) collected then sorted by client below.
        let mut per_client: Vec<(u32, u64, u64)> = self
            .per_client
            .iter()
            .map(|(&client, &(requests, bytes))| (client, requests, bytes))
            .collect();
        per_client.sort_unstable_by_key(|&(client, _, _)| client);
        StreamState {
            table_version: self.live.version,
            feed_pos: 0,
            bgp_prefixes,
            dump_prefixes,
            per_client,
            total_requests: self.total_requests,
            unclustered_requests: self.unclustered_requests,
            clf_counts: self.clf_counts,
            swap_stats: self.swap_stats,
            patch_stats: self.patch_stats,
            last_rejection: self.last_rejection,
            correction: self.correction.clone(),
            feed: FeedProgress::default(),
        }
    }

    /// Rebuilds a stream from a persisted [`StreamState`]: recompiles the
    /// two routing tiers from their live prefix sets (bit-identical to the
    /// compile the snapshot's table came from, since `live_prefixes` is
    /// canonical), re-resolves every retained client with one batch LPM
    /// sweep, and cross-checks the snapshot's stored totals against the
    /// recomputed ones — a disagreement means a corrupt-but-checksummed
    /// snapshot and is a typed [`RestoreError`], never a panic.
    ///
    /// The journal's delta batches are *not* applied here; replay them
    /// through [`apply_deltas`](Self::apply_deltas) afterwards, which also
    /// reproduces the patch accounting the crashed process accumulated
    /// after its last snapshot.
    pub fn restore(
        state: &StreamState,
        policy: SwapPolicy,
        obs: Obs,
    ) -> Result<Self, RestoreError> {
        let bgp = RoutingTable::new(
            "recovered-bgp",
            "recovered",
            TableKind::Bgp,
            state.bgp_prefixes.clone(),
        );
        let dump = RoutingTable::new(
            "recovered-dump",
            "recovered",
            TableKind::NetworkDump,
            state.dump_prefixes.clone(),
        );
        let mut compiled = MergedTable::merge([&bgp, &dump]).compile();
        compiled.attach_obs(&obs);
        let metrics = StreamObs::resolve(&obs);

        // One batch LPM sweep re-derives the assignments and cluster
        // aggregates — the same cost as `install()` pays on a table swap.
        // analyze:allow(determinism) `state.per_client` is the snapshot's sorted Vec of rows, not a map.
        let clients: Vec<u32> = state.per_client.iter().map(|&(c, _, _)| c).collect();
        let nets = compiled.net_for_batch(&clients);
        let mut clusters: HashMap<Ipv4Net, StreamStats> = HashMap::new();
        let mut per_client = HashMap::with_capacity(state.per_client.len());
        let mut assignment = HashMap::with_capacity(state.per_client.len());
        let mut total_requests = 0u64;
        let mut unclustered_requests = 0u64;
        // analyze:allow(determinism) `state.per_client` is the snapshot's sorted Vec of rows, not a map.
        for (&(client, requests, bytes), &net) in state.per_client.iter().zip(&nets) {
            total_requests += requests;
            per_client.insert(client, (requests, bytes));
            assignment.insert(client, net);
            match net {
                Some(prefix) => {
                    let stats = clusters.entry(prefix).or_default();
                    stats.clients += 1;
                    stats.requests += requests;
                    stats.bytes += bytes;
                }
                None => unclustered_requests += requests,
            }
        }
        if total_requests != state.total_requests {
            return Err(RestoreError {
                what: "total_requests",
                stored: state.total_requests,
                recomputed: total_requests,
            });
        }
        if unclustered_requests != state.unclustered_requests {
            return Err(RestoreError {
                what: "unclustered_requests",
                stored: state.unclustered_requests,
                recomputed: unclustered_requests,
            });
        }

        Ok(StreamingClustering {
            live: LiveTable {
                table: compiled,
                version: state.table_version,
            },
            spare: None,
            last_batch: Vec::new(),
            clusters,
            per_client,
            assignment,
            unclustered_requests,
            total_requests,
            clf_counts: state.clf_counts,
            swap_stats: state.swap_stats,
            patch_stats: state.patch_stats,
            last_rejection: state.last_rejection,
            correction: state.correction.clone(),
            policy,
            obs,
            metrics,
        })
    }

    /// Installs an already-compiled table, rebuilding cluster aggregates
    /// from the retained per-client totals and the batch LPM sweep
    /// (`nets[i]` is `clients[i]`'s assignment under the new table). A full
    /// swap supersedes the patch lineage, so the spare is dropped: no batch
    /// replay reaches the new table from it.
    fn install(&mut self, compiled: CompiledMerged, clients: Vec<u32>, nets: Vec<Option<Ipv4Net>>) {
        self.live = LiveTable {
            table: compiled,
            version: self.live.version + 1,
        };
        self.spare = None;
        self.last_batch.clear();
        self.assignment.clear();
        self.clusters.clear();
        self.unclustered_requests = 0;
        for (client, prefix) in clients.into_iter().zip(nets) {
            let (requests, bytes) = self.per_client[&client];
            self.assignment.insert(client, prefix);
            match prefix {
                Some(net) => {
                    let stats = self.clusters.entry(net).or_default();
                    stats.clients += 1;
                    stats.requests += requests;
                    stats.bytes += bytes;
                }
                None => self.unclustered_requests += requests,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Clustering;
    use netclust_netgen::{standard_merged, Universe, UniverseConfig};
    use netclust_weblog::{generate, LogSpec};

    fn setup() -> (Universe, netclust_weblog::Log) {
        let u = Universe::generate(UniverseConfig::small(7));
        let mut spec = LogSpec::tiny("st", 13);
        spec.total_requests = 8_000;
        spec.target_clients = 300;
        let log = generate(&u, &spec);
        (u, log)
    }

    #[test]
    fn streaming_matches_batch() {
        let (u, log) = setup();
        let merged = standard_merged(&u, 0);
        let batch = Clustering::network_aware(&log, &merged);
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push(r);
        }
        assert_eq!(stream.len(), batch.len());
        assert_eq!(stream.total_requests(), log.requests.len() as u64);
        for cluster in &batch.clusters {
            let s = stream.stats(cluster.prefix).expect("cluster present");
            assert_eq!(s.requests, cluster.requests, "{}", cluster.prefix);
            assert_eq!(s.clients, cluster.client_count() as u64);
            assert_eq!(s.bytes, cluster.bytes);
        }
        // Coverage agrees (request-weighted vs client-weighted differ, so
        // compare against the request tally directly).
        let unclustered_reqs: u64 = batch.unclustered.iter().map(|c| c.requests).sum();
        let expect = 1.0 - unclustered_reqs as f64 / log.requests.len() as f64;
        assert!((stream.coverage() - expect).abs() < 1e-12);
    }

    #[test]
    fn push_clf_matches_push() {
        let (u, log) = setup();
        let mut by_request = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            by_request.push(r);
        }
        let mut by_bytes = StreamingClustering::builder(standard_merged(&u, 0)).build();
        let text = netclust_weblog::clf::to_clf(&log);
        let errors = by_bytes.push_clf(text.as_bytes());
        assert!(errors.is_empty());
        assert_eq!(by_bytes.total_requests(), by_request.total_requests());
        assert_eq!(by_bytes.len(), by_request.len());
        for (prefix, stats) in by_request.top_k(usize::MAX) {
            assert_eq!(by_bytes.stats(prefix), Some(stats), "{prefix}");
        }
        assert!((by_bytes.coverage() - by_request.coverage()).abs() < 1e-12);
        // Malformed lines are surfaced, well-formed ones still land.
        let mut s = StreamingClustering::builder(standard_merged(&u, 0)).build();
        let errs = s.push_clf(
            b"bogus\n1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 10\n",
        );
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].line, 0);
        assert_eq!(s.total_requests(), 1);
        // Quarantined lines land in clf_counts, not in coverage's
        // denominator: the one parsed request is clustered or not on its
        // own terms.
        assert_eq!(s.clf_counts(), ErrorCounts::new(2, 1));
    }

    #[test]
    fn top_k_tracks_busiest() {
        let (u, log) = setup();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push(r);
        }
        let top = stream.top_k(5);
        assert_eq!(top.len(), 5.min(stream.len()));
        assert!(top.windows(2).all(|w| w[0].1.requests >= w[1].1.requests));
        // The top cluster matches the batch busiest.
        let merged = standard_merged(&u, 0);
        let batch = Clustering::network_aware(&log, &merged);
        assert_eq!(top[0].1.requests, batch.busiest().unwrap().requests);
    }

    #[test]
    fn table_swap_rebuilds_consistently() {
        let (u, log) = setup();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push(r);
        }
        let before_total = stream.total_requests();
        // Swap to day 7's table: the view must equal a batch clustering
        // against that table.
        let report = stream.try_swap(standard_merged(&u, 7), ErrorCounts::default());
        assert!(report.accepted, "rejected: {:?}", report.rejection);
        assert_eq!(stream.swap_stats().accepted, 1);
        assert_eq!(stream.swap_stats().stale_age, 0);
        assert_eq!(stream.last_rejection(), None);
        assert_eq!(stream.total_requests(), before_total);
        let batch = Clustering::network_aware(&log, &standard_merged(&u, 7));
        assert_eq!(stream.len(), batch.len());
        for cluster in &batch.clusters {
            let s = stream.stats(cluster.prefix).expect("present after swap");
            assert_eq!(s.requests, cluster.requests);
        }
    }

    #[test]
    fn rejected_swap_leaves_view_untouched() {
        let (u, log) = setup();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push(r);
        }
        let before = stream.top_k(usize::MAX);
        let coverage = stream.coverage();

        // Empty candidate: a scrape failure, not a routing change.
        let empty = MergedTable::merge(std::iter::empty());
        let report = stream.try_swap(empty, ErrorCounts::default());
        assert!(!report.accepted);
        assert!(matches!(
            report.rejection,
            Some(SwapRejection::TooFewEntries {
                entries: 0,
                floor: 1
            })
        ));

        // Over-noisy source dump (1 malformed line in 2 = 50 % noise).
        let report = stream.try_swap(standard_merged(&u, 7), ErrorCounts::new(2, 1));
        assert!(matches!(
            report.rejection,
            Some(SwapRejection::NoiseOverBudget { .. })
        ));

        // Coverage collapse: a table that covers nothing the stream saw.
        let bogus = netclust_rtable::RoutingTable::new(
            "bogus",
            "d0",
            netclust_rtable::TableKind::Bgp,
            vec!["203.0.113.0/24".parse().unwrap()],
        );
        let report = stream.try_swap(MergedTable::merge([&bogus]), ErrorCounts::default());
        assert!(matches!(
            report.rejection,
            Some(SwapRejection::CoverageCollapse { .. })
        ));

        // After three rejections: view identical, degraded-mode age = 3.
        assert_eq!(stream.top_k(usize::MAX), before);
        assert!((stream.coverage() - coverage).abs() < 1e-12);
        let stats = stream.swap_stats();
        assert_eq!(stats.accepted, 0);
        assert_eq!(stats.rejected, 3);
        assert_eq!(stats.stale_age, 3);
        assert_eq!(stream.last_rejection(), report.rejection);

        // A good candidate then clears degraded mode (1 % noise is under
        // the default 5 % budget).
        let ok = stream.try_swap(standard_merged(&u, 7), ErrorCounts::new(100, 1));
        assert!(ok.accepted);
        assert_eq!(stream.swap_stats().stale_age, 0);
        assert_eq!(stream.last_rejection(), None);
    }

    #[test]
    fn swap_metrics_reach_the_registry() {
        let (u, log) = setup();
        let obs = Obs::enabled();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0))
            .obs(obs.clone())
            .build();
        for r in &log.requests {
            stream.push(r);
        }
        let empty = MergedTable::merge(std::iter::empty());
        stream.try_swap(empty, ErrorCounts::default());
        stream.try_swap(standard_merged(&u, 7), ErrorCounts::default());
        let snap = obs.snapshot(true);
        assert_eq!(snap.counters.get("stream.swap.attempts"), Some(&2));
        assert_eq!(snap.counters.get("stream.swap.accepted"), Some(&1));
        assert_eq!(snap.counters.get("stream.swap.rejected"), Some(&1));
        assert_eq!(snap.gauges.get("stream.swap.stale_age"), Some(&0));
        // The serving table resolved its LPM counters against the same
        // registry: pushes and the swap validation sweep were counted.
        assert!(snap.counters.get("lpm.lookups").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn injected_compile_fault_is_survivable() {
        let (u, log) = setup();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push(r);
        }
        let before = stream.top_k(usize::MAX);
        let mut faults = crate::FaultPlan::new(42)
            .with(failpoints::SWAP_COMPILE, 1.0)
            .injector();
        let report =
            stream.try_swap_with(standard_merged(&u, 7), ErrorCounts::default(), &mut faults);
        assert!(!report.accepted);
        assert_eq!(report.rejection, Some(SwapRejection::CompileFault));
        // Old table keeps serving, untouched.
        assert_eq!(stream.top_k(usize::MAX), before);
        assert_eq!(faults.fired(failpoints::SWAP_COMPILE), 1);
        // Retrying with the fault disarmed succeeds.
        let ok = stream.try_swap(standard_merged(&u, 7), ErrorCounts::default());
        assert!(ok.accepted);
    }

    /// The streaming view after any sequence of patches/swaps must equal a
    /// from-scratch re-resolution of every retained client against the
    /// serving table — the incremental aggregate moves cannot drift.
    fn assert_view_consistent(stream: &StreamingClustering) {
        let live = &stream.live.table;
        let mut clusters: HashMap<Ipv4Net, StreamStats> = HashMap::new();
        let mut unclustered = 0u64;
        for (&client, &(requests, bytes)) in &stream.per_client {
            assert_eq!(
                stream.assignment.get(&client).copied(),
                Some(live.net_for_u32(client)),
                "memoized assignment for {client:#010x} disagrees with the serving table"
            );
            match live.net_for_u32(client) {
                Some(net) => {
                    let s = clusters.entry(net).or_default();
                    s.clients += 1;
                    s.requests += requests;
                    s.bytes += bytes;
                }
                None => unclustered += requests,
            }
        }
        assert_eq!(stream.clusters, clusters);
        assert_eq!(stream.unclustered_requests, unclustered);
    }

    #[test]
    fn patch_batches_track_live_routing_changes() {
        let (u, log) = setup();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push(r);
        }
        assert_view_consistent(&stream);
        let before_total = stream.total_requests();

        // Withdraw the busiest cluster's prefix: its clients must remap to
        // a covering prefix or become unclustered, everyone else untouched.
        let (busiest, busy_stats) = stream.top_k(1)[0];
        let report = stream.apply_deltas(&[TableDelta::withdraw(busiest)]);
        assert!(report.accepted, "rejected: {:?}", report.rejection);
        assert!(report.patch.patched_in_place());
        assert!(report.reassigned_clients as u64 >= busy_stats.clients);
        assert_eq!(stream.stats(busiest), None);
        assert_view_consistent(&stream);

        // Re-announce it: the clients move back.
        let report = stream.apply_deltas(&[TableDelta::announce(busiest)]);
        assert!(report.accepted);
        assert_eq!(
            stream.stats(busiest),
            Some(busy_stats),
            "announce must restore the withdrawn cluster exactly"
        );
        assert_eq!(stream.total_requests(), before_total);
        assert_view_consistent(&stream);

        // The serving table tracked both batches.
        assert_eq!(stream.table_version(), 2);
        assert_eq!(stream.live.version, 2);
        let stats = stream.patch_stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.accepted, 2);
        assert!(stats.slot_writes > 0);
    }

    #[test]
    fn patch_equals_full_swap_of_same_prefix_set() {
        // Patching prefixes in and out must serve the same lookups as a
        // stream rebuilt over the final table (swap path), client for
        // client.
        let (u, log) = setup();
        let mut patched = StreamingClustering::builder(standard_merged(&u, 0)).build();
        let mut swapped = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            patched.push(r);
            swapped.push(r);
        }
        let victims: Vec<Ipv4Net> = patched.top_k(3).iter().map(|&(p, _)| p).collect();
        let deltas: Vec<TableDelta> = victims.iter().map(|&p| TableDelta::withdraw(p)).collect();
        let report = patched.apply_deltas(&deltas);
        assert!(report.accepted, "rejected: {:?}", report.rejection);

        // Build the equivalent full table: day-0 BGP tier minus the
        // victims, compiled from scratch through the swap path.
        let merged = standard_merged(&u, 0);
        let keep: Vec<Ipv4Net> = merged
            .bgp_prefixes()
            .iter()
            .copied()
            .filter(|p| !victims.contains(p))
            .collect();
        let bgp = netclust_rtable::RoutingTable::new(
            "patched-equiv",
            "d0",
            netclust_rtable::TableKind::Bgp,
            keep,
        );
        let dump = netclust_rtable::RoutingTable::new(
            "dump-equiv",
            "d0",
            netclust_rtable::TableKind::NetworkDump,
            merged.dump_prefixes(),
        );
        let swap = swapped.try_swap(MergedTable::merge([&bgp, &dump]), ErrorCounts::default());
        assert!(swap.accepted, "rejected: {:?}", swap.rejection);
        assert_eq!(patched.top_k(usize::MAX), swapped.top_k(usize::MAX));
        assert!((patched.coverage() - swapped.coverage()).abs() < 1e-12);
        assert_view_consistent(&patched);
    }

    #[test]
    fn patch_coverage_gate_rejects_and_preserves_serving_table() {
        // Two BGP prefixes, no dump tier to fall back to: withdrawing the
        // busy one would strand nearly every client, so the retention gate
        // must fire (with enough entries left that the entry floor does
        // not trip first).
        let bgp = netclust_rtable::RoutingTable::new(
            "only",
            "d0",
            netclust_rtable::TableKind::Bgp,
            vec![
                "10.0.0.0/8".parse().unwrap(),
                "192.168.0.0/16".parse().unwrap(),
            ],
        );
        let mut stream = StreamingClustering::builder(MergedTable::merge([&bgp]))
            .swap_policy(SwapPolicy {
                min_coverage_retention: 1.0, // no regression allowed
                ..SwapPolicy::default()
            })
            .build();
        for host in 0..50u32 {
            stream.push_raw(0x0A00_0000 + host, 100);
        }
        stream.push_raw(0xC0A8_0001, 100);
        assert_eq!(stream.coverage(), 1.0);
        let before = stream.top_k(usize::MAX);
        let version = stream.table_version();
        let deltas = vec![TableDelta::withdraw("10.0.0.0/8".parse().unwrap())];
        let report = stream.apply_deltas(&deltas);
        assert!(!report.accepted);
        assert!(matches!(
            report.rejection,
            Some(SwapRejection::CoverageCollapse { .. })
        ));
        assert!(report.coverage_after <= report.coverage_before);
        // Old generation intact: view, version, and lookups unchanged.
        assert_eq!(stream.top_k(usize::MAX), before);
        assert_eq!(stream.table_version(), version);
        assert_eq!(stream.patch_stats().rejected, 1);
        assert_eq!(stream.last_rejection(), report.rejection);
        assert_view_consistent(&stream);
    }

    #[test]
    fn injected_patch_fault_discards_candidate() {
        let (u, log) = setup();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push(r);
        }
        let before = stream.top_k(usize::MAX);
        let (target, _) = before[0];
        let mut faults = crate::FaultPlan::new(7)
            .with(failpoints::TABLE_PATCH, 1.0)
            .injector();
        let report = stream.apply_deltas_with(&[TableDelta::withdraw(target)], &mut faults);
        assert!(!report.accepted);
        assert_eq!(report.rejection, Some(SwapRejection::PatchFault));
        assert_eq!(faults.fired(failpoints::TABLE_PATCH), 1);
        // Old generation serves untouched.
        assert_eq!(stream.top_k(usize::MAX), before);
        assert!(stream.stats(target).is_some());
        assert_view_consistent(&stream);
        // Disarmed retry applies.
        let report = stream.apply_deltas(&[TableDelta::withdraw(target)]);
        assert!(report.accepted);
        assert_eq!(stream.stats(target), None);
        assert_view_consistent(&stream);
    }

    #[test]
    fn patch_metrics_reach_the_registry() {
        let (u, log) = setup();
        let obs = Obs::enabled();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0))
            .obs(obs.clone())
            .build();
        for r in &log.requests {
            stream.push(r);
        }
        let (busiest, _) = stream.top_k(1)[0];
        stream.apply_deltas(&[TableDelta::withdraw(busiest)]);
        stream.apply_deltas(&[TableDelta::announce(busiest)]);
        let snap = obs.snapshot(true);
        assert_eq!(snap.counters.get("stream.patch.batches"), Some(&2));
        assert!(
            snap.counters
                .get("stream.patch.slot_writes")
                .copied()
                .unwrap_or(0)
                > 0
        );
        assert!(snap.histograms.contains_key("stream.patch.batch_deltas"));
    }

    /// The patch path recycles the previous generation instead of cloning
    /// the serving table: the spare survives every accepted batch one
    /// version behind, and every path that breaks the batch lineage drops
    /// it.
    #[test]
    fn spare_is_recycled_across_batches_and_dropped_when_lineage_breaks() {
        let (u, log) = setup();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push(r);
        }
        let spare_version = |s: &StreamingClustering| s.spare.as_ref().map(|t| t.version);
        assert_eq!(spare_version(&stream), None);
        let (busiest, _) = stream.top_k(1)[0];

        // Accepted batches: the old serving table becomes the spare, and
        // the next batch recycles it (replaying the batch it missed).
        for (i, delta) in [TableDelta::withdraw(busiest), TableDelta::announce(busiest)]
            .into_iter()
            .enumerate()
        {
            let report = stream.apply_deltas(&[delta]);
            assert!(report.accepted, "batch {i}: {:?}", report.rejection);
            assert_eq!(spare_version(&stream), Some(stream.live.version - 1));
            assert_eq!(stream.last_batch, vec![delta]);
            assert_view_consistent(&stream);
        }

        // A faulted batch consumed the spare as its candidate and dropped
        // it; the next accepted batch clones and leaves a fresh spare.
        let mut faults = crate::FaultPlan::new(7)
            .with(failpoints::TABLE_PATCH, 1.0)
            .injector();
        let withdraw = [TableDelta::withdraw(busiest)];
        let report = stream.apply_deltas_with(&withdraw, &mut faults);
        assert_eq!(report.rejection, Some(SwapRejection::PatchFault));
        assert_eq!(spare_version(&stream), None);
        assert!(stream.apply_deltas(&withdraw).accepted);
        assert_eq!(spare_version(&stream), Some(stream.live.version - 1));
        assert_view_consistent(&stream);

        // A full swap supersedes the lineage.
        let report = stream.try_swap(standard_merged(&u, 7), ErrorCounts::default());
        assert!(report.accepted, "rejected: {:?}", report.rejection);
        assert_eq!(spare_version(&stream), None);
        assert!(stream.last_batch.is_empty());

        // So does a restore, even from a stream that held a spare.
        assert!(stream.apply_deltas(&withdraw).accepted);
        assert!(stream.spare.is_some());
        let restored = StreamingClustering::restore(
            &stream.export_state(),
            SwapPolicy::default(),
            Obs::disabled(),
        )
        .expect("exported state restores");
        assert_eq!(restored.table_version(), stream.table_version());
        assert_eq!(spare_version(&restored), None);
        assert_view_consistent(&restored);
    }

    #[test]
    fn incremental_queries_mid_stream() {
        let (u, log) = setup();
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        assert!(stream.is_empty());
        assert_eq!(stream.coverage(), 0.0);
        let half = log.requests.len() / 2;
        for r in &log.requests[..half] {
            stream.push(r);
        }
        let mid = stream.top_k(3);
        assert!(!mid.is_empty());
        for r in &log.requests[half..] {
            stream.push(r);
        }
        let end = stream.top_k(3);
        assert!(end[0].1.requests >= mid[0].1.requests);
        // cluster_of answers for seen clients.
        let client = log.requests[0].client_addr();
        assert_eq!(
            stream.cluster_of(client).is_some(),
            standard_merged(&u, 0).lookup(client).is_some()
        );
    }
}
