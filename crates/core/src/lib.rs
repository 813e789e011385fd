//! Network-aware clustering of Web clients — the paper's contribution.
//!
//! This crate implements the full pipeline of *On Network-Aware Clustering
//! of Web Clients* (Krishnamurthy & Wang, SIGCOMM 2000) on top of the
//! substrate crates:
//!
//! * [`Clustering`] — longest-prefix-match clustering against a merged
//!   BGP/registry table, plus the simple `/24` and classful baselines (§2,
//!   §3.2),
//! * [`IngestPipeline`] — fused zero-copy ingest from raw CLF bytes
//!   (memory-mapped files included) straight to a [`Clustering`],
//! * [`Distributions`], [`cdf`] — the per-cluster client/request/URL
//!   metrics of Figures 3–7,
//! * [`validate`] — sampled nslookup/traceroute validation (§3.3, Table 3),
//! * [`dynamics_analysis`] — the effect of BGP churn (§3.4, Table 4),
//! * [`self_correct`] — merge/split/absorb repair via traceroute sampling
//!   (§3.5),
//! * [`detect`] — spider and proxy identification (§4.1.2, Figures 9–10),
//! * [`threshold_busy`] — busy-cluster selection (§4.1.3, Table 5),
//! * [`network_clusters`] — second-level clustering and
//!   [`session_report`] — time-partitioned stability (§3.6).
//!
//! The Web-caching simulation the clusters feed (§4.1.5, Figures 11–12)
//! lives in `netclust-cachesim`. Crash-safe persistence of the streaming
//! state — checksummed snapshots plus a write-ahead delta journal — lives
//! in [`persist`].

#![warn(missing_docs)]

mod anomaly;
mod cluster;
mod config;
mod dynamics;
mod faults;
mod fx;
mod ingest;
mod metrics;
mod netcluster;
mod ongoing;
pub mod persist;
pub mod query;
mod selfcorrect;
mod sessions;
mod stream;
mod threshold;
mod validation;

pub use anomaly::{
    cluster_request_distribution, correlation, detect, hourly_histogram, strip_clients,
    AnomalyConfig, ClientClass, Detection,
};
pub use cluster::{ClientStats, Cluster, Clustering};
pub use config::RunConfig;
pub use dynamics::{dynamics_analysis, DynamicsRow, LogDynamics, LogUnderStudy};
pub use faults::{failpoints, FaultInjector, FaultPlan};
pub use ingest::{IngestError, IngestPipeline, IngestReport, QuarantinedLine};
pub use metrics::{cdf, cdf_at, Distributions, Summary};
pub use netcluster::{network_clusters, NetworkCluster};
pub use ongoing::{
    merge_by_name_suffix, selective_validate, MergeReport, SelectiveMode, SelectiveReport,
};
pub use persist::{
    CorrectionState, FeedProgress, FsyncPolicy, JournalBatch, PersistError, RecoveryReport,
    StateStore, StreamState,
};
pub use query::{
    ClusterAnswer, ClusterQuery, ClusterRow, QuerySummary, VerdictAnswer, VerdictPolicy,
};
pub use selfcorrect::{
    org_purity, self_correct, self_correct_with, CorrectionConfig, CorrectionReport,
};
pub use sessions::{session_report, SessionReport, SessionStats};
pub use stream::{
    PatchBatchReport, PatchStats, RestoreError, StreamStats, StreamingBuilder, StreamingClustering,
    SwapPolicy, SwapRejection, SwapReport, SwapStats,
};
// The shared error-accounting shape carried by `IngestReport`, consumed by
// `StreamingClustering::try_swap`, and produced by rtable's `ParseReport`;
// defined in `netclust-obs`, re-exported so core users need no extra import.
pub use netclust_obs::ErrorCounts;
pub use threshold::{threshold_busy, ThresholdReport};
pub use validation::{validate, SamplePlan, TestCounts, ValidationReport};
