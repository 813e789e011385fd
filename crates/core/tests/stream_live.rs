//! Live-update integration tests for the streaming clustering: an 8-seed
//! fault sweep over [`failpoints::TABLE_PATCH`] proving every injected
//! mid-patch death leaves the old generation serving untouched, and a
//! multi-threaded reader test proving lookups through the daemon's
//! `RwLock<StreamingClustering>` keep making progress — never observing a
//! torn table — while the owner applies 1,000 delta batches.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, RwLock};
use std::thread;

use netclust_bgpsim::{DeltaStream, DeltaStreamConfig};
use netclust_core::{failpoints, FaultPlan, StreamingClustering, SwapRejection};
use netclust_netgen::{standard_merged, Universe, UniverseConfig};
use netclust_prefix::Ipv4Net;
use netclust_rtable::{MergedTable, RoutingTable, TableDelta, TableKind};
use netclust_weblog::{generate, LogSpec};

fn setup() -> (Universe, netclust_weblog::Log) {
    let u = Universe::generate(UniverseConfig::small(7));
    let mut spec = LogSpec::tiny("live", 13);
    spec.total_requests = 6_000;
    spec.target_clients = 250;
    let log = generate(&u, &spec);
    (u, log)
}

/// Deterministic probe addresses without ambient randomness: an LCG walk
/// plus the boundary addresses of every prefix in `nets`.
fn probes(nets: &[Ipv4Net]) -> Vec<u32> {
    let mut v = Vec::with_capacity(nets.len() * 2 + 64);
    let mut x = 0x2545_F491u32;
    for _ in 0..64 {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        v.push(x);
    }
    for n in nets {
        v.push(n.addr_u32());
        v.push(n.addr_u32() | !n.netmask_u32());
    }
    v
}

/// 8-seed sweep: drive a faulted stream and a fault-free mirror with the
/// same accepted batches; every `table.patch` trip must reject the batch
/// and leave version, view, and lookups untouched, and the survivor
/// lineage must equal the mirror's exactly.
#[test]
fn fault_sweep_rollback_leaves_old_generation_intact() {
    const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xBEEF, 0xFA17];
    let (u, log) = setup();
    for &seed in &SEEDS {
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        let mut mirror = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push(r);
            mirror.push(r);
        }
        let mut faults = FaultPlan::new(seed)
            .with(failpoints::TABLE_PATCH, 0.3)
            .injector();
        let mut feed = DeltaStream::new(
            seed,
            standard_merged(&u, 0).bgp_prefixes(),
            DeltaStreamConfig::default(),
        );
        let mut accepted_batches: Vec<Vec<TableDelta>> = Vec::new();
        for _ in 0..60 {
            let batch = feed.next_batch();
            let version_before = stream.table_version();
            let view_before = stream.top_k(usize::MAX);
            let coverage_before = stream.coverage();
            let report = stream.apply_deltas_with(&batch.deltas, &mut faults);
            if report.accepted {
                if !batch.deltas.is_empty() {
                    accepted_batches.push(batch.deltas.clone());
                }
            } else {
                // Rollback: the rejected candidate (faulted or gated) was
                // discarded without touching the serving generation.
                assert_eq!(stream.table_version(), version_before, "seed {seed}");
                assert_eq!(stream.top_k(usize::MAX), view_before, "seed {seed}");
                assert!((stream.coverage() - coverage_before).abs() < 1e-12);
                if report.rejection == Some(SwapRejection::PatchFault) {
                    assert!(faults.fired(failpoints::TABLE_PATCH) > 0);
                }
            }
        }
        // 60 draws at p=0.3 make a silent sweep astronomically unlikely —
        // a zero here means the failpoint came unwired.
        assert!(
            faults.fired(failpoints::TABLE_PATCH) >= 1,
            "seed {seed}: table.patch never fired"
        );
        assert!(stream.patch_stats().rejected >= faults.fired(failpoints::TABLE_PATCH));

        // The fault-free mirror accepts the same lineage and converges to
        // the identical view and serving table.
        for deltas in &accepted_batches {
            let r = mirror.apply_deltas(deltas);
            assert!(r.accepted, "seed {seed}: mirror rejected {:?}", r.rejection);
        }
        assert_eq!(
            stream.table_version(),
            mirror.table_version(),
            "seed {seed}"
        );
        assert_eq!(
            stream.top_k(usize::MAX),
            mirror.top_k(usize::MAX),
            "seed {seed}"
        );
        assert!((stream.coverage() - mirror.coverage()).abs() < 1e-12);
        for addr in probes(&standard_merged(&u, 0).bgp_prefixes()) {
            let addr = Ipv4Addr::from(addr);
            assert_eq!(
                stream.lookup_net(addr),
                mirror.lookup_net(addr),
                "seed {seed}"
            );
        }
    }
}

/// Reader threads keep resolving lookups through the shared
/// `RwLock<StreamingClustering>` — no torn reads, versions monotone — while
/// the owner applies 1,000 patch batches, taking the write lock per batch
/// exactly as `netclustd` does.
#[test]
fn readers_proceed_while_writer_applies_1k_batches() {
    // A churn pool the feed mutates freely, plus a canary prefix the feed
    // never touches: any lookup that sees a torn or half-patched table
    // would misresolve the canary or return a non-covering prefix.
    let canary: Ipv4Net = "203.0.113.0/24".parse().unwrap();
    let canary_probe = canary.addr_u32() | 0x4D;
    let mut feed = DeltaStream::synthetic(
        0xFEED,
        2_000,
        DeltaStreamConfig {
            mean_batch_size: 4,
            reset_period: 0,
            ..DeltaStreamConfig::default()
        },
    );
    let mut prefixes = feed.live_prefixes();
    prefixes.push(canary);
    let bgp = RoutingTable::new("live", "d0", TableKind::Bgp, prefixes);
    let mut stream = StreamingClustering::builder(MergedTable::merge([&bgp])).build();
    // All clients live under the canary, so churn in the pool can never
    // collapse coverage and every batch passes the gates.
    let mut clf = String::new();
    for host in 1..=20u32 {
        clf.push_str(&format!(
            "203.0.113.{host} - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100\n"
        ));
    }
    assert!(stream.push_clf(clf.as_bytes()).is_empty());
    assert_eq!(stream.coverage(), 1.0);
    let stream = Arc::new(RwLock::new(stream));

    // Every reader completes one lookup before the writer starts, so all
    // three are inside their loops for the whole batch run.
    let start = Arc::new(Barrier::new(4));
    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..3 {
        let stream = Arc::clone(&stream);
        let start = Arc::clone(&start);
        let stop = Arc::clone(&stop);
        readers.push(thread::spawn(move || {
            let mut iterations = 0u64;
            let mut last_version = 0u64;
            loop {
                let s = stream.read().expect("stream lock poisoned");
                // The canary always resolves to a prefix covering it (the
                // canary itself, or a longer match the feed announced).
                let net = s
                    .lookup_net(Ipv4Addr::from(canary_probe))
                    .expect("canary probe must always resolve");
                assert!(net.contains_u32(canary_probe), "torn read: {net}");
                // Versions observed across read locks never go backwards.
                let v = s.table_version();
                assert!(v >= last_version, "version regressed {last_version}->{v}");
                last_version = v;
                // Churn-pool probes either miss or resolve to a covering
                // prefix — a torn table would violate containment.
                let addr = 0x0A00_0000u32.wrapping_add((iterations as u32).wrapping_mul(8_191));
                if let Some(net) = s.lookup_net(Ipv4Addr::from(addr)) {
                    assert!(net.contains_u32(addr), "torn read: {net} for {addr:#x}");
                }
                drop(s);
                iterations += 1;
                if iterations == 1 {
                    start.wait();
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            (iterations, last_version)
        }));
    }
    start.wait();

    let mut accepted = 0u64;
    for _ in 0..1_000 {
        let batch = feed.next_batch();
        let report = stream
            .write()
            .expect("stream lock poisoned")
            .apply_deltas(&batch.deltas);
        assert!(report.accepted, "rejected: {:?}", report.rejection);
        if !batch.deltas.is_empty() {
            accepted += 1;
        }
    }
    stop.store(true, Ordering::Relaxed);
    let stream = stream.read().expect("stream lock poisoned");
    let mut total_reads = 0u64;
    for r in readers {
        let (iterations, last_version) = r.join().expect("reader thread panicked");
        total_reads += iterations;
        assert!(last_version <= stream.table_version());
    }
    assert!(total_reads > 0, "readers never made progress");
    assert_eq!(stream.table_version(), accepted);
    assert_eq!(stream.patch_stats().accepted, accepted);
    // The canary survives the entire run in the serving table.
    assert!(stream.lookup_net(Ipv4Addr::from(canary_probe)).is_some());
}
