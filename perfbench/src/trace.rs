//! The traced run: replays a workload's generated inputs in process
//! through each layer's public calls, recording a span at every call
//! (name, start, end, parent, request id), and derives the per-layer
//! metrics. Each path's layer self-times are set beside the end-to-end
//! median its workload reports: untraced report passes for the batch path,
//! and `query_steady`'s and `live_churn`'s own measurement, run on the same
//! inputs at half the window, for the query and live paths.
//!
//! Spans stay in memory and are written to `.bench_trace/` at the end.
//! End-to-end metrics never come from a traced run.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{Mutex, RwLock};
use std::time::Instant;

use netclust_core::query::top_to_json;
use netclust_core::{
    ClusterQuery, ErrorCounts, JournalBatch, RunConfig, StateStore, StreamingClustering,
    SwapPolicy, VerdictPolicy,
};
use netclust_obs::Obs;
use netclust_rtable::DEFAULT_PREFETCH_DISTANCE;
use netclust_serve::http::{self, Parse};
use netclust_serve::router::{self, AppState, ServeObs};
use netclust_weblog::chunk::LogData;
use netclust_weblog::clf_bytes;
use netclust_weblog::follow::LogFollower;

use crate::batch::{self, TableFiles};
use crate::churn::{self, APPEND_RATE, DELTA_RATE, SWAP_RATE};
use crate::daemon;
use crate::gen::{self, Rng};
use crate::net;
use crate::query::{self, Serving};
use crate::report::{Report, Samples};
use crate::Args;

/// Per-layer metrics every traced run reports, in `BENCHMARK.json` order.
pub const PER_LAYER: &[&str] = &[
    "rtable.load_ms",
    "rtable.compile_ms",
    "rtable.compiled_mb",
    "rtable.lpm_mlookups_per_s",
    "rtable.patch_us",
    "weblog.parse_mb_per_s",
    "weblog.follow_poll_us",
    "ingest.t1_mb_per_s",
    "ingest.tN_mb_per_s",
    "ingest.scaling_x",
    "ingest.lines",
    "ingest.malformed",
    "ingest.clients",
    "ingest.clusters",
    "stream.catchup_mb_per_s",
    "stream.push_clf_us",
    "stream.swap_ms",
    "serve.write_lock_share",
    "persist.recover_ms",
    "persist.append_us",
    "persist.checkpoint_ms",
    "query.lookup_ns",
    "query.json_ns",
    "query.top_us",
    "serve.parse_ns",
    "serve.route_ns",
    "serve.encode_ns",
    "serve.conn_overhead_us",
    "gen.late_p50_us",
    "gen.late_p99_us",
    "batch.unattributed_ms",
    "query.unattributed_us",
    "live.unattributed_ms",
    "trace.overhead_pct",
];

/// One recorded call.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u32,
}

const NO_PARENT: u32 = u32::MAX;

/// In-memory span recorder. With `on == false` it records nothing, which
/// is the untraced side of the overhead comparison.
struct Tracer {
    t0: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            t0: Instant::now(),
            on,
            spans: Vec::with_capacity(1 << 20),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `request`.
    fn span<R>(&mut self, name: &'static str, request: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end = self.now();
        self.spans[idx as usize].end_ns = end;
        out
    }

    /// Self time of every span, ns: its duration minus its children's.
    fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self times of the spans named `name`, in ns.
    fn selfs(&self, name: &str) -> Samples {
        let st = self.self_times();
        Samples(
            self.spans
                .iter()
                .zip(st)
                .filter(|(s, _)| s.name == name)
                .map(|(_, t)| t as f64)
                .collect(),
        )
    }

    /// Writes every span as one JSON line.
    fn write(&self, path: &Path) {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let Ok(file) = std::fs::File::create(path) else {
            return;
        };
        let mut out = std::io::BufWriter::new(file);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        let _ = out.flush();
    }

    /// Count and total self time per span name, for the printed summary.
    fn summary(&self) -> BTreeMap<&'static str, (usize, u64)> {
        let mut m: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let e = m.entry(s.name).or_default();
            e.0 += 1;
            e.1 += t;
        }
        m
    }
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

pub fn run(args: &Args, report: &mut Report) {
    let inp = Serving::generate(args, report);
    let offline = inp.offline();
    let feed = gen::delta_batches(args.seed, &inp.tables.bgp, 400);
    let mut tr = Tracer::new(true);

    // --- batch path: rtable load/compile, then the report pass. ---
    let batch_log = if args.workload == "batch_report" {
        let lines = args.sizes().batch_lines as u64;
        let path = args.work.join("batch.log");
        gen::write_log(&path, args.seed, 10, &inp.pop, lines);
        path
    } else {
        inp.seed_log.clone()
    };
    let merged = tr.span("rtable.load", 0, |_| inp.files.load());
    let compiled = tr.span("rtable.compile", 0, |_| merged.compile());
    let data = LogData::open(&batch_log).expect("open log");
    let bytes = data.bytes().len();
    let run = RunConfig::new();
    // Untraced passes first (the end-to-end median), then three traced.
    let mut untraced = Samples::default();
    for _ in 0..3 {
        let t = Instant::now();
        batch::pass(&run, &compiled, &batch_log);
        untraced.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut ingest_report = None;
    for pass in 0..3u32 {
        tr.span("batch.pass", pass, |tr| {
            let d = tr.span("weblog.mmap", pass, |_| {
                LogData::open(&batch_log).expect("open log")
            });
            let r = tr.span("ingest.run", pass, |_| {
                run.pipeline(&compiled).try_run(&d).expect("ingest")
            });
            tr.span("batch.render", pass, |_| batch::render(&r.clustering));
            ingest_report = Some(r);
        });
    }
    let ingest_report = ingest_report.expect("traced pass ran");
    let pass_layers = ["weblog.mmap", "ingest.run", "batch.render"]
        .iter()
        .map(|n| tr.selfs(n).median())
        .sum::<f64>()
        / 1e6;
    let batch_e2e = untraced.median();

    // Layer rates over the same bytes: parse and LPM on one thread, the
    // fused pipeline on one thread and on all of them.
    tr.span("weblog.parse", 0, |_| {
        std::hint::black_box(
            clf_bytes::records(data.bytes(), 0)
                .filter(|r| r.is_ok())
                .count(),
        )
    });
    let addrs: Vec<u32> = clf_bytes::records(data.bytes(), 0)
        .filter_map(|r| r.ok().map(|(_, rec)| rec.addr))
        .collect();
    let mut nets = vec![None; addrs.len()];
    tr.span("rtable.lookup_batch", 0, |_| {
        compiled.net_for_slice(&addrs, &mut nets, DEFAULT_PREFETCH_DISTANCE);
        std::hint::black_box(&nets);
    });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (name, t) in [("ingest.t1", 1), ("ingest.tN", threads)] {
        tr.span(name, 0, |_| {
            run.clone()
                .threads(t)
                .pipeline(&compiled)
                .try_run(&data)
                .expect("ingest")
        });
    }
    drop(data);

    // --- query path: AppState from public fields, one span per call. ---
    let obs = Obs::enabled();
    let state = AppState {
        stream: RwLock::new(offline),
        store: Mutex::new(None),
        obs: obs.clone(),
        metrics: ServeObs::resolve(&obs),
        deterministic: false,
        top_default: 10,
        verdict: VerdictPolicy::default(),
        feed_index: AtomicU64::new(0),
        log_offset: AtomicU64::new(0),
    };
    let mut rng = Rng::new(args.seed, 41);
    let n_req = if args.smoke { 2_000 } else { 40_000 };
    let ips: Vec<Ipv4Addr> = (0..n_req)
        .map(|_| gen::query_addr(&mut rng, &inp.pop))
        .collect();
    let wires: Vec<Vec<u8>> = ips
        .iter()
        .map(|ip| net::get_wire(&query::cluster_path(*ip)))
        .collect();
    let replay = |tr: &mut Tracer| {
        let t = Instant::now();
        for (i, wire) in wires.iter().enumerate() {
            let id = i as u32 + 1;
            tr.span("serve.request", id, |tr| {
                let req = match tr.span("serve.parse", id, |_| http::parse_request(wire)) {
                    Parse::Complete { request, .. } => request,
                    other => panic!("replayed request must parse: {other:?}"),
                };
                let resp = tr.span("serve.route", id, |_| router::handle(&state, &req));
                let out = tr.span("serve.encode", id, |_| http::encode_response(&resp, true));
                std::hint::black_box(out);
            });
        }
        t.elapsed().as_secs_f64()
    };
    // Overhead: alternate untraced and traced replays (the traced ones into
    // a throwaway recorder) and compare medians; then one replay for the
    // layer metrics.
    let (mut untraced, mut traced) = (Samples::default(), Samples::default());
    for _ in 0..3 {
        untraced.push(replay(&mut Tracer::new(false)));
        traced.push(replay(&mut Tracer::new(true)));
    }
    replay(&mut tr);
    let (untraced_s, traced_s) = (untraced.median(), traced.median());
    {
        let stream = state.stream.read().expect("stream lock");
        for (i, ip) in ips.iter().enumerate() {
            let id = i as u32 + 1;
            let answer = tr.span("query.lookup", id, |_| stream.lookup(*ip));
            let json = tr.span("query.json", id, |_| answer.to_json());
            std::hint::black_box(json);
        }
        for _ in 0..if args.smoke { 10 } else { 50 } {
            tr.span("query.top", 0, |_| top_to_json(&stream.top(10)));
        }
    }
    let layer_ns: f64 = ["serve.parse", "serve.route", "serve.encode"]
        .iter()
        .map(|n| tr.selfs(n).median())
        .sum();

    // --- live path: follower catch-up, appends, deltas, swaps, persistence. ---
    let live_dir = daemon::instance_dir(&args.work, "live");
    let log = live_dir.join("access.log");
    std::fs::copy(&inp.seed_log, &log).expect("copy seed log");
    let mut stream = run.streaming(inp.files.load());
    let mut follower = LogFollower::new(&log);
    let catchup_t = Instant::now();
    let mut caught = 0usize;
    loop {
        let chunk = tr.span("weblog.follow_poll", 0, |_| follower.poll().expect("poll"));
        let Some(chunk) = chunk else { break };
        caught += chunk.len();
        tr.span("stream.push_clf", 0, |_| stream.push_clf(&chunk));
    }
    let catchup_s = catchup_t.elapsed().as_secs_f64();
    let polls_catchup = tr.selfs("weblog.follow_poll").len();
    let pushes_catchup = tr.selfs("stream.push_clf").len();
    let mut append = std::fs::OpenOptions::new()
        .append(true)
        .open(&log)
        .expect("open log for append");
    for k in 0..if args.smoke { 20 } else { 200 } {
        let lines = gen::clf_lines(&mut rng, &inp.pop, 10_000_000 + k * 320, 320);
        append.write_all(&lines).expect("append");
        append.flush().expect("flush");
        if let Some(chunk) = tr.span("weblog.follow_poll", 1, |_| follower.poll().expect("poll")) {
            tr.span("stream.push_clf", 1, |_| stream.push_clf(&chunk));
        }
    }
    let fsync = run.fsync_policy();
    let state_dir = live_dir.join("state");
    let mut store = StateStore::create(&state_dir, fsync).expect("create store");
    for _ in 0..3 {
        tr.span("persist.checkpoint", 0, |_| {
            store
                .checkpoint(&stream.export_state())
                .expect("checkpoint")
        });
    }
    for (i, (deltas, _)) in feed
        .iter()
        .take(if args.smoke { 40 } else { 300 })
        .enumerate()
    {
        let id = i as u32 + 1;
        tr.span("live.delta", id, |tr| {
            tr.span("persist.append", id, |_| {
                store
                    .append_batch(&JournalBatch {
                        feed_index: i as u64,
                        session_reset: false,
                        deltas: deltas.clone(),
                    })
                    .expect("append")
            });
            tr.span("rtable.patch", id, |_| stream.apply_deltas(deltas));
        });
    }
    drop(store);
    for _ in 0..3 {
        tr.span("persist.recover", 0, |_| {
            let (_s, snap, rep) = StateStore::recover(&state_dir, fsync).expect("recover");
            let mut s = StreamingClustering::restore(&snap, SwapPolicy::default(), Obs::disabled())
                .expect("restore");
            for b in &rep.batches {
                s.apply_deltas(&b.deltas);
            }
            s
        });
    }
    let gen_b = gen::next_generation(args.seed, &inp.tables);
    let files_b = TableFiles::write(&live_dir, "gen_b", &gen_b);
    let cands = [
        files_b.load(),
        inp.files.load(),
        files_b.load(),
        inp.files.load(),
    ];
    let mut swaps_ok = true;
    for cand in cands {
        swaps_ok &= tr
            .span("stream.swap", 0, |_| {
                stream.try_swap(cand, ErrorCounts::default())
            })
            .accepted;
    }
    report.check(
        "trace.swaps_accepted",
        swaps_ok,
        "alternating generations pass SwapPolicy::default",
    );

    let patch_us = tr.selfs("rtable.patch").median() / 1e3;
    let append_us = tr.selfs("persist.append").median() / 1e3;
    let polls = tr.selfs("weblog.follow_poll");
    let pushes = tr.selfs("stream.push_clf");
    let live_polls = Samples(polls.0[polls_catchup..].to_vec());
    let live_pushes = Samples(pushes.0[pushes_catchup..].to_vec());
    let push_us = live_pushes.median() / 1e3;
    let swap_ms = tr.selfs("stream.swap").median() / 1e6;

    // The checks: the in-process layers answered what the daemon answers.
    report.check(
        "trace.query_replay_ok",
        state.metrics.errors.get() == 0,
        format!(
            "{} replayed requests, 0 errors",
            state.metrics.requests.get()
        ),
    );
    report.check(
        "trace.catchup_covers_log",
        caught as u64 == inp.seed_stats.bytes,
        format!("{caught} bytes"),
    );

    for (name, (count, total)) in tr.summary() {
        println!(
            "span    {name:<28} count {count:>9} self {:>12.3} ms",
            total as f64 / 1e6
        );
    }
    tr.write(
        &Path::new(".bench_trace").join(format!("spans-{}-{}.jsonl", args.workload, args.seed)),
    );

    // Write-lock share under live_churn's schedule: every append chunk,
    // delta batch and swap holds the stream's write lock once.
    let share = (APPEND_RATE * push_us + DELTA_RATE * patch_us + SWAP_RATE * swap_ms * 1e3) / 1e6;
    let secs = |name: &str| tr.selfs(name).median() / 1e9;
    let (t1, tn) = (secs("ingest.t1"), secs("ingest.tN"));
    let counts = ingest_report.counts;
    let rows = [
        ("rtable.load_ms", secs("rtable.load") * 1e3, "ms", 1),
        ("rtable.compile_ms", secs("rtable.compile") * 1e3, "ms", 1),
        ("rtable.compiled_mb", mb(compiled.memory_bytes()), "MB", 1),
        (
            "rtable.lpm_mlookups_per_s",
            addrs.len() as f64 / secs("rtable.lookup_batch") / 1e6,
            "M/s",
            addrs.len(),
        ),
        (
            "rtable.patch_us",
            patch_us,
            "us",
            tr.selfs("rtable.patch").len(),
        ),
        (
            "weblog.parse_mb_per_s",
            mb(bytes) / secs("weblog.parse"),
            "MB/s",
            1,
        ),
        (
            "weblog.follow_poll_us",
            live_polls.median() / 1e3,
            "us",
            live_polls.len(),
        ),
        ("ingest.t1_mb_per_s", mb(bytes) / t1, "MB/s", 1),
        ("ingest.tN_mb_per_s", mb(bytes) / tn, "MB/s", 1),
        ("ingest.scaling_x", t1 / tn, "x", 1),
        ("ingest.lines", counts.records as f64, "count", 1),
        ("ingest.malformed", counts.malformed as f64, "count", 1),
        (
            "ingest.clients",
            ingest_report.clustering.client_count() as f64,
            "count",
            1,
        ),
        (
            "ingest.clusters",
            ingest_report.clustering.len() as f64,
            "count",
            1,
        ),
        ("stream.catchup_mb_per_s", mb(caught) / catchup_s, "MB/s", 1),
        ("stream.push_clf_us", push_us, "us", live_pushes.len()),
        ("stream.swap_ms", swap_ms, "ms", 4),
        ("serve.write_lock_share", share, "fraction", 1),
        ("persist.recover_ms", secs("persist.recover") * 1e3, "ms", 3),
        (
            "persist.append_us",
            append_us,
            "us",
            tr.selfs("persist.append").len(),
        ),
        (
            "persist.checkpoint_ms",
            secs("persist.checkpoint") * 1e3,
            "ms",
            3,
        ),
        ("query.lookup_ns", secs("query.lookup") * 1e9, "ns", n_req),
        ("query.json_ns", secs("query.json") * 1e9, "ns", n_req),
        (
            "query.top_us",
            secs("query.top") * 1e6,
            "us",
            tr.selfs("query.top").len(),
        ),
        ("serve.parse_ns", secs("serve.parse") * 1e9, "ns", n_req),
        ("serve.route_ns", secs("serve.route") * 1e9, "ns", n_req),
        ("serve.encode_ns", secs("serve.encode") * 1e9, "ns", n_req),
        (
            "trace.overhead_pct",
            (traced_s / untraced_s - 1.0) * 100.0,
            "%",
            1,
        ),
    ];
    for (name, value, unit, n) in rows {
        report.metric(name, value, unit, n);
    }
    drop((state, stream, compiled, merged, nets, addrs));

    // The end-to-end side: each daemon workload's own untraced measurement
    // on the same inputs. live_churn appends to the seed log, so it is last.
    let session = Args {
        seconds: (args.seconds / 2.0).max(1.0),
        ..args.clone()
    };
    let mut q = Report::default();
    query::measure(&session, &inp, &mut q);
    let mut c = Report::default();
    churn::measure(&session, &inp, &mut c);
    let (cluster_p50_us, _) = q.get("cluster_p50_us");
    let (conn_p50_us, _) = q.get("conn_p50_us");
    let (delta_p50_ms, _) = c.get("delta_p50_ms");
    let (late_p50, late_n) = q.get("gen.late_p50_us");
    let (late_p99, _) = q.get("gen.late_p99_us");
    report.absorb("query_steady", q);
    report.absorb("live_churn", c);

    let paths = [
        ("batch", "ms", batch_e2e, pass_layers),
        ("query", "us", cluster_p50_us, layer_ns / 1e3),
        ("live", "ms", delta_p50_ms, (patch_us + append_us) / 1e3),
    ];
    for (path, unit, e2e, layers) in paths {
        println!(
            "attrib  {path:<6} e2e {e2e:.3} {unit}  layers {layers:.3} {unit}  unattributed {:.3} {unit}",
            e2e - layers
        );
        report.metric(
            &format!("{path}.unattributed_{unit}"),
            e2e - layers,
            unit,
            1,
        );
    }
    // A fresh connection's cost beyond a keep-alive request: conn_p50_us
    // against the open-loop keep-alive median.
    let overhead = conn_p50_us - cluster_p50_us;
    report.metric("serve.conn_overhead_us", overhead, "us", 1);
    report.metric("gen.late_p50_us", late_p50, "us", late_n);
    report.metric("gen.late_p99_us", late_p99, "us", late_n);
}
