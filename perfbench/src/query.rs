//! `query_steady`: a `netclustd` process booted on the seed log, with no
//! writes after boot, under three query phases — open loop, saturation,
//! fresh connections. It isolates the query path: HTTP parse, route,
//! `ClusterQuery` answer, JSON encode, and the loopback transport.

use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use netclust_core::query::top_to_json;
use netclust_core::{ClusterQuery, RunConfig, StreamingClustering, VerdictPolicy};

use crate::batch::TableFiles;
use crate::daemon::{self, Daemon};
use crate::gen::{self, LogStats, Population, Rng, Tables};
use crate::net::{self, Done, Req, Response};
use crate::report::{self, Report, Samples};
use crate::Args;

/// Open-loop `/v1/cluster` + `/v1/verdict` rate on connection A, req/s:
/// a fifth of one keep-alive connection's measured capacity (about 75,000
/// pipelined `/v1/cluster` requests a second on a 2-vCPU host; see
/// `NOTES.md`).
pub const QUERY_RATE: f64 = 15_000.0;
/// Open-loop `/v1/clusters/top?n=10` rate on connection B, req/s.
const TOP_RATE: f64 = 20.0;
/// Closed-loop pipeline depth in the saturation phase.
const SAT_DEPTH: usize = 16;
/// Generator lateness past which a run is marked invalid, µs: a median
/// this late means the generator fell behind its schedule, a p99 this late
/// means it stalled long enough to distort the tail.
const LATE_P50_LIMIT_US: f64 = 1_000.0;
const LATE_P99_LIMIT_US: f64 = 20_000.0;

/// Inputs every daemon workload shares: table generation A on disk, the
/// client population, and the seed log the daemon boots on.
pub struct Serving {
    pub tables: Tables,
    pub files: TableFiles,
    pub pop: Population,
    pub seed_log: PathBuf,
    pub seed_stats: LogStats,
}

impl Serving {
    pub fn generate(args: &Args, report: &mut Report) -> Serving {
        let sizes = args.sizes();
        let tables = gen::tables(args.seed, sizes.bgp, sizes.dump);
        let files = TableFiles::write(&args.work, "gen_a", &tables);
        let pop = Population::new(args.seed, &tables, sizes.clients, sizes.urls);
        let seed_log = args.work.join("access.log");
        let seed_stats = gen::write_log(&seed_log, args.seed, 11, &pop, sizes.seed_lines as u64);
        report.fact("input.prefixes", tables.bgp.len() + tables.dump.len());
        report.fact("input.clients", pop.clients.len());
        report.fact("input.seed_log_bytes", seed_stats.bytes);
        report.fact("input.seed_log_lines", seed_stats.lines);
        report.fact("input.seed_log_malformed", seed_stats.malformed);
        Serving {
            tables,
            files,
            pop,
            seed_log,
            seed_stats,
        }
    }

    /// The offline view a correct daemon must agree with: the same table
    /// and the same log bytes through `StreamingClustering`.
    pub fn offline(&self) -> StreamingClustering {
        let mut s = RunConfig::new().streaming(self.files.load());
        s.push_clf(&std::fs::read(&self.seed_log).expect("read seed log"));
        s
    }

    pub fn daemon_flags(&self, dir: &Path, resume: bool) -> Vec<String> {
        daemon::flags(
            &self.files.bgp,
            &self.files.dump,
            &self.seed_log,
            &dir.join("state"),
            &dir.join("port"),
            resume,
        )
    }
}

/// Boots `trials` daemons one after another and times each from spawn to
/// the first `/healthz` that reports `want` requests; keeps the last one.
pub fn timed_boots(
    args: &Args,
    trials: usize,
    want: u64,
    mut prepare: impl FnMut(usize) -> (PathBuf, Vec<String>),
    report: &mut Report,
) -> Daemon {
    let mut setup = Samples::default();
    let mut kept = None;
    for i in 0..trials {
        let (dir, flags) = prepare(i);
        let d = Daemon::spawn(&args.daemon, &flags, &dir.join("port"), &dir.join("stderr"));
        setup.push(d.wait_total(want).0.as_secs_f64());
        if i + 1 == trials {
            report.fact("daemon.flags", flags.join(" "));
            report.fact("state_dir.fs", report::fs_type(&dir));
            kept = Some(d);
        }
    }
    report.metric("setup_s", setup.median(), "s", setup.len());
    kept.expect("at least one trial")
}

pub fn cluster_path(ip: Ipv4Addr) -> String {
    format!("/v1/cluster?ip={ip}")
}

/// A mixed open-loop query schedule: 90% `/v1/cluster`, 10%
/// `/v1/verdict`, Zipf over seen clients plus 5% unseen or unrouted
/// addresses. Tags index `expected`, which this fills from `offline`.
pub fn query_schedule(
    rng: &mut Rng,
    pop: &Population,
    rate: f64,
    secs: f64,
    offline: &StreamingClustering,
    expected: &mut Vec<Vec<u8>>,
) -> Vec<Req> {
    let policy = VerdictPolicy::default();
    gen::poisson(rng, rate, secs)
        .into_iter()
        .map(|due| {
            let ip = gen::query_addr(rng, pop);
            let (path, body) = if rng.below(10) == 0 {
                (
                    format!("/v1/verdict?ip={ip}"),
                    offline.verdict(ip, &policy).to_json(),
                )
            } else {
                (cluster_path(ip), offline.lookup(ip).to_json())
            };
            expected.push(body.into_bytes());
            Req {
                due,
                tag: (expected.len() - 1) as u32,
                wire: net::get_wire(&path),
            }
        })
        .collect()
}

/// Latency from due time, in µs, of the answered requests whose tag
/// passes `pick`; failures count as infinitely late.
pub fn latencies(done: &[Done], pick: impl Fn(u32) -> bool) -> Samples {
    Samples(
        done.iter()
            .filter(|d| pick(d.tag))
            .map(|d| (d.done - d.due) * 1e6)
            .collect(),
    )
}

/// Records generator lateness for an open-loop phase and marks the run
/// invalid when the generator fell behind its schedule.
pub fn lateness(report: &mut Report, done: &[Done]) {
    let late = Samples(
        done.iter()
            .filter(|d| d.sent.is_finite())
            .map(|d| (d.sent - d.due) * 1e6)
            .collect(),
    );
    let (p50, p99) = (late.median(), late.quantile(0.99));
    report.metric("gen.late_p50_us", p50, "us", late.len());
    report.metric("gen.late_p99_us", p99, "us", late.len());
    if p50 > LATE_P50_LIMIT_US || p99 > LATE_P99_LIMIT_US {
        report.invalid.push(format!(
            "generator behind schedule: lateness p50 {p50:.0} us, p99 {p99:.0} us"
        ));
    }
}

/// Counters read from `/metrics`, as the difference over the measured
/// window so setup probes do not count. `probes` requests the harness sent
/// off the schedule (quiesce `/healthz` probes) are taken out of
/// `serve.http.requests`, so that it is fixed by the schedule.
pub fn record_work(report: &mut Report, before: &Response, after: &Response, probes: u64) {
    let b = daemon::work_counters(&before.body);
    let a = daemon::work_counters(&after.body);
    for ((k, vb), (_, va)) in b.iter().zip(a.iter()) {
        let off_schedule = if *k == "serve.http.requests" {
            probes
        } else {
            0
        };
        report.fact(k, va - vb - off_schedule);
    }
}

/// Daemon boots timed for `setup_s`: one in a traced run, which reports no
/// `setup_s`.
pub fn boot_trials(args: &Args) -> usize {
    if args.trace {
        1
    } else if args.smoke {
        2
    } else {
        5
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let inp = Serving::generate(args, report);
    measure(args, &inp, report);
}

/// The three measured phases against a daemon booted on `inp`.
pub fn measure(args: &Args, inp: &Serving, report: &mut Report) {
    let s = args.seconds;
    let offline = inp.offline();
    let want = offline.total_requests();

    let trials = boot_trials(args);
    let d = timed_boots(
        args,
        trials,
        want,
        |i| {
            let dir = daemon::instance_dir(&args.work, &format!("boot{i}"));
            let flags = inp.daemon_flags(&dir, false);
            (dir, flags)
        },
        report,
    );
    let addr = d.addr;
    let pid = d.pid().to_string();
    let before = d.get("/metrics");

    // Phase 1: open loop. A carries cluster + verdict, B carries top-N.
    let mut rng = Rng::new(args.seed, 20);
    let mut expected = Vec::new();
    let phase1 = (0.5 * s).max(1.0);
    let stream_a = query_schedule(
        &mut rng,
        &inp.pop,
        QUERY_RATE,
        phase1,
        &offline,
        &mut expected,
    );
    let mut top_body = top_to_json(&offline.top(10)).into_bytes();
    if args.corrupt_expected {
        top_body.push(b'!');
        if let Some(e) = expected.first_mut() {
            e.push(b'!');
        }
    }
    let stream_b: Vec<Req> = gen::poisson(&mut rng, TOP_RATE, phase1)
        .into_iter()
        .map(|due| Req {
            due,
            tag: 0,
            wire: net::get_wire("/v1/clusters/top?n=10"),
        })
        .collect();
    let t0 = Instant::now();
    let (done_a, done_b) = std::thread::scope(|sc| {
        let b = sc.spawn(|| {
            net::open_loop(
                addr,
                t0,
                &stream_b,
                &mut |_, r: &Response| r.body == top_body,
                &mut |_| None,
                10.0,
            )
        });
        let a = net::open_loop(
            addr,
            t0,
            &stream_a,
            &mut |tag, r: &Response| r.body == expected[tag as usize],
            &mut |_| None,
            10.0,
        );
        (a, b.join().expect("top-N thread"))
    });
    let cluster = latencies(&done_a, |_| true);
    let top = latencies(&done_b, |_| true);
    record_ops(report, "cluster_or_verdict", &done_a);
    record_ops(report, "top", &done_b);
    lateness(report, &[done_a.as_slice(), done_b.as_slice()].concat());

    // Phase 2: saturation, closed loop on two connections.
    let sat_wires: Vec<(Vec<u8>, usize)> = (0..256)
        .map(|_| {
            let ip = gen::query_addr(&mut rng, &inp.pop);
            expected.push(offline.lookup(ip).to_json().into_bytes());
            (net::get_wire(&cluster_path(ip)), expected.len() - 1)
        })
        .collect();
    let per_conn = if args.smoke {
        5_000
    } else {
        (7_500.0 * s) as usize
    };
    let check = |tag: usize, r: &Response| r.status == 200 && r.body == expected[tag];
    let t = Instant::now();
    let sat = std::thread::scope(|sc| {
        let h: Vec<_> = (0..2)
            .map(|c| {
                let (w, chk) = (&sat_wires, &check);
                sc.spawn(move || net::pipelined(addr, w, SAT_DEPTH, per_conn, c * 128, chk))
            })
            .collect();
        h.into_iter()
            .map(|h| h.join().expect("saturation thread"))
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
    });
    let sat_secs = t.elapsed().as_secs_f64();
    report.ops.add(
        "saturation",
        (2 * per_conn) as u64,
        sat.1 + (2 * per_conn) as u64 - sat.0,
    );

    // Phase 3: one request per fresh connection, closed loop, seeded
    // exponential think time.
    let fresh = if args.smoke { 100 } else { (60.0 * s) as usize };
    let mut conn = Samples::default();
    for _ in 0..fresh {
        std::thread::sleep(std::time::Duration::from_secs_f64(rng.exp(0.002)));
        let (wire, tag) = &sat_wires[rng.below(sat_wires.len() as u64) as usize];
        let wire =
            String::from_utf8_lossy(wire).replace("\r\n\r\n", "\r\nConnection: close\r\n\r\n");
        let t = Instant::now();
        let ok = net::one_shot(addr, wire.as_bytes()).is_ok_and(|r| check(*tag, &r));
        conn.push(if ok {
            report::us(t.elapsed())
        } else {
            f64::INFINITY
        });
        report.ops.record("fresh_connection", ok);
    }

    let after = d.get("/metrics");
    record_work(report, &before, &after, 0);
    report.metric("peak_rss_mb", report::peak_rss_mb(&pid), "MB", 1);
    report.check("daemon.clean_shutdown", d.stop(), "SIGTERM -> exit 0");

    let (attempted, failed) = report.ops.totals();
    report.check(
        "query.answers_equal_offline",
        failed == 0,
        format!("{attempted} answers byte-compared with an offline StreamingClustering"),
    );
    report.fact("query.rate_per_s", QUERY_RATE);
    report.headline("cluster", &cluster);
    report.metric("top_p50_us", top.median(), "us", top.len());
    report.metric(
        "query_sat_per_s",
        sat.0 as f64 / sat_secs,
        "1/s",
        sat.0 as usize,
    );
    report.metric("conn_p50_us", conn.median(), "us", conn.len());
}

pub fn record_ops(report: &mut Report, kind: &str, done: &[Done]) {
    let failed = done.iter().filter(|d| !d.ok).count() as u64;
    report.ops.add(kind, done.len() as u64, failed);
}
