//! `live_churn`: a `netclustd` resumed from a crash, serving the same
//! open-loop query stream as `query_steady` while the log grows, BGP delta
//! batches arrive and the whole table is swapped every two seconds.
//! Every live-path layer works here: follower poll, `push_clf`, patch,
//! journal append, compile under the write lock, checkpoint.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::Instant;

use netclust_core::query::top_to_json;
use netclust_core::{ClusterQuery, RunConfig, StreamingClustering};

use crate::batch::TableFiles;
use crate::daemon::{self, json_u64, Daemon};
use crate::gen::{self, Rng};
use crate::net::{self, Client, Done, Req, Response};
use crate::query::{self, Serving, QUERY_RATE};
use crate::report::{Report, Samples};
use crate::Args;

/// `/healthz` freshness probes on connection A, per second.
const HEALTH_RATE: f64 = 200.0;
/// Delta batches on connection B, per second.
pub const DELTA_RATE: f64 = 10.0;
/// Full table swaps on connection B, per second (one per jittered slot).
/// At 20 deltas/s plus one swap a second the reload connection runs past
/// saturation on a 2-vCPU host and its latency grows with run length.
pub const SWAP_RATE: f64 = 0.5;
/// Log append batches per second, and lines per batch (about 1 MB/s).
pub const APPEND_RATE: f64 = 20.0;
const APPEND_LINES: u64 = 320;

const HEALTH: u32 = 1 << 31;
const SWAP: u32 = 1 << 30;

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create state copy");
    for entry in std::fs::read_dir(from).expect("read state dir") {
        let entry = entry.expect("state dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy state file");
    }
}

/// Waits until the daemon's checkpoint counter stops moving (the idle
/// checkpoint after catch-up has landed).
fn settle_checkpoints(d: &Daemon) {
    let mut last = u64::MAX;
    let mut still = 0;
    while still < 4 {
        let now = json_u64(&d.get("/metrics").body, "serve.checkpoints").unwrap_or(0);
        still = if now == last { still + 1 } else { 0 };
        last = now;
        std::thread::sleep(std::time::Duration::from_millis(150));
    }
}

/// Answers compared across the crash: sampled `/v1/cluster` plus top-N.
fn answers(d: &Daemon, sample: &[Ipv4Addr]) -> Vec<Vec<u8>> {
    let mut c = Client::connect(d.addr).expect("connect");
    let mut out: Vec<Vec<u8>> = sample
        .iter()
        .map(|ip| c.get(&query::cluster_path(*ip)).expect("cluster").body)
        .collect();
    out.push(c.get("/v1/clusters/top?n=10").expect("top").body);
    out
}

fn offline_answers(s: &StreamingClustering, sample: &[Ipv4Addr]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = sample
        .iter()
        .map(|ip| s.lookup(*ip).to_json().into_bytes())
        .collect();
    out.push(top_to_json(&s.top(10)).into_bytes());
    out
}

pub fn run(args: &Args, report: &mut Report) {
    let inp = Serving::generate(args, report);
    measure(args, &inp, report);
}

/// Preparation, timed recoveries and the churn schedule on `inp`. It
/// appends to `inp.seed_log`.
pub fn measure(args: &Args, inp: &Serving, report: &mut Report) {
    let gen_b = gen::next_generation(args.seed, &inp.tables);
    let files_b = TableFiles::write(&args.work, "gen_b", &gen_b);
    let want = inp.offline().total_requests();
    let dur = (0.8 * args.seconds).max(1.0);
    let prep_n = if args.smoke { 40 } else { 300 };
    let feed = gen::delta_batches(
        args.seed,
        &inp.tables.bgp,
        prep_n + (DELTA_RATE * dur * 2.0) as usize + 16,
    );
    let mut rng = Rng::new(args.seed, 30);
    let sample: Vec<Ipv4Addr> = (0..if args.smoke { 200 } else { 2000 })
        .map(|_| gen::query_addr(&mut rng, &inp.pop))
        .collect();

    // Preparation (untimed): boot on the seed log, let the idle checkpoint
    // land, journal delta batches after it, record answers, SIGKILL.
    let prep = daemon::instance_dir(&args.work, "prep");
    let pre_kill = {
        let flags = inp.daemon_flags(&prep, false);
        let d = Daemon::spawn(
            &args.daemon,
            &flags,
            &prep.join("port"),
            &prep.join("stderr"),
        );
        d.wait_total(want);
        settle_checkpoints(&d);
        let mut c = Client::connect(d.addr).expect("connect");
        for (_, body) in &feed[..prep_n] {
            let r = c
                .send(&net::post_wire("/v1/reload", body))
                .expect("prep delta");
            report.ops.record("prep_delta", r.status == 200);
        }
        let a = answers(&d, &sample);
        drop(d);
        a
    };

    // Timed crash recoveries, each from its own copy of the killed state.
    let trials = query::boot_trials(args);
    let d = query::timed_boots(
        args,
        trials,
        want,
        |i| {
            let dir = daemon::instance_dir(&args.work, &format!("resume{i}"));
            copy_dir(&prep.join("state"), &dir.join("state"));
            (dir.clone(), inp.daemon_flags(&dir, true))
        },
        report,
    );
    let mut resumed = answers(&d, &sample);
    if args.corrupt_expected {
        resumed[0].push(b'!');
    }
    report.check(
        "churn.resume_equals_pre_kill",
        resumed == pre_kill,
        format!("{} answers after SIGKILL + --resume", resumed.len()),
    );
    let addr = d.addr;
    let pid = d.pid().to_string();
    let before = d.get("/metrics");

    // Connection A: the query_steady stream plus /healthz probes.
    let offline = inp.offline();
    let mut expected = Vec::new();
    let mut stream_a =
        query::query_schedule(&mut rng, &inp.pop, QUERY_RATE, dur, &offline, &mut expected);
    drop(offline);
    let health: Vec<f64> = gen::poisson(&mut rng, HEALTH_RATE, dur);
    stream_a.extend(health.iter().enumerate().map(|(k, &due)| Req {
        due,
        tag: HEALTH | k as u32,
        wire: net::get_wire("/healthz"),
    }));
    stream_a.sort_by(|a, b| a.due.total_cmp(&b.due));

    // Connection B: delta batches and alternating full swaps.
    let swap_wire = |files: &TableFiles| {
        net::post_wire(
            &format!(
                "/v1/reload?table={}&dump={}",
                files.bgp.display(),
                files.dump.display()
            ),
            "",
        )
    };
    let mut stream_b: Vec<Req> = gen::poisson(&mut rng, DELTA_RATE, dur)
        .into_iter()
        .enumerate()
        .map(|(k, due)| Req {
            due,
            tag: k as u32,
            wire: net::post_wire("/v1/reload", &feed[prep_n + k].1),
        })
        .collect();
    // One swap in each slot of 1/SWAP_RATE seconds, at a uniform offset:
    // a fixed count per run, never phase-locked to the daemon's timers.
    // Even slots swap to generation B, odd ones back to A.
    let generation = |slot: u32| {
        if slot.is_multiple_of(2) {
            &files_b
        } else {
            &inp.files
        }
    };
    let slots = (dur * SWAP_RATE).floor().max(1.0) as u32;
    stream_b.extend((0..slots).map(|k| Req {
        due: (f64::from(k) + rng.unit()) / SWAP_RATE,
        tag: SWAP | k,
        wire: swap_wire(generation(k)),
    }));
    stream_b.sort_by(|a, b| a.due.total_cmp(&b.due));

    // Appends: Poisson-timed batches of valid lines, written on B's loop.
    let appends: Vec<(f64, Vec<u8>)> = gen::poisson(&mut rng, APPEND_RATE, dur)
        .into_iter()
        .enumerate()
        .map(|(k, due)| {
            let first = inp.seed_stats.lines + k as u64 * APPEND_LINES;
            (due, gen::clf_lines(&mut rng, &inp.pop, first, APPEND_LINES))
        })
        .collect();
    let mut log = OpenOptions::new()
        .append(true)
        .open(&inp.seed_log)
        .expect("open log for append");
    let mut written: Vec<(f64, u64)> = Vec::with_capacity(appends.len());
    let mut next_append = 0usize;
    let mut totals: Vec<u64> = vec![0; health.len()];

    let t0 = Instant::now();
    let (done_a, done_b) = std::thread::scope(|sc| {
        let b = sc.spawn(|| {
            let mut side = |now: f64| {
                while let Some((due, bytes)) = appends.get(next_append) {
                    if *due > now {
                        return Some(*due);
                    }
                    log.write_all(bytes).expect("append to log");
                    log.flush().expect("flush log");
                    next_append += 1;
                    let total = want + next_append as u64 * APPEND_LINES;
                    written.push((t0.elapsed().as_secs_f64(), total));
                }
                None
            };
            net::open_loop(
                addr,
                t0,
                &stream_b,
                &mut |_, r: &Response| r.status == 200,
                &mut side,
                30.0,
            )
        });
        let a = net::open_loop(
            addr,
            t0,
            &stream_a,
            &mut |tag, r: &Response| {
                if tag & HEALTH != 0 {
                    totals[(tag & !HEALTH) as usize] =
                        json_u64(&r.body, "total_requests").unwrap_or(0);
                }
                true
            },
            &mut |_| None,
            10.0,
        );
        (a, b.join().expect("reload thread"))
    });

    // Quiesce: writers are done; wait for the follower to take every byte.
    // Five poll intervals first, so that one probe normally suffices.
    std::thread::sleep(std::time::Duration::from_secs(1));
    let final_total = want + appends.len() as u64 * APPEND_LINES;
    let (_, probes) = d.wait_total(final_total);
    report.fact("quiesce.probes", probes);
    let after = d.get("/metrics");
    query::record_work(report, &before, &after, probes);
    report.metric("peak_rss_mb", crate::report::peak_rss_mb(&pid), "MB", 1);

    // Offline rebuild: the last swapped generation, the deltas accepted
    // after it, then every byte of the log.
    let last_swap = stream_b
        .iter()
        .rposition(|r| r.tag & SWAP != 0)
        .expect("every run has at least one swap slot");
    let mut rebuild =
        RunConfig::new().streaming(generation(stream_b[last_swap].tag & !SWAP).load());
    for r in &stream_b[last_swap + 1..] {
        rebuild.apply_deltas(&feed[prep_n + r.tag as usize].0);
    }
    rebuild.push_clf(&std::fs::read(&inp.seed_log).expect("read grown log"));
    let health_now = d.get("/healthz").body;
    let health_ok = json_u64(&health_now, "total_requests") == Some(rebuild.total_requests())
        && json_u64(&health_now, "clusters") == Some(rebuild.len() as u64);
    report.check(
        "churn.healthz_equals_rebuild",
        health_ok,
        format!("total_requests {}", rebuild.total_requests()),
    );
    let live = answers(&d, &sample);
    let want_answers = offline_answers(&rebuild, &sample);
    report.check(
        "churn.answers_equal_rebuild",
        live == want_answers,
        format!("{} sampled answers + top-10", live.len()),
    );
    report.check("daemon.clean_shutdown", d.stop(), "SIGTERM -> exit 0");

    // Metrics.
    let queries = query::latencies(&done_a, |t| t & HEALTH == 0);
    let deltas = query::latencies(&done_b, |t| t & SWAP == 0);
    let swaps = query::latencies(&done_b, |t| t & SWAP != 0);
    let answered: Vec<(f64, u64)> = done_a
        .iter()
        .filter(|x| x.tag & HEALTH != 0 && x.ok)
        .map(|x| (x.done, totals[(x.tag & !HEALTH) as usize]))
        .collect();
    let mut fresh = Samples::default();
    for &(at, total) in &written {
        let seen = answered
            .iter()
            .filter(|(t, tot)| *t >= at && *tot >= total)
            .map(|(t, _)| *t)
            .fold(f64::INFINITY, f64::min);
        fresh.push((seen - at) * 1e3);
    }
    for (kind, done, mask, set) in [
        ("cluster_or_verdict", &done_a, HEALTH, false),
        ("healthz", &done_a, HEALTH, true),
        ("reload_delta", &done_b, SWAP, false),
        ("reload_swap", &done_b, SWAP, true),
    ] {
        let picked: Vec<Done> = done
            .iter()
            .filter(|x| (x.tag & mask != 0) == set)
            .copied()
            .collect();
        query::record_ops(report, kind, &picked);
    }
    report.ops.add("log_append", written.len() as u64, 0);
    query::lateness(report, &[done_a.as_slice(), done_b.as_slice()].concat());

    report.headline("cluster", &queries);
    report.metric("log_fresh_p50_ms", fresh.median(), "ms", fresh.len());
    report.metric("delta_p50_ms", deltas.median() / 1e3, "ms", deltas.len());
    report.metric("swap_p50_ms", swaps.median() / 1e3, "ms", swaps.len());
}
