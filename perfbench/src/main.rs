//! netclust benchmark harness.
//!
//! ```text
//! perfbench --daemon PATH --workload NAME --seed N --seconds S --trace 0|1
//!           [--smoke] [--corrupt-expected]
//! ```
//!
//! Workloads: `batch_report` (the CLI's report chain, in process),
//! `query_steady` (a `netclustd` process under open-loop, saturating and
//! fresh-connection query traffic), `live_churn` (a resumed `netclustd`
//! with log appends, delta batches and table swaps beside the queries).
//! `--trace 1` replays the workload's inputs in process through each
//! layer's public calls and reports per-layer metrics instead.
//!
//! The last stdout line is the JSON result; see `perfbench/NOTES.md`.

mod batch;
mod churn;
mod daemon;
mod gen;
mod net;
mod query;
mod report;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// End-to-end metrics every untraced run reports, in `BENCHMARK.json` order.
const END_TO_END: &[&str] = &["setup_s", "peak_rss_mb", "p50_us"];

/// Command-line arguments.
#[derive(Clone)]
pub struct Args {
    pub daemon: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub corrupt_expected: bool,
    pub work: PathBuf,
}

impl Args {
    pub fn sizes(&self) -> gen::Sizes {
        if self.smoke {
            gen::Sizes::smoke()
        } else {
            gen::Sizes::full()
        }
    }

    fn parse() -> Result<Args, String> {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let get = |name: &str| {
            raw.iter()
                .position(|a| a == name)
                .and_then(|i| raw.get(i + 1))
                .cloned()
        };
        let flag = |name: &str| raw.iter().any(|a| a == name);
        let workload = get("--workload").ok_or("--workload is required")?;
        if !["batch_report", "query_steady", "live_churn"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let num = |name: &str, default: &str| -> Result<f64, String> {
            get(name)
                .unwrap_or_else(|| default.to_string())
                .parse::<f64>()
                .map_err(|_| format!("{name} wants a number"))
        };
        let trace = match get("--trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace wants 0 or 1, got {other:?}")),
        };
        let seed = num("--seed", "1")? as u64;
        let work =
            PathBuf::from(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
        Ok(Args {
            daemon: PathBuf::from(get("--daemon").ok_or("--daemon is required")?),
            workload,
            seed,
            seconds: num("--seconds", "10")?.max(1.0),
            trace,
            smoke: flag("--smoke"),
            corrupt_expected: flag("--corrupt-expected"),
            work,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.work);
    std::fs::create_dir_all(&args.work).expect("create work dir");

    let mut report = Report::default();
    report::host_facts(&mut report);
    report.fact("workload", &args.workload);
    report.fact("seed", args.seed);
    report.fact("smoke", args.smoke);
    report.fact("trace", args.trace);

    let ticks = report::cpu_ticks();
    let contract: Vec<&str> = if args.trace {
        trace::run(&args, &mut report);
        trace::PER_LAYER.to_vec()
    } else {
        match args.workload.as_str() {
            "batch_report" => batch::run(&args, &mut report),
            "query_steady" => query::run(&args, &mut report),
            _ => churn::run(&args, &mut report),
        }
        END_TO_END.to_vec()
    };
    let (steal, total) = report::cpu_ticks();
    let share = (steal - ticks.0) as f64 / (total - ticks.1).max(1) as f64;
    report.fact("host.cpu_steal_pct", format!("{:.1}", share * 100.0));
    let _ = std::fs::remove_dir_all(&args.work);
    let _ = std::fs::remove_dir(".bench_work");
    report.print(&contract);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
