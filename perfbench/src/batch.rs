//! `batch_report`: the paper's offline analysis path, in process. Each
//! pass is what `netclust cluster --method aware` does once its table is
//! compiled: mmap the log, run the fused ingest pipeline at default
//! threads, find the busy clusters, render the top-N table.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use netclust_core::query::render_top_table;
use netclust_core::{threshold_busy, ClusterQuery, Clustering, RunConfig};
use netclust_rtable::{CompiledMerged, MergedTable, RoutingTable, TableKind};
use netclust_weblog::chunk::LogData;

use crate::gen::{self, Population, Sizes};
use crate::report::{self, Report, Samples};
use crate::Args;

/// The table files of one generation, as the CLI reads them.
pub struct TableFiles {
    pub bgp: PathBuf,
    pub dump: PathBuf,
}

impl TableFiles {
    pub fn write(dir: &Path, name: &str, tables: &gen::Tables) -> TableFiles {
        let files = TableFiles {
            bgp: dir.join(format!("{name}.bgp")),
            dump: dir.join(format!("{name}.dump")),
        };
        gen::write_table(&files.bgp, &tables.bgp);
        gen::write_table(&files.dump, &tables.dump);
        files
    }

    /// Reads, parses and merges both tiers (`RoutingTable::parse` →
    /// `MergedTable::merge`).
    pub fn load(&self) -> MergedTable {
        let read = |path: &Path, kind| {
            let text = std::fs::read_to_string(path).expect("read table file");
            let name = path.to_string_lossy().into_owned();
            let (table, bad) = RoutingTable::parse(&name, "file", kind, &text);
            assert_eq!(bad, 0, "generated table {name} has unparsable lines");
            table
        };
        let bgp = read(&self.bgp, TableKind::Bgp);
        let dump = read(&self.dump, TableKind::NetworkDump);
        MergedTable::merge([&bgp, &dump])
    }
}

/// Summary line plus busy-cluster line plus top-10 table: the report a
/// `netclust cluster` user reads.
pub fn render(clustering: &Clustering) -> String {
    let busy = threshold_busy(clustering, 0.7);
    format!(
        "{} requests, {} clients -> {} clusters ({:.2}% clustered, {} unclustered clients)\n\
         busy clusters covering 70% of requests: {} (threshold {} requests)\n{}",
        clustering.total_requests,
        clustering.client_count(),
        clustering.len(),
        clustering.coverage() * 100.0,
        clustering.unclustered.len(),
        busy.busy.len(),
        busy.threshold,
        render_top_table(&clustering.top(10))
    )
}

/// One timed pass after setup.
pub fn pass(run: &RunConfig, compiled: &CompiledMerged, log: &Path) -> String {
    let data = LogData::open(log).expect("open log");
    let report = run
        .pipeline(compiled)
        .try_run(&data)
        .expect("ingest without error budget never fails");
    render(&report.clustering)
}

/// Generated batch inputs on disk.
pub struct Inputs {
    pub tables: TableFiles,
    pub log: PathBuf,
    pub log_stats: gen::LogStats,
    pub prefixes: usize,
    pub clients: usize,
}

pub fn inputs(dir: &Path, seed: u64, sizes: Sizes, lines: usize) -> Inputs {
    let tables = gen::tables(seed, sizes.bgp, sizes.dump);
    let files = TableFiles::write(dir, "gen_a", &tables);
    let pop = Population::new(seed, &tables, sizes.clients, sizes.urls);
    let log = dir.join("batch.log");
    let log_stats = gen::write_log(&log, seed, 10, &pop, lines as u64);
    Inputs {
        tables: files,
        log,
        log_stats,
        prefixes: tables.bgp.len() + tables.dump.len(),
        clients: pop.clients.len(),
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let sizes = args.sizes();
    let inp = inputs(&args.work, args.seed, sizes, sizes.batch_lines);
    report.fact("input.prefixes", inp.prefixes);
    report.fact("input.clients", inp.clients);
    report.fact("input.log_bytes", inp.log_stats.bytes);
    report.fact("input.log_lines", inp.log_stats.lines);
    report.fact("input.log_malformed", inp.log_stats.malformed);

    // Reference answer, computed once: one thread, fixed schedule.
    let reference = {
        let compiled = inp.tables.load().compile();
        let mut text = pass(
            &RunConfig::new().threads(1).deterministic(true),
            &compiled,
            &inp.log,
        );
        if args.corrupt_expected {
            text.push('!');
        }
        text
    };

    // The corpus is on disk and the reference is dropped: from here on the
    // process's peak RSS is the system under test's.
    report::reset_peak_rss();

    let mut setup = Samples::default();
    let mut compiled = None;
    for _ in 0..9 {
        let t = Instant::now();
        let c = inp.tables.load().compile();
        setup.push(t.elapsed().as_secs_f64());
        compiled = Some(c);
    }
    let compiled = compiled.expect("at least one setup");
    report.metric("setup_s", setup.median(), "s", setup.len());

    let run = RunConfig::new();
    let warm = pass(&run, &compiled, &inp.log);
    let mut ok = warm == reference;
    let mut passes = Samples::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while passes.len() < 5 || Instant::now() < deadline {
        let t = Instant::now();
        let out = pass(&run, &compiled, &inp.log);
        passes.push(report::us(t.elapsed()));
        let same = out == reference;
        report.ops.record("report_pass", same);
        ok &= same;
    }
    report.metric("peak_rss_mb", report::peak_rss_mb("self"), "MB", 1);
    report.check(
        "batch.report_equals_reference",
        ok,
        format!(
            "{} passes vs threads(1) deterministic reference",
            passes.len()
        ),
    );

    let mb = inp.log_stats.bytes as f64 / 1e6;
    let p50 = passes.median();
    report.metric("p50_us", p50, "us", passes.len());
    report.metric("batch_mb_per_s", mb / (p50 / 1e6), "MB/s", passes.len());
}
