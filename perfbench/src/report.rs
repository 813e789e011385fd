//! Sample statistics, the run report, and host facts.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// A set of latency or duration samples, in the unit the caller chose.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile `q` in `[0, 1]` (NaN when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Operations attempted and failed, per kind.
#[derive(Debug, Clone, Default)]
pub struct Ops(pub BTreeMap<String, (u64, u64)>);

impl Ops {
    pub fn record(&mut self, kind: &str, ok: bool) {
        let e = self.0.entry(kind.to_string()).or_default();
        e.0 += 1;
        if !ok {
            e.1 += 1;
        }
    }

    pub fn add(&mut self, kind: &str, attempted: u64, failed: u64) {
        let e = self.0.entry(kind.to_string()).or_default();
        e.0 += attempted;
        e.1 += failed;
    }

    pub fn totals(&self) -> (u64, u64) {
        self.0
            .values()
            .fold((0, 0), |(a, f), &(a2, f2)| (a + a2, f + f2))
    }
}

/// Everything one run prints: named metrics with unit and sample count,
/// correctness checks, operation counts, and free-form facts.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, String, usize)>,
    checks: Vec<(String, bool, String)>,
    pub ops: Ops,
    facts: Vec<(String, String)>,
    pub invalid: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.metrics
            .push((name.to_string(), value, unit.to_string(), samples));
    }

    /// The contract's latency metric for an open-loop request stream,
    /// `p50_us`, plus its median, p90 and p99 under the operation's own
    /// name. The tails stay out of the contract: on a shared 2-vCPU host
    /// they move with CPU steal and the co-running top-N and swap work,
    /// and do not repeat within a usable bound.
    pub fn headline(&mut self, op: &str, s: &Samples) {
        self.metric("p50_us", s.median(), "us", s.len());
        self.metric(&format!("{op}_p50_us"), s.median(), "us", s.len());
        self.metric(&format!("{op}_p90_us"), s.quantile(0.9), "us", s.len());
        self.metric(&format!("{op}_p99_us"), s.quantile(0.99), "us", s.len());
    }

    /// Value and sample count of the first metric recorded as `name`.
    pub fn get(&self, name: &str) -> (f64, usize) {
        let m = self
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        (m.1, m.3)
    }

    /// Takes over everything another report recorded, each name under
    /// `prefix.`, so that it stays apart from this report's own.
    pub fn absorb(&mut self, prefix: &str, other: Report) {
        for (kind, (a, f)) in other.ops.0 {
            self.ops.add(&format!("{prefix}.{kind}"), a, f);
        }
        for (name, ok, detail) in other.checks {
            self.check(&format!("{prefix}.{name}"), ok, detail);
        }
        for (name, v) in other.facts {
            self.fact(&format!("{prefix}.{name}"), v);
        }
        for (name, v, unit, n) in other.metrics {
            self.metric(&format!("{prefix}.{name}"), v, &unit, n);
        }
        self.invalid
            .extend(other.invalid.into_iter().map(|w| format!("{prefix}: {w}")));
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.push((name.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.1)
    }

    /// Prints the human-readable report, then the one-line JSON result
    /// carrying the metrics named in `contract` (in that order).
    pub fn print(&self, contract: &[&str]) {
        for (k, v) in &self.facts {
            println!("fact    {k:<28} {v}");
        }
        for (kind, (a, f)) in &self.ops.0 {
            println!("ops     {kind:<28} attempted {a:>9} failed {f:>5}");
        }
        for (name, v, unit, n) in &self.metrics {
            println!("metric  {name:<28} {v:>14.4} {unit:<6} n={n}");
        }
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "pass" } else { "FAIL" };
            println!("check   {name:<28} {verdict} {detail}");
        }
        if self.invalid.is_empty() {
            println!("valid   true");
        } else {
            for why in &self.invalid {
                println!("valid   false: {why}");
            }
        }
        let (attempted, failed) = self.ops.totals();
        let body: Vec<String> = contract
            .iter()
            .map(|name| {
                let (_, v, unit, _) = self
                    .metrics
                    .iter()
                    .find(|m| m.0 == *name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.correct(),
            attempted.max(1),
            body.join(", ")
        );
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets this process's peak-RSS mark to its current RSS.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU model, kernel and core count, for the run record.
pub fn host_facts(report: &mut Report) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.fact("host_threads", threads);
    report.fact("cpu_model", cpu);
    report.fact("kernel", kernel);
}

/// Cumulative `(steal, total)` CPU ticks of the host, from `/proc/stat`:
/// time a hypervisor gave this machine's CPUs to someone else.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt)
                .then(|| (mnt.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t)
}
