//! Seeded input generation: routing tables, client populations, CLF logs,
//! delta feeds and request schedules. Everything here is a pure function
//! of the workload seed, so one seed always yields byte-identical inputs.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::net::Ipv4Addr;
use std::path::Path;

use netclust_bgpsim::{DeltaStream, DeltaStreamConfig};
use netclust_prefix::Ipv4Net;
use netclust_rtable::{DeltaKind, TableDelta};

/// SplitMix64: small, fast, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn range(&mut self, lo: u64, hi_inclusive: u64) -> u64 {
        lo + self.below(hi_inclusive - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Input sizes. `full` is the benchmark proper; `smoke` runs every
/// workload and every check in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub bgp: usize,
    pub dump: usize,
    pub clients: usize,
    pub urls: usize,
    pub seed_lines: usize,
    pub batch_lines: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            bgp: 80_000,
            dump: 30_000,
            clients: 150_000,
            urls: 20_000,
            seed_lines: 1_000_000,
            batch_lines: 2_000_000,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            bgp: 4_000,
            dump: 1_500,
            clients: 3_000,
            urls: 500,
            seed_lines: 20_000,
            batch_lines: 60_000,
        }
    }
}

/// One generation of the serving table: the BGP tier and the registry
/// (network-dump) tier.
#[derive(Debug, Clone)]
pub struct Tables {
    pub bgp: Vec<Ipv4Net>,
    pub dump: Vec<Ipv4Net>,
}

/// First octets no generated prefix covers: 0, loopback, and everything
/// from multicast up. Unrouted clients live in 240.0.0.0/4.
fn routable_octet(addr: u32) -> bool {
    let first = addr >> 24;
    first != 0 && first != 127 && first < 224
}

const UNROUTED_BASE: u32 = 240 << 24;

fn bgp_prefix(rng: &mut Rng) -> Ipv4Net {
    loop {
        // BGP-like length mix: dominated by /24 and /16–/23.
        let roll = rng.below(100);
        let len = if roll < 55 {
            24
        } else if roll < 85 {
            rng.range(16, 23)
        } else if roll < 95 {
            rng.range(25, 28)
        } else {
            rng.range(8, 15)
        } as u8;
        let addr = rng.next_u64() as u32;
        if routable_octet(addr) {
            return Ipv4Net::new(addr, len).expect("len <= 32");
        }
    }
}

/// Generates the first table generation: `n_bgp` BGP prefixes and
/// `n_dump` registry prefixes, two thirds of them more-specifics of a BGP
/// prefix (the registry's finer allocations), the rest standalone.
pub fn tables(seed: u64, n_bgp: usize, n_dump: usize) -> Tables {
    let mut rng = Rng::new(seed, 1);
    let mut bgp = BTreeSet::new();
    while bgp.len() < n_bgp {
        bgp.insert(bgp_prefix(&mut rng));
    }
    let bgp: Vec<Ipv4Net> = bgp.into_iter().collect();
    let mut dump = BTreeSet::new();
    while dump.len() < n_dump {
        if rng.below(3) < 2 {
            let parent = bgp[rng.below(bgp.len() as u64) as usize];
            let len = (parent.len() + rng.range(1, 8) as u8).min(30);
            let host = rng.next_u64() as u32 & !parent.netmask_u32();
            dump.insert(Ipv4Net::new(parent.addr_u32() | host, len).expect("len <= 32"));
        } else {
            let addr = rng.next_u64() as u32;
            if routable_octet(addr) {
                let len = rng.range(16, 24) as u8;
                dump.insert(Ipv4Net::new(addr, len).expect("len <= 32"));
            }
        }
    }
    Tables {
        bgp,
        dump: dump.into_iter().collect(),
    }
}

/// The next table generation: 1% of BGP prefixes withdrawn and as many
/// fresh ones announced, the registry tier unchanged. Small enough to
/// pass the default swap policy's coverage-retention gate.
pub fn next_generation(seed: u64, base: &Tables) -> Tables {
    let mut rng = Rng::new(seed, 2);
    let mut bgp: BTreeSet<Ipv4Net> = base.bgp.iter().copied().collect();
    let churn = (base.bgp.len() / 100).max(1);
    for _ in 0..churn {
        let victim = base.bgp[rng.below(base.bgp.len() as u64) as usize];
        bgp.remove(&victim);
    }
    let target = bgp.len() + churn;
    while bgp.len() < target {
        bgp.insert(bgp_prefix(&mut rng));
    }
    Tables {
        bgp: bgp.into_iter().collect(),
        dump: base.dump.clone(),
    }
}

pub fn write_table(path: &Path, prefixes: &[Ipv4Net]) {
    let mut out = BufWriter::new(File::create(path).expect("create table file"));
    for p in prefixes {
        writeln!(out, "{p}").expect("write table file");
    }
    out.flush().expect("flush table file");
}

/// Zipf weights over ranks `0..n` with exponent `s`, as a cumulative
/// distribution for inverse-transform sampling.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|i| {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn sample(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// The client population: addresses in Zipf rank order (rank 0 busiest)
/// and the URL popularity curve.
#[derive(Debug, Clone)]
pub struct Population {
    pub clients: Vec<u32>,
    client_cdf: Vec<f64>,
    url_cdf: Vec<f64>,
}

impl Population {
    /// `n` clients, 99% inside a random table prefix and 1% outside every
    /// prefix, ranked in random order so busy clients spread over the table.
    pub fn new(seed: u64, tables: &Tables, n: usize, urls: usize) -> Population {
        let mut rng = Rng::new(seed, 3);
        let total = (tables.bgp.len() + tables.dump.len()) as u64;
        let mut seen = BTreeSet::new();
        let mut clients = Vec::with_capacity(n);
        while clients.len() < n {
            let addr = if rng.below(100) == 0 {
                UNROUTED_BASE | (rng.next_u64() as u32 & 0x0FFF_FFFF)
            } else {
                let i = rng.below(total) as usize;
                let net = tables
                    .bgp
                    .get(i)
                    .copied()
                    .unwrap_or_else(|| tables.dump[i - tables.bgp.len()]);
                net.addr_u32() | (rng.next_u64() as u32 & !net.netmask_u32())
            };
            if seen.insert(addr) {
                clients.push(addr);
            }
        }
        Population {
            clients,
            client_cdf: zipf_cdf(n, 0.9),
            url_cdf: zipf_cdf(urls, 0.8),
        }
    }

    pub fn client(&self, rng: &mut Rng) -> u32 {
        self.clients[sample(&self.client_cdf, rng)]
    }

    fn url(&self, rng: &mut Rng) -> usize {
        sample(&self.url_cdf, rng)
    }
}

const MONTH: &str = "Feb/1998";

/// Appends one combined-format CLF line for request number `i`.
fn push_line(out: &mut Vec<u8>, rng: &mut Rng, pop: &Population, i: u64) {
    let addr = Ipv4Addr::from(pop.client(rng));
    let url = pop.url(rng);
    let referer = pop.url(rng);
    let bytes = rng.range(200, 20_000);
    let secs = i / 20;
    let day = 13 + secs / 86_400;
    let (h, m, s) = ((secs / 3600) % 24, (secs / 60) % 60, secs % 60);
    let _ = writeln!(
        out,
        "{addr} - - [{day:02}/{MONTH}:{h:02}:{m:02}:{s:02} +0000] \"GET /p/{url}.html HTTP/1.0\" \
         200 {bytes} \"http://www.example.com/p/{referer}.html\" \
         \"Mozilla/4.0 (compatible; MSIE 5.0; Windows 98)\""
    );
}

/// What a generated log holds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogStats {
    pub bytes: u64,
    pub lines: u64,
    pub malformed: u64,
}

/// Writes a log of `lines` lines, about 0.5% of them malformed.
pub fn write_log(path: &Path, seed: u64, stream: u64, pop: &Population, lines: u64) -> LogStats {
    let mut rng = Rng::new(seed, stream);
    let mut file = BufWriter::with_capacity(1 << 20, File::create(path).expect("create log"));
    let mut stats = LogStats::default();
    let mut buf = Vec::with_capacity(1 << 16);
    for i in 0..lines {
        if rng.below(200) == 0 {
            let addr = Ipv4Addr::from(pop.client(&mut rng));
            let _ = writeln!(buf, "{addr} - - [garbled \"GET");
            stats.malformed += 1;
        } else {
            push_line(&mut buf, &mut rng, pop, i);
        }
        if buf.len() >= 1 << 16 {
            file.write_all(&buf).expect("write log");
            stats.bytes += buf.len() as u64;
            buf.clear();
        }
    }
    file.write_all(&buf).expect("write log");
    stats.bytes += buf.len() as u64;
    stats.lines = lines;
    // On disk before anything is timed: background writeback of a few
    // hundred MB would otherwise run during the first measured seconds.
    file.into_inner()
        .expect("flush log")
        .sync_all()
        .expect("sync log");
    stats
}

/// `lines` valid CLF lines numbered from `first`, for appends to a tailed log.
pub fn clf_lines(rng: &mut Rng, pop: &Population, first: u64, lines: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(lines as usize * 160);
    for i in first..first + lines {
        push_line(&mut out, rng, pop, i);
    }
    out
}

/// `n` BGP delta batches over `live` (the serving BGP tier), rendered as
/// `/v1/reload` bodies beside their typed form.
pub fn delta_batches(seed: u64, live: &[Ipv4Net], n: usize) -> Vec<(Vec<TableDelta>, String)> {
    DeltaStream::new(seed, live.to_vec(), DeltaStreamConfig::default())
        .filter(|b| !b.session_reset && !b.deltas.is_empty())
        .take(n)
        .map(|b| {
            let body: String = b
                .deltas
                .iter()
                .map(|d| {
                    let verb = match d.kind {
                        DeltaKind::Announce => "announce",
                        DeltaKind::Withdraw => "withdraw",
                        DeltaKind::Replace => "replace",
                    };
                    format!("{verb} {}\n", d.prefix)
                })
                .collect();
            (b.deltas, body)
        })
        .collect()
}

/// Poisson arrival times (seconds from phase start) at `rate` per second
/// over `secs` seconds.
pub fn poisson(rng: &mut Rng, rate: f64, secs: f64) -> Vec<f64> {
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * secs * 1.1) as usize + 8);
    loop {
        t += rng.exp(1.0 / rate);
        if t >= secs {
            return out;
        }
        out.push(t);
    }
}

/// A query address: Zipf over seen clients, with 5% unseen or unrouted.
pub fn query_addr(rng: &mut Rng, pop: &Population) -> Ipv4Addr {
    if rng.below(20) == 0 {
        if rng.below(2) == 0 {
            Ipv4Addr::from(UNROUTED_BASE | (rng.next_u64() as u32 & 0x0FFF_FFFF))
        } else {
            Ipv4Addr::from(rng.next_u64() as u32)
        }
    } else {
        Ipv4Addr::from(pop.client(rng))
    }
}
