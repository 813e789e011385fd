//! Spawning, probing and stopping a real `netclustd` process.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::net::{Client, Response};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// One running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    spawned: Instant,
}

/// The flags a daemon runs with: paths, listen address and port file;
/// everything else stays at its default.
pub fn flags(
    tables: &Path,
    dumps: &Path,
    log: &Path,
    state: &Path,
    port_file: &Path,
    resume: bool,
) -> Vec<String> {
    let mut f: Vec<String> = [
        ("--table", tables),
        ("--dump", dumps),
        ("--log", log),
        ("--state-dir", state),
        ("--port-file", port_file),
    ]
    .iter()
    .flat_map(|(k, v)| [k.to_string(), v.to_string_lossy().into_owned()])
    .collect();
    f.extend(["--listen".to_string(), "127.0.0.1:0".to_string()]);
    if resume {
        f.push("--resume".to_string());
    }
    f
}

impl Daemon {
    /// Spawns the daemon and waits until it accepts connections.
    pub fn spawn(bin: &Path, args: &[String], port_file: &Path, log: &Path) -> Daemon {
        let _ = std::fs::remove_file(port_file);
        let err = std::fs::File::create(log).expect("create daemon log");
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
        let deadline = Instant::now() + Duration::from_secs(120);
        let addr = loop {
            if let Some(addr) = std::fs::read_to_string(port_file)
                .ok()
                .and_then(|s| s.trim().parse::<SocketAddr>().ok())
            {
                break addr;
            }
            if let Ok(Some(status)) = child.try_wait() {
                panic!(
                    "netclustd exited during boot ({status}): {}",
                    std::fs::read_to_string(log).unwrap_or_default()
                );
            }
            assert!(
                Instant::now() < deadline,
                "netclustd never wrote its port file"
            );
            std::thread::sleep(Duration::from_micros(500));
        };
        Daemon {
            child,
            addr,
            spawned,
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Probes `/healthz` on one keep-alive connection until
    /// `total_requests` reaches `want`; returns the time since spawn and
    /// the number of probes sent.
    pub fn wait_total(&self, want: u64) -> (Duration, u64) {
        let deadline = Instant::now() + Duration::from_secs(150);
        let mut client = Client::connect(self.addr).expect("connect to daemon");
        let mut probes = 0;
        loop {
            let resp = client.get("/healthz").expect("healthz");
            probes += 1;
            let total = json_u64(&resp.body, "total_requests").unwrap_or(0);
            if total >= want {
                assert_eq!(total, want, "daemon ingested more than the log holds");
                return (self.spawned.elapsed(), probes);
            }
            assert!(
                Instant::now() < deadline,
                "daemon stuck at {total} of {want}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn get(&self, path: &str) -> Response {
        Client::connect(self.addr)
            .and_then(|mut c| c.get(path))
            .unwrap_or_else(|e| panic!("GET {path}: {e}"))
    }

    /// Graceful stop (SIGTERM: drain, final checkpoint); true on exit 0.
    pub fn stop(mut self) -> bool {
        // SAFETY: `kill` is the libc function std links; the pid is our own
        // live child, which we have not yet reaped.
        unsafe {
            kill(self.child.id() as i32, SIGTERM);
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return status.success();
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Reads `"key": <u64>` out of a flat JSON body.
pub fn json_u64(body: &[u8], key: &str) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let at = text.find(&format!("\"{key}\": "))? + key.len() + 4;
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The `serve.*` work counters of a `/metrics` body.
pub const WORK_COUNTERS: &[&str] = &[
    "serve.http.requests",
    "serve.http.errors",
    "serve.follow.chunks",
    "serve.follow.bytes",
    "serve.checkpoints",
    "serve.reload.deltas",
    "serve.reload.swaps",
];

pub fn work_counters(metrics: &[u8]) -> Vec<(&'static str, u64)> {
    WORK_COUNTERS
        .iter()
        .map(|k| (*k, json_u64(metrics, k).unwrap_or(0)))
        .collect()
}

/// A scratch directory for one daemon instance.
pub fn instance_dir(work: &Path, name: &str) -> PathBuf {
    let dir = work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create instance dir");
    dir
}
