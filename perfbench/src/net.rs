//! The load generator's HTTP/1.1 client side: a blocking keep-alive
//! client for setup and checks, one-shot fresh connections, a pipelined
//! closed loop, and an open-loop sender that runs one connection on a
//! `ppoll(2)` loop so a single thread keeps a seeded schedule.

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd as _;
use std::time::{Duration, Instant};

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Parses one response off the front of `buf`: `(response, consumed)`.
pub fn parse_response(buf: &[u8]) -> Option<(Response, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    let total = head_end + 4 + len;
    (buf.len() >= total).then(|| {
        (
            Response {
                status,
                body: buf[head_end + 4..total].to_vec(),
            },
            total,
        )
    })
}

pub fn get_wire(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

pub fn post_wire(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A blocking keep-alive connection.
pub struct Client {
    conn: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        conn.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            conn,
            buf: Vec::with_capacity(4096),
        })
    }

    pub fn send(&mut self, wire: &[u8]) -> std::io::Result<Response> {
        self.conn.write_all(wire)?;
        self.read_one()
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.send(&get_wire(path))
    }

    pub fn read_one(&mut self) -> std::io::Result<Response> {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            if let Some((resp, used)) = parse_response(&self.buf) {
                self.buf.drain(..used);
                return Ok(resp);
            }
            let n = self.conn.read(&mut scratch)?;
            if n == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&scratch[..n]);
        }
    }
}

/// Closed loop at pipeline depth `depth`: sends `total` requests cycling
/// through `wires` and checks each answer with `check`. Returns
/// `(completed, failed)`.
pub fn pipelined(
    addr: SocketAddr,
    wires: &[(Vec<u8>, usize)],
    depth: usize,
    total: usize,
    offset: usize,
    check: &(dyn Fn(usize, &Response) -> bool + Sync),
) -> (u64, u64) {
    let Ok(mut client) = Client::connect(addr) else {
        return (0, total as u64);
    };
    let (mut done, mut failed) = (0u64, 0u64);
    let mut i = offset;
    let mut batch = Vec::new();
    while (done as usize) < total {
        let n = depth.min(total - done as usize);
        batch.clear();
        let first = i;
        for _ in 0..n {
            batch.extend_from_slice(&wires[i % wires.len()].0);
            i += 1;
        }
        if client.conn.write_all(&batch).is_err() {
            return (done, failed + (total as u64 - done));
        }
        for k in 0..n {
            match client.read_one() {
                Ok(resp) => {
                    let w = &wires[(first + k) % wires.len()];
                    if !check(w.1, &resp) {
                        failed += 1;
                    }
                }
                Err(_) => return (done, failed + (total as u64 - done)),
            }
            done += 1;
        }
    }
    (done, failed)
}

/// One request on a fresh connection: connect, send, read, close.
pub fn one_shot(addr: SocketAddr, wire: &[u8]) -> std::io::Result<Response> {
    let mut c = Client::connect(addr)?;
    c.send(wire)
}

/// One scheduled request of an open-loop stream.
#[derive(Debug, Clone)]
pub struct Req {
    /// Seconds after the stream's start when it is due.
    pub due: f64,
    /// Caller's tag (request kind and expected-answer index).
    pub tag: u32,
    pub wire: Vec<u8>,
}

/// What became of one scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub tag: u32,
    pub due: f64,
    /// When the request left the generator (lateness = sent - due).
    pub sent: f64,
    /// When its response completed; `f64::INFINITY` on failure.
    pub done: f64,
    pub ok: bool,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Waits until `fd` is readable (or writable, when `want_write`) or
/// `wait` elapses.
fn wait_fd(fd: i32, want_write: bool, wait: f64) {
    let mut pfd = PollFd {
        fd,
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let wait = wait.clamp(0.0, 1.0);
    let ts = Timespec {
        tv_sec: wait.trunc() as i64,
        tv_nsec: (wait.fract() * 1e9) as i64,
    };
    // SAFETY: `pfd` and `ts` are live, properly laid out `struct pollfd`
    // and `struct timespec` values for the duration of the call; nfds is 1
    // and a null sigmask leaves the signal mask unchanged.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// Drives one keep-alive connection through `reqs` (sorted by due time)
/// on an open loop anchored at `t0`. Requests go out when due whether or
/// not earlier answers arrived; each answer is checked by `check(tag,
/// response)`. `side(now)` runs the caller's own timed events on the same
/// loop and returns when the next one is due (`None` when it has none
/// left). Requests still unanswered `grace` seconds after the last due
/// time count as failed.
pub fn open_loop(
    addr: SocketAddr,
    t0: Instant,
    reqs: &[Req],
    check: &mut dyn FnMut(u32, &Response) -> bool,
    side: &mut dyn FnMut(f64) -> Option<f64>,
    grace: f64,
) -> Vec<Done> {
    let now = || t0.elapsed().as_secs_f64();
    let mut out: Vec<Done> = Vec::with_capacity(reqs.len());
    let mut conn = TcpStream::connect(addr).ok();
    if let Some(c) = &conn {
        let _ = c.set_nodelay(true);
        let _ = c.set_nonblocking(true);
    }
    let mut wbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut rbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut scratch = vec![0u8; 64 * 1024];
    let mut inflight: std::collections::VecDeque<(usize, f64)> = Default::default();
    let mut next = 0usize;
    let last_due = reqs.last().map_or(0.0, |r| r.due);
    let mut side_next = side(now());
    loop {
        let t = now();
        while next < reqs.len() && reqs[next].due <= t {
            wbuf.extend_from_slice(&reqs[next].wire);
            inflight.push_back((next, t));
            next += 1;
        }
        if side_next.is_some_and(|s| s <= t) {
            side_next = side(t);
        }
        let mut broken = conn.is_none();
        if let Some(c) = conn.as_mut() {
            while !wbuf.is_empty() {
                match c.write(&wbuf) {
                    Ok(n) => {
                        wbuf.drain(..n);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            loop {
                match c.read(&mut scratch) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(n) => rbuf.extend_from_slice(&scratch[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
        }
        let t = now();
        while let Some((resp, used)) = parse_response(&rbuf) {
            rbuf.drain(..used);
            let Some((i, sent)) = inflight.pop_front() else {
                break;
            };
            let ok = (200..300).contains(&resp.status) && check(reqs[i].tag, &resp);
            out.push(Done {
                tag: reqs[i].tag,
                due: reqs[i].due,
                sent,
                done: if ok { t } else { f64::INFINITY },
                ok,
            });
        }
        let timed_out = t > last_due + grace;
        if broken || timed_out {
            // Everything unanswered on this connection fails; a broken
            // connection is replaced and the schedule carries on.
            for (i, sent) in inflight.drain(..) {
                out.push(Done {
                    tag: reqs[i].tag,
                    due: reqs[i].due,
                    sent,
                    done: f64::INFINITY,
                    ok: false,
                });
            }
            wbuf.clear();
            rbuf.clear();
            if timed_out {
                for r in &reqs[next..] {
                    out.push(Done {
                        tag: r.tag,
                        due: r.due,
                        sent: f64::INFINITY,
                        done: f64::INFINITY,
                        ok: false,
                    });
                }
                break;
            }
            conn = TcpStream::connect(addr).ok();
            if let Some(c) = &conn {
                let _ = c.set_nodelay(true);
                let _ = c.set_nonblocking(true);
            }
        }
        if next == reqs.len() && inflight.is_empty() && side_next.is_none() {
            break;
        }
        let t = now();
        let mut wake = reqs.get(next).map_or(t + 0.05, |r| r.due);
        if let Some(s) = side_next {
            wake = wake.min(s);
        }
        match &conn {
            Some(c) => wait_fd(c.as_raw_fd(), !wbuf.is_empty(), wake - t),
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    out
}
