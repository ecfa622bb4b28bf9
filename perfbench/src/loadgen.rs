//! Open-loop HTTP load generator: a seeded request mix sent on a seeded
//! Poisson schedule, with latency timed from each request's intended send
//! time so that queueing and generator stalls count against the server.
//!
//! Two threads, one keep-alive connection each. A thread writes every
//! request as soon as it is due (pipelining behind earlier ones) and reads
//! replies into a buffer between sends. Socket read timeouts tick in
//! scheduler jiffies (milliseconds), far too coarse here, so sockets are
//! nonblocking and an idle thread sleeps until its next send or, with
//! replies outstanding, polls every few tens of microseconds.

use crate::stats::{percentile, summarize, SplitMix};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Request classes of the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `at=` single element on a Zipf-hot pixel.
    Element,
    /// `agg=mean` over a pixel block and a time window.
    Agg,
    /// A full time fiber of one pixel.
    Fiber,
    /// One frame window of about 700 values.
    Frame,
    /// `POST .../batch` of 16 hot elements.
    Batch,
}

/// Every kind, in reporting order.
pub const KINDS: [Kind; 5] = [
    Kind::Element,
    Kind::Agg,
    Kind::Fiber,
    Kind::Frame,
    Kind::Batch,
];

/// Requests per latency block: the smallest count whose p99 has ten
/// samples beyond it.
pub const BLOCK: usize = 1000;

/// Elements per batch request.
pub const BATCH: usize = 16;

/// One request: its class, its range spec(s) and its bytes on the wire.
#[derive(Debug, Clone)]
pub struct Req {
    /// Request class.
    pub kind: Kind,
    /// Range specs: one, or [`BATCH`] for a batch.
    pub specs: Vec<String>,
    /// The full HTTP/1.1 request.
    pub wire: Vec<u8>,
}

/// Seeded generator of the serving mix over one artifact. The two leading
/// modes are the "pixel" plane and the last mode is time; any modes between
/// are drawn uniformly per request.
#[derive(Debug, Clone)]
pub struct Mix {
    name: String,
    shape: Vec<usize>,
    hot: Vec<(usize, usize)>,
    zipf_cdf: Vec<f64>,
    rng: SplitMix,
}

/// Distinct hot pixels; Zipf exponent over them.
const HOT_PIXELS: usize = 512;
const ZIPF_S: f64 = 1.1;

impl Mix {
    /// The mix for artifact `name` of `shape` (order ≥ 3).
    pub fn new(name: &str, shape: &[usize], seed: u64) -> Self {
        let mut rng = SplitMix::new(seed ^ 0x5EED_0F7A_FF1C);
        let hot = (0..HOT_PIXELS)
            .map(|_| (rng.below(shape[0]), rng.below(shape[1])))
            .collect();
        let weights: Vec<f64> = (1..=HOT_PIXELS).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Mix {
            name: name.to_string(),
            shape: shape.to_vec(),
            hot,
            zipf_cdf,
            rng,
        }
    }

    fn hot_pixel(&mut self) -> (usize, usize) {
        let u = self.rng.unit();
        let r = self.zipf_cdf.partition_point(|&c| c < u);
        self.hot[r.min(HOT_PIXELS - 1)]
    }

    /// Middle-mode terms (between the pixel plane and time), drawn uniformly.
    fn middle(&mut self) -> String {
        let n = self.shape.len();
        let mut s = String::new();
        for m in 2..n - 1 {
            s.push_str(&format!("{},", self.rng.below(self.shape[m])));
        }
        s
    }

    fn element_spec(&mut self) -> String {
        let (i, j) = self.hot_pixel();
        let mid = self.middle();
        let t = self.rng.below(self.shape[self.shape.len() - 1]);
        format!("{i},{j},{mid}{t}")
    }

    /// `lo:lo+len` inside `0..dim`.
    fn window(&mut self, dim: usize, len: usize) -> String {
        let len = len.clamp(1, dim);
        let lo = self.rng.below(dim - len + 1);
        format!("{lo}:{}", lo + len)
    }

    /// Draws the next request.
    pub fn draw(&mut self) -> Req {
        let u = self.rng.unit();
        let (kind, specs) = if u < 0.60 {
            (Kind::Element, vec![self.element_spec()])
        } else if u < 0.85 {
            let t_len = self.shape[self.shape.len() - 1];
            let h = 1 + self.rng.below(16);
            let w = 1 + self.rng.below(16);
            let tw = 1 + self.rng.below((t_len / 4).max(1));
            let (a, b) = (self.window(self.shape[0], h), self.window(self.shape[1], w));
            let mid = self.middle();
            let t = self.window(t_len, tw);
            (Kind::Agg, vec![format!("{a},{b},{mid}{t}")])
        } else if u < 0.90 {
            let (i, j) = self.hot_pixel();
            let mid = self.middle();
            (Kind::Fiber, vec![format!("{i},{j},{mid}:")])
        } else if u < 0.95 {
            let (a, b) = (
                self.window(self.shape[0], 28),
                self.window(self.shape[1], 25),
            );
            let mid = self.middle();
            let t = self.rng.below(self.shape[self.shape.len() - 1]);
            (Kind::Frame, vec![format!("{a},{b},{mid}{t}")])
        } else {
            (
                Kind::Batch,
                (0..BATCH).map(|_| self.element_spec()).collect(),
            )
        };
        let wire = match kind {
            Kind::Element => format!(
                "GET /q/{}?at={} HTTP/1.1\r\nHost: bench\r\n\r\n",
                self.name, specs[0]
            )
            .into_bytes(),
            Kind::Agg => format!(
                "GET /q/{}?range={}&agg=mean HTTP/1.1\r\nHost: bench\r\n\r\n",
                self.name, specs[0]
            )
            .into_bytes(),
            Kind::Fiber | Kind::Frame => format!(
                "GET /q/{}?range={} HTTP/1.1\r\nHost: bench\r\n\r\n",
                self.name, specs[0]
            )
            .into_bytes(),
            Kind::Batch => {
                let body = specs.join("\n");
                format!(
                    "POST /q/{}/batch HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                    self.name,
                    body.len()
                )
                .into_bytes()
            }
        };
        Req { kind, specs, wire }
    }
}

/// What came back for one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reply {
    /// HTTP status (0 when no reply arrived).
    pub status: u16,
    /// FNV-1a hash of the body.
    pub body_hash: u64,
    /// Body length in bytes.
    pub body_len: usize,
    /// Nanoseconds from the intended send time to the complete reply.
    pub latency_ns: u64,
    /// Nanoseconds the generator sent after the intended time.
    pub late_ns: u64,
}

/// One constant-rate window of the open-loop schedule.
#[derive(Debug)]
pub struct Window {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Intended send time of each request, ns after the window start.
    pub due_ns: Vec<u64>,
    /// Request index into the caller's request list, per schedule slot.
    pub req: Vec<usize>,
    /// Reply per schedule slot.
    pub replies: Vec<Reply>,
}

impl Window {
    /// Latencies of replied requests, in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.replies
            .iter()
            .filter(|r| r.status != 0)
            .map(|r| r.latency_ns as f64 / 1e6)
            .collect()
    }

    /// p99 latency per consecutive block of [`BLOCK`] requests (the
    /// highest percentile a block supports; an unanswered request counts as
    /// infinitely late), reported as the lower quartile over the window's
    /// blocks. Host stalls of a few milliseconds hit a shared virtual
    /// machine about as often as one request in a hundred arrives, so a
    /// plain p99 swings with how many stalls a run happens to catch; the
    /// block quartile keeps the p99 the server holds in the quieter three
    /// quarters of the run.
    pub fn block_p99_ms(&self) -> f64 {
        let lat: Vec<f64> = self
            .replies
            .iter()
            .map(|r| {
                if r.status == 0 {
                    f64::INFINITY
                } else {
                    r.latency_ns as f64 / 1e6
                }
            })
            .collect();
        let blocks: Vec<f64> = lat
            .chunks(BLOCK)
            .filter(|b| b.len() == BLOCK || lat.len() < BLOCK)
            .filter_map(summarize)
            .map(|s| s.tail)
            .collect();
        percentile(&blocks, 25.0).unwrap_or(f64::INFINITY)
    }

    /// Generator lateness per request, in milliseconds.
    pub fn late_ms(&self) -> Vec<f64> {
        self.replies
            .iter()
            .map(|r| r.late_ns as f64 / 1e6)
            .collect()
    }

    /// Requests due by time `t` but not answered by then.
    pub fn outstanding_at(&self, t: u64) -> usize {
        self.due_ns
            .iter()
            .zip(&self.replies)
            .filter(|(&due, r)| due <= t && (r.status == 0 || due + r.latency_ns > t))
            .count()
    }

    /// Backlog when the last request was due.
    pub fn backlog(&self) -> usize {
        self.due_ns.last().map_or(0, |&t| self.outstanding_at(t))
    }

    /// Completed requests per second over the window's span.
    pub fn achieved_rps(&self) -> f64 {
        let end = self
            .due_ns
            .iter()
            .zip(&self.replies)
            .filter(|(_, r)| r.status != 0)
            .map(|(&d, r)| d + r.latency_ns)
            .max()
            .unwrap_or(1);
        let done = self.replies.iter().filter(|r| r.status != 0).count();
        done as f64 / (end.max(1) as f64 / 1e9)
    }
}

/// Draws a Poisson schedule of `count` arrivals at `rate` per second.
pub fn poisson_schedule(rng: &mut SplitMix, rate: f64, count: usize) -> Vec<u64> {
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// Runs one window: slot `k` sends `reqs[req[k]]` at `due_ns[k]`, on
/// connection `k % 2`. `per_conn` is the server's keep-alive request cap:
/// after that many requests a connection is drained and reopened.
pub fn run_window(
    addr: SocketAddr,
    reqs: &[Req],
    rate: f64,
    due_ns: Vec<u64>,
    req: Vec<usize>,
    per_conn: usize,
) -> std::io::Result<Window> {
    let start = Instant::now() + Duration::from_millis(2);
    let mut replies = vec![Reply::default(); due_ns.len()];
    let results: Vec<std::io::Result<Vec<(usize, Reply)>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let jobs: Vec<(usize, u64, &[u8])> = (c..due_ns.len())
                    .step_by(2)
                    .map(|k| (k, due_ns[k], reqs[req[k]].wire.as_slice()))
                    .collect();
                s.spawn(move || drive(addr, start, &jobs, per_conn))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(std::io::Error::other("generator thread panicked")))
            })
            .collect()
    });
    for r in results {
        for (k, reply) in r? {
            replies[k] = reply;
        }
    }
    Ok(Window {
        rate,
        due_ns,
        req,
        replies,
    })
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_nonblocking(true)?;
    Ok(s)
}

/// How long after its last send a connection waits for stragglers.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// Poll interval while replies are outstanding (the sleep overshoots it
/// by the kernel's timer slack).
const POLL: Duration = Duration::from_micros(5);

/// One connection's send/receive loop. Unanswered slots keep status 0.
fn drive(
    addr: SocketAddr,
    start: Instant,
    jobs: &[(usize, u64, &[u8])],
    per_conn: usize,
) -> std::io::Result<Vec<(usize, Reply)>> {
    let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    let mut out = Vec::with_capacity(jobs.len());
    let mut stream = connect(addr)?;
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    // (slot, due, sent) of requests written but not yet answered.
    let mut inflight: VecDeque<(usize, u64, u64)> = VecDeque::new();
    let mut next = 0;
    let mut sent_on_conn = 0;
    let last_due = jobs.last().map_or(0, |j| j.1);
    let give_up = last_due + DRAIN_LIMIT.as_nanos() as u64;
    loop {
        let now = ns(Instant::now());
        while next < jobs.len() && jobs[next].1 <= now && sent_on_conn < per_conn {
            write_all(&mut stream, jobs[next].2)?;
            inflight.push_back((jobs[next].0, jobs[next].1, ns(Instant::now())));
            next += 1;
            sent_on_conn += 1;
        }
        if inflight.is_empty() {
            if next == jobs.len() {
                break;
            }
            if sent_on_conn == per_conn {
                stream = connect(addr)?;
                buf.clear();
                sent_on_conn = 0;
                continue;
            }
            // Nothing outstanding: sleep to just before the next send,
            // then spin the last stretch (sleep overshoots by ~60 µs).
            let due = jobs[next].1;
            let now = ns(Instant::now());
            if due > now + 100_000 {
                std::thread::sleep(Duration::from_nanos(due - now - 100_000));
            }
            while ns(Instant::now()) < due {
                std::hint::spin_loop();
            }
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // closed early: remaining slots stay unanswered
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                let done = ns(Instant::now());
                while let Some(parsed) = parse_reply(&buf) {
                    let Some((slot, due, sent)) = inflight.pop_front() else {
                        break;
                    };
                    out.push((
                        slot,
                        Reply {
                            status: parsed.status,
                            body_hash: fnv1a(&buf[parsed.body.clone()]),
                            body_len: parsed.body.len(),
                            latency_ns: done.saturating_sub(due),
                            late_ns: sent.saturating_sub(due),
                        },
                    ));
                    buf.drain(..parsed.end);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if ns(Instant::now()) > give_up {
                    break;
                }
                let until_send = if next < jobs.len() && sent_on_conn < per_conn {
                    jobs[next].1.saturating_sub(ns(Instant::now()))
                } else {
                    u64::MAX
                };
                if until_send > 0 {
                    std::thread::sleep(POLL.min(Duration::from_nanos(until_send)));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

fn write_all(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

struct Parsed {
    status: u16,
    body: std::ops::Range<usize>,
    end: usize,
}

/// Parses one complete response at the front of `buf`, if there is one.
fn parse_reply(buf: &[u8]) -> Option<Parsed> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let len: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())?;
    let end = head_end + len;
    (buf.len() >= end).then_some(Parsed {
        status,
        body: head_end..end,
        end,
    })
}

/// FNV-1a, 64-bit: served bodies are compared by hash and length.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_back_to_back() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n";
        let p = parse_reply(two).unwrap();
        assert_eq!((p.status, &two[p.body.clone()]), (200, &b"abc"[..]));
        let rest = &two[p.end..];
        let q = parse_reply(rest).unwrap();
        assert_eq!((q.status, q.end), (404, rest.len()));
        assert!(parse_reply(&two[..p.end - 1]).is_none());
    }

    #[test]
    fn mix_is_seeded_and_roughly_proportioned() {
        let mut a = Mix::new("v", &[64, 48, 100], 3);
        let mut b = Mix::new("v", &[64, 48, 100], 3);
        let mut counts = [0usize; 5];
        for _ in 0..4000 {
            let (x, y) = (a.draw(), b.draw());
            assert_eq!(x.wire, y.wire);
            counts[KINDS.iter().position(|&k| k == x.kind).unwrap()] += 1;
        }
        assert!((2200..2600).contains(&counts[0]), "{counts:?}");
        assert!((800..1200).contains(&counts[1]), "{counts:?}");
        assert!(counts[4] > 100 && counts[4] < 300, "{counts:?}");
    }
}
