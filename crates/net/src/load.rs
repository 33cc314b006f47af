//! Open-loop load generation over the wire protocol.
//!
//! Closed-loop harnesses (issue, wait, issue again) understate tail
//! latency under overload: a slow reply delays the *next* request, so
//! queueing delay hides from the histogram — the coordinated-omission
//! trap. This generator is open-loop: every request's arrival time is
//! fixed by a pre-drawn schedule (exponential interarrivals plus
//! configurable think time), the sender paces against that absolute
//! schedule, and latency is measured from the *scheduled* arrival to
//! reply receipt. If the server (or the sender's own socket) falls
//! behind, the backlog lands in the histogram instead of vanishing.
//!
//! Each connection runs a paced **sender** thread and a draining
//! **receiver** thread over the same socket (`try_clone`), pipelining
//! requests without waiting for replies. Session identities are drawn
//! per-request from a `sessions`-sized id space — millions of distinct
//! users need no per-user state anywhere — with uniform or
//! YCSB-scrambled-Zipfian skew, and the same skew family drives key
//! choice for the workload ops.

use feral_server::{Request, Response};
use feral_trace::{Histogram, HistogramSnapshot};
use feral_workloads::{KeyChooser, ScrambledZipfian, Uniform};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Arrival / skew family for sessions and keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    /// Uniform over the id space.
    Uniform,
    /// YCSB scrambled Zipfian (θ = 0.99): few hot sessions/keys.
    Zipfian,
}

impl Dist {
    /// Wire/report name.
    pub fn name(self) -> &'static str {
        match self {
            Dist::Uniform => "uniform",
            Dist::Zipfian => "zipfian",
        }
    }

    fn chooser(self, domain: u64, seed: u64) -> Box<dyn KeyChooser> {
        match self {
            Dist::Uniform => Box::new(Uniform::new(domain.max(1), seed)),
            Dist::Zipfian => Box::new(ScrambledZipfian::new(domain.max(1), seed)),
        }
    }
}

/// One load cell's knobs.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Client connections (each pipelines independently).
    pub conns: usize,
    /// Target aggregate arrival rate, requests/second.
    pub rate: f64,
    /// Total requests to issue across all connections.
    pub requests: u64,
    /// Distinct user-session id space (scales to millions — ids are
    /// stateless).
    pub sessions: u64,
    /// Key space for the workload op payloads.
    pub keys: u64,
    /// Per-arrival think time added to each interarrival gap, µs.
    pub think_us: u64,
    /// Session/key skew.
    pub dist: Dist,
    /// Schedule + skew seed.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            conns: 4,
            rate: 2000.0,
            requests: 2000,
            sessions: 1_000_000,
            keys: 10_000,
            think_us: 0,
            dist: Dist::Uniform,
            seed: 0x10AD,
        }
    }
}

/// Aggregated outcome of one open-loop run.
#[derive(Debug, Clone)]
pub struct LoadOutcome {
    /// Requests written to sockets.
    pub sent: u64,
    /// Successful application responses received.
    pub completed: u64,
    /// Retryable load-shed responses received.
    pub shed: u64,
    /// Error responses (incl. validation rejections) received.
    pub errors: u64,
    /// Replies never received (connection died / timeout).
    pub lost: u64,
    /// Wall-clock seconds from first scheduled arrival to last reply.
    pub elapsed: f64,
    /// Scheduled-arrival → reply latency, nanoseconds.
    pub latency: HistogramSnapshot,
}

impl LoadOutcome {
    /// Achieved throughput: application answers (successes and error
    /// responses) per second. Load-shed replies are refusals, not
    /// service, so they do not count.
    pub fn throughput(&self) -> f64 {
        if self.elapsed > 0.0 {
            (self.completed + self.errors) as f64 / self.elapsed
        } else {
            0.0
        }
    }
}

/// Drive `make_request(session, key)` at the configured open-loop rate
/// against `addr`. The closure must be pure construction — it runs on
/// sender threads at schedule time.
pub fn run_load(
    addr: SocketAddr,
    cfg: &LoadConfig,
    make_request: impl Fn(u64, u64) -> Request + Send + Sync,
) -> std::io::Result<LoadOutcome> {
    let conns = cfg.conns.max(1);
    let per_conn_rate = (cfg.rate / conns as f64).max(1.0);
    let latency = Arc::new(Histogram::new());
    let sent = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let lost = AtomicU64::new(0);
    let make_request = &make_request;

    // connect everything up front so slow dials don't eat schedule time
    let mut sockets = Vec::with_capacity(conns);
    for _ in 0..conns {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        sockets.push(s);
    }

    let started = Instant::now();
    std::thread::scope(|scope| {
        for (c, socket) in sockets.into_iter().enumerate() {
            let n = per_conn_requests(cfg.requests, conns, c);
            if n == 0 {
                continue;
            }
            // the schedule is drawn once and shared: the sender paces
            // against it, the receiver prices latency against it
            let schedule = Arc::new(draw_schedule(n, per_conn_rate, cfg.think_us, cfg.seed, c));
            let latency = latency.clone();
            let (sent, completed) = (&sent, &completed);
            let (shed, errors, lost) = (&shed, &errors, &lost);
            let reader = socket.try_clone().expect("clone socket");
            let mut writer = socket;
            let mut sessions = cfg.dist.chooser(cfg.sessions, cfg.seed ^ (c as u64) << 17);
            let mut keys = cfg
                .dist
                .chooser(cfg.keys, cfg.seed.wrapping_mul(31) ^ c as u64);
            let send_schedule = schedule.clone();

            scope.spawn(move || {
                // sender: write frame i no earlier than started+offset[i]
                for (i, offset) in send_schedule.iter().enumerate() {
                    let due = started + *offset;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let request = make_request(sessions.next_key(), keys.next_key());
                    let frame = match crate::wire::encode_request(i as u64, &request) {
                        Ok(f) => f,
                        Err(_) => continue,
                    };
                    if writer.write_all(&frame).is_err() {
                        break;
                    }
                    sent.fetch_add(1, Ordering::Relaxed);
                }
            });

            scope.spawn(move || {
                let mut reader = reader;
                let mut inbuf = Vec::new();
                let mut chunk = [0u8; 16 * 1024];
                let mut received = 0u64;
                'recv: while received < n {
                    while let Ok(Some(payload)) = crate::wire::take_frame(&mut inbuf) {
                        let Ok((id, response)) = crate::wire::decode_response(&payload) else {
                            break 'recv;
                        };
                        let scheduled = started + schedule[id as usize % schedule.len()];
                        let nanos = Instant::now()
                            .saturating_duration_since(scheduled)
                            .as_nanos() as u64;
                        latency.record(nanos.max(1));
                        match response {
                            Response::Overloaded => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Response::Error(_) | Response::Invalid(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => {
                                completed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        received += 1;
                        if received >= n {
                            break 'recv;
                        }
                    }
                    match reader.read(&mut chunk) {
                        Ok(0) => break,
                        Ok(got) => inbuf.extend_from_slice(&chunk[..got]),
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => break, // timeout or reset: give up on the rest
                    }
                }
                lost.fetch_add(n - received, Ordering::Relaxed);
            });
        }
    });

    Ok(LoadOutcome {
        sent: sent.into_inner(),
        completed: completed.into_inner(),
        shed: shed.into_inner(),
        errors: errors.into_inner(),
        lost: lost.into_inner(),
        elapsed: started.elapsed().as_secs_f64(),
        latency: latency.snapshot(),
    })
}

/// Split `total` requests across `conns` connections (early connections
/// absorb the remainder).
fn per_conn_requests(total: u64, conns: usize, c: usize) -> u64 {
    let base = total / conns as u64;
    let extra = u64::from((c as u64) < total % conns as u64);
    base + extra
}

/// Pre-draw an absolute arrival schedule: cumulative exponential
/// interarrivals at `rate` req/s plus `think_us` per gap.
fn draw_schedule(n: u64, rate: f64, think_us: u64, seed: u64, conn: usize) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add((conn as u64).wrapping_mul(0x9E3779B9)));
    let mean_gap = 1.0 / rate;
    let mut at = 0.0f64;
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        // inverse-CDF exponential; clamp the uniform away from 0
        let u: f64 = rng.random::<f64>().max(1e-12);
        at += -u.ln() * mean_gap + think_us as f64 * 1e-6;
        out.push(Duration::from_secs_f64(at));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_monotone_and_rate_shaped() {
        let s = draw_schedule(1000, 1000.0, 0, 7, 0);
        assert_eq!(s.len(), 1000);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        // 1000 arrivals at 1000/s ≈ 1s ±40%
        let total = s.last().unwrap().as_secs_f64();
        assert!((0.6..1.6).contains(&total), "{total}");
        // think time shifts the whole schedule out
        let with_think = draw_schedule(1000, 1000.0, 500, 7, 0);
        assert!(with_think.last().unwrap().as_secs_f64() > total + 0.4);
    }

    #[test]
    fn request_split_covers_total() {
        for (total, conns) in [(10u64, 3usize), (7, 7), (5, 8), (1000, 16)] {
            let sum: u64 = (0..conns).map(|c| per_conn_requests(total, conns, c)).sum();
            assert_eq!(sum, total);
        }
    }

    #[test]
    fn throughput_counts_answers_not_shed_replies() {
        let outcome = LoadOutcome {
            sent: 100,
            completed: 60,
            shed: 30,
            errors: 10,
            lost: 0,
            elapsed: 2.0,
            latency: HistogramSnapshot::empty(),
        };
        assert_eq!(outcome.throughput(), 35.0);
    }

    #[test]
    fn dist_choosers_stay_in_domain() {
        for dist in [Dist::Uniform, Dist::Zipfian] {
            let mut c = dist.chooser(1_000_000, 3);
            for _ in 0..1000 {
                assert!(c.next_key() < 1_000_000);
            }
        }
    }
}
