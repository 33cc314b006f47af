//! The benchmark's own open-loop generator over the public
//! `feral_net::wire` codec.
//!
//! One TCP connection, two threads: a sender that writes pre-encoded
//! frames no earlier than their Poisson-scheduled instants, and a
//! receiver that decodes replies and prices each one against its
//! scheduled instant (so a stall delays every request queued behind it
//! in the figures, not just the one in flight). The sender never waits
//! for replies. Every time is in nanoseconds since a caller-supplied
//! epoch, so the traced service wrapper can stamp on the same clock.

use feral_net::wire;
use feral_server::Response;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A reply that never arrived is declared lost after this much silence
/// once the sender has finished.
const LOSS_TIMEOUT: Duration = Duration::from_secs(3);
/// Largest write the sender coalesces from frames that are already due.
const MAX_BATCH_BYTES: usize = 64 * 1024;
/// Not yet sent / not yet answered.
pub const NEVER: u64 = u64::MAX;

/// SplitMix64: small, seedable, and owned here so that the inputs a
/// seed produces do not depend on any crate of the program.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_F00D_CAFE_BABE)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Poisson arrivals: `n` scheduled offsets (ns from the phase start) at
/// `rate` requests per second.
pub fn poisson_schedule(n: usize, rate: f64, rng: &mut Rng) -> Vec<u64> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// How the receiver judged one reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The intended effect (template committed, record found/created).
    Ok,
    /// A validation rejection: a correct answer, not a failure.
    Invalid,
    /// Load-shed before any application work ran.
    Shed,
    /// The application or database reported an error.
    Error,
    /// An answer the request cannot legally receive (fails the run).
    Wrong,
}

/// Everything the generator observed, per request, on the epoch clock.
pub struct Driven {
    /// Scheduled send instant.
    pub due: Vec<u64>,
    /// Instant the write carrying the frame started (`NEVER` if unsent).
    pub sent: Vec<u64>,
    /// Instant the reply was decoded (`NEVER` if lost).
    pub recv: Vec<u64>,
    /// Receiver's judgement (`None` if lost).
    pub verdict: Vec<Option<Verdict>>,
    /// Id created by an acknowledged create, when any.
    pub created: Vec<Option<i64>>,
    /// `wire::decode_response` cost per reply, when timed.
    pub decode_ns: Vec<u64>,
    /// Instant the phase ended (last reply or loss timeout).
    pub end: u64,
}

/// Drive pre-encoded `frames` (request id = index) at the `schedule`
/// offsets against `addr`. `judge(i, response)` classifies reply `i` and
/// returns the id an acknowledged create produced.
pub fn drive(
    addr: SocketAddr,
    epoch: Instant,
    frames: &[Vec<u8>],
    schedule: &[u64],
    time_decode: bool,
    judge: impl Fn(usize, &Response) -> (Verdict, Option<i64>) + Sync,
) -> std::io::Result<Driven> {
    let n = frames.len();
    let socket = TcpStream::connect(addr)?;
    socket.set_nodelay(true)?;
    socket.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut reader = socket.try_clone()?;
    let mut writer = socket;
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    // a short lead lets both threads reach their loops before the first
    // arrival is due
    let start = ns(Instant::now()) + 2_000_000;
    let due: Vec<u64> = schedule.iter().map(|d| start + d).collect();
    let sent_count = AtomicU64::new(0);
    let sender_done = AtomicBool::new(false);

    let (sent, receiver) = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut recv = vec![NEVER; n];
            let mut verdict = vec![None; n];
            let mut created = vec![None; n];
            let mut decode_ns = Vec::new();
            let mut inbuf = Vec::with_capacity(64 * 1024);
            let mut chunk = vec![0u8; 64 * 1024];
            let mut received = 0u64;
            let mut last_progress = Instant::now();
            loop {
                let done = sender_done.load(Ordering::SeqCst);
                if done && received >= sent_count.load(Ordering::SeqCst) {
                    break;
                }
                match reader.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(k) => inbuf.extend_from_slice(&chunk[..k]),
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock
                                | std::io::ErrorKind::TimedOut
                                | std::io::ErrorKind::Interrupted
                        ) =>
                    {
                        // judged only after a read found nothing, so that
                        // replies already waiting after a host stall are
                        // taken before the silence is
                        if done && last_progress.elapsed() > LOSS_TIMEOUT {
                            break;
                        }
                        continue;
                    }
                    Err(_) => break,
                }
                while let Ok(Some(payload)) = wire::take_frame(&mut inbuf) {
                    let t0 = time_decode.then(Instant::now);
                    let decoded = wire::decode_response(&payload);
                    let now = Instant::now();
                    if let Some(t0) = t0 {
                        decode_ns.push((now - t0).as_nanos() as u64);
                    }
                    let Ok((id, response)) = decoded else {
                        continue;
                    };
                    let i = id as usize;
                    if i >= n || recv[i] != NEVER {
                        continue;
                    }
                    recv[i] = ns(now);
                    let (v, c) = judge(i, &response);
                    verdict[i] = Some(v);
                    created[i] = c;
                    received += 1;
                    last_progress = now;
                }
            }
            (recv, verdict, created, decode_ns)
        });

        set_fine_timer_slack();
        let mut sent = vec![NEVER; n];
        let mut batch = Vec::with_capacity(MAX_BATCH_BYTES);
        let mut i = 0;
        while i < n {
            let now = ns(Instant::now());
            if due[i] > now {
                std::thread::sleep(Duration::from_nanos(due[i] - now));
                continue;
            }
            // coalesce every frame already due into one write
            batch.clear();
            let mut k = i;
            while k < n && due[k] <= now && batch.len() < MAX_BATCH_BYTES {
                batch.extend_from_slice(&frames[k]);
                k += 1;
            }
            let stamp = ns(Instant::now());
            if writer.write_all(&batch).is_err() {
                break;
            }
            sent[i..k].fill(stamp);
            sent_count.fetch_add((k - i) as u64, Ordering::SeqCst);
            i = k;
        }
        sender_done.store(true, Ordering::SeqCst);
        (sent, receiver.join().expect("receiver thread panicked"))
    });
    let (recv, verdict, created, decode_ns) = receiver;
    let _ = writer.shutdown(std::net::Shutdown::Both);
    Ok(Driven {
        due,
        sent,
        recv,
        verdict,
        created,
        decode_ns,
        end: ns(Instant::now()),
    })
}

/// Shrink the sending thread's timer slack so that a sub-100 µs sleep to
/// the next arrival overshoots by microseconds rather than the default
/// 50 µs; the overshoot is schedule lag every request would carry.
fn set_fine_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument (the slack
        // in ns), ignores the rest, and only changes the calling thread's
        // timer slack; no memory is passed to the kernel.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
        }
    }
}
