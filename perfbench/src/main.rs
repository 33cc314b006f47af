//! perfbench: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload planner-mem|orm-feral --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is set up in-process and driven over loopback TCP by an
//! open-loop Poisson generator of the benchmark's own. `--trace 0`
//! measures the end-to-end metrics (knee, success share, set-up time);
//! `--trace 1` measures the p50 at two fixed rates, the per-layer split
//! and the diagnostics. Every phase starts from freshly set-up state, is
//! fixed by request count, and ends with its correctness gates; a failed
//! gate makes the run exit 1. The last stdout line is the JSON result.

mod gen;
mod spans;
mod workload;

use gen::{Driven, Verdict, NEVER};
use spans::Stamps;
use std::sync::Arc;
use std::time::Instant;
use workload::{Counters, Inputs, Workload, OP_NAMES};

/// The latency objective the knee is searched under: p99 of all requests
/// (misses included) at or below this. Far above the stall floor of a
/// 2-vCPU VM (p99 1.3–9.3 ms over 8 runs of `planner-mem` at 4 000/s), so
/// the search finds queueing, not VM hiccups.
const SLO_NS: u64 = 20_000_000;
/// Knee search: the first multiplicative step of each round's bisection;
/// every later step is the square root of the one before.
const KNEE_STEP_START: f64 = 1.25;
/// Knee probes per round: steps 1.25, 1.118, 1.057, 1.028, so a round's
/// estimate is within 3 % of a rate where its last probe passed or failed.
const PROBES_PER_ROUND: usize = 4;
/// A round starts no lower than this share of the known knee: a probe's
/// length grows as its rate falls, and a host stall that spoils most
/// rounds would otherwise walk the start down to probes that each take
/// many seconds.
const KNEE_FLOOR: f64 = 1.0 / 16.0;
/// Every knee probe offers as many requests as the known knee delivers in
/// this many seconds. The count, not `--seconds`, fixes the state a phase
/// ends in (per-request cost grows with the dead MVCC versions it leaves),
/// so it is the same for every run length.
const PHASE_SECONDS_AT_KNEE: f64 = 0.2;
/// The fixed-rate phases are shorter: as many requests as the known knee
/// delivers in this many seconds (0.17 s at `orm-feral`'s reference rate).
/// Host noise on a shared VM comes and goes within seconds, and a short
/// phase fits inside a quiet second that a longer one would straddle.
const FIXED_SECONDS_AT_KNEE: f64 = 0.025;
/// Which quantile over a run's phases a metric reports. Host noise on this
/// class of machine only ever slows the program down, in stretches of
/// seconds to minutes that can cover most of a run, so the fixed-rate
/// phases' p50s are summarised by their 10th percentile and the rounds'
/// knee estimates by their upper quartile: the figures of the run's
/// quieter stretches.
/// (A per-round knee estimate is itself a coin-flip bisection, which a
/// quantile further out would make the run's luckiest round.) A change to
/// the program moves every round, so it moves these too.
const QUIET_LOW: f64 = 0.1;
const QUIET_HIGH: f64 = 0.75;
/// Traced-run phases are this many times longer than the end-to-end run's,
/// for enough samples per layer and per operation.
const TRACE_SCALE: usize = 8;
/// Rounds of end-to-end-length fixed-rate phases in the traced run, whose
/// p50s give `p50_ms` and `p50_hi_ms` (10th percentile, see
/// [`QUIET_LOW`]) and their median over rounds, which sees slowness that
/// comes and goes in some of the rounds.
const TRACE_ROUNDS: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(1.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = Workload::by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let mut run = Run {
        w,
        epoch: Instant::now(),
        seed: args.seed,
        seconds: args.seconds,
        failures: Vec::new(),
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        fsync_us: 0.0,
    };
    let outcome = fsync_probe_us().and_then(|us| {
        run.fsync_us = us;
        if args.trace {
            run.traced()
        } else {
            run.end_to_end()
        }
    });
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(3);
    }
    run.print();
    if !run.failures.is_empty() {
        std::process::exit(1);
    }
}

/// One completed phase: what was drawn, what the generator saw, and
/// what the quiesced server reported.
struct PhaseRun {
    inputs: Inputs,
    driven: Driven,
    stamps: Option<Arc<Stamps>>,
    setup_s: f64,
    counters: Counters,
}

/// Per-phase accounting: every request drawn is exactly one of `ok`,
/// `invalid`, `shed`, `errors` (wrong answers included) or `lost`.
struct Tally {
    n: u64,
    ok: u64,
    invalid: u64,
    shed: u64,
    errors: u64,
    lost: u64,
    /// Scheduled-send → reply latency of every request, sorted; a miss
    /// (shed, error, lost) counts as `NEVER`.
    sorted: Vec<u64>,
    /// The same, in request order.
    by_request: Vec<u64>,
    /// First scheduled send to the phase's end: what a miss reads as in
    /// reported percentiles (the SLO check treats it as infinite).
    span: u64,
}

impl PhaseRun {
    /// `sent = completed + shed + errors + lost`, checked against the
    /// server's own counters: every reply answers a request that was
    /// written, the server wrote at least as many replies as arrived, and
    /// the client saw exactly the sheds the server counted.
    fn accounting_errors(&self, t: &Tally) -> Vec<String> {
        let d = &self.driven;
        let c = &self.counters;
        let mut errors = Vec::new();
        let replies = t.ok + t.invalid + t.shed + t.errors;
        if (0..d.due.len()).any(|i| d.recv[i] != NEVER && d.sent[i] == NEVER) {
            errors.push("a reply arrived for a request never sent".to_string());
        }
        if replies > c.served {
            errors.push(format!(
                "{replies} replies but the server wrote {}",
                c.served
            ));
        }
        if t.shed != c.shed_queue + c.shed_inflight {
            errors.push(format!(
                "{} sheds seen but the server shed {}",
                t.shed,
                c.shed_queue + c.shed_inflight
            ));
        }
        errors
    }

    fn tally(&self) -> Tally {
        let d = &self.driven;
        let mut t = Tally {
            n: d.due.len() as u64,
            ok: 0,
            invalid: 0,
            shed: 0,
            errors: 0,
            lost: 0,
            sorted: Vec::new(),
            by_request: Vec::with_capacity(d.due.len()),
            span: d
                .end
                .saturating_sub(d.due.first().copied().unwrap_or(d.end)),
        };
        for i in 0..d.due.len() {
            let answered = match d.verdict[i] {
                Some(Verdict::Ok) => {
                    t.ok += 1;
                    true
                }
                Some(Verdict::Invalid) => {
                    t.invalid += 1;
                    true
                }
                Some(Verdict::Shed) => {
                    t.shed += 1;
                    false
                }
                Some(Verdict::Error | Verdict::Wrong) => {
                    t.errors += 1;
                    false
                }
                None => {
                    t.lost += 1;
                    false
                }
            };
            t.by_request.push(if answered {
                d.recv[i] - d.due[i]
            } else {
                NEVER
            });
        }
        t.sorted = t.by_request.clone();
        t.sorted.sort_unstable();
        t
    }
}

impl Tally {
    fn failed(&self) -> u64 {
        self.shed + self.errors + self.lost
    }

    /// Exact nearest-rank percentile in ms; a miss reads as the phase's
    /// whole span.
    fn pct_ms(&self, q: f64) -> f64 {
        ms(pct(&self.sorted, q).min(self.span))
    }

    /// No growing backlog and p99 of all requests within the SLO.
    fn meets_slo(&self) -> bool {
        let quarter = self.by_request.len() / 4;
        let median = |s: &[u64]| {
            let mut v = s.to_vec();
            v.sort_unstable();
            pct(&v, 0.5)
        };
        let (first, last) = (
            median(&self.by_request[..quarter]),
            median(&self.by_request[self.by_request.len() - quarter..]),
        );
        pct(&self.sorted, 0.99) <= SLO_NS && last <= first.saturating_add(SLO_NS / 4)
    }

    /// Successful or validation-rejected replies per second, over the
    /// time from the first scheduled send to the phase's end.
    fn goodput(&self) -> f64 {
        (self.ok + self.invalid) as f64 / (self.span as f64 / 1e9)
    }
}

/// Nearest-rank percentile of sorted samples.
fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The `q` quantile of `v`, interpolating linearly between ranks.
fn quantile_f64(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median_f64(v: Vec<f64>) -> f64 {
    quantile_f64(v, 0.5)
}

struct Run {
    w: Workload,
    epoch: Instant,
    seed: u64,
    seconds: f64,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, &'static str, f64)>,
    /// The working directory's 4 KiB `sync_data` latency, recorded so that
    /// a shift in commit latency can be told from a device change.
    fsync_us: f64,
}

impl Run {
    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push((name.into(), unit, value));
    }

    /// Set up, drive `n` requests at `rate`, shut down and check gates.
    /// `draw` picks the phase's inputs: draw 0 is the run's base stream,
    /// which the knee probes and the traced run's long phases replay, so
    /// that they differ only in rate and length; the short fixed-rate
    /// phases take draws 1, 2, ... so that their low quantile (see
    /// [`QUIET_LOW`]) is taken over many draws of the inputs, not one.
    fn phase(
        &mut self,
        label: &str,
        rate: f64,
        n: usize,
        draw: u64,
        traced: bool,
    ) -> std::io::Result<(PhaseRun, Tally)> {
        let seed = if draw == 0 {
            self.seed
        } else {
            gen::Rng::new(self.seed ^ draw.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
        };
        let inputs = self.w.draw(n, rate, seed, traced);
        let stamps = traced.then(|| Arc::new(Stamps::new(n)));
        let instance = self.w.setup(stamps.clone().map(|s| (s, self.epoch)))?;
        if traced {
            feral_trace::reset();
            feral_trace::set_enabled(true);
        }
        let w = &self.w;
        let reqs = &inputs.reqs;
        let driven = gen::drive(
            instance.addr(),
            self.epoch,
            &inputs.frames,
            &inputs.schedule,
            traced,
            |i, response| w.judge(reqs[i], response),
        )?;
        let setup_s = instance.setup_s;
        let (counters, failures) = instance.finish(&inputs, &driven);
        for f in failures {
            self.failures.push(format!("{label} @ {rate:.0}/s: {f}"));
        }
        let run = PhaseRun {
            inputs,
            driven,
            stamps,
            setup_s,
            counters,
        };
        let t = run.tally();
        for f in run.accounting_errors(&t) {
            self.failures.push(format!("{label} @ {rate:.0}/s: {f}"));
        }
        eprintln!(
            "{label:>10} {rate:>8.0}/s n={:<6} ok={} invalid={} shed={} err={} lost={} p50={:.3}ms p99={:.3}ms slo={}",
            t.n,
            t.ok,
            t.invalid,
            t.shed,
            t.errors,
            t.lost,
            t.pct_ms(0.5),
            t.pct_ms(0.99),
            t.meets_slo()
        );
        Ok((run, t))
    }

    /// Requests per phase: the same count for every probe and fixed-rate
    /// phase of a workload (see [`PHASE_SECONDS_AT_KNEE`]).
    fn phase_requests(&self) -> usize {
        (self.w.knee_guess * PHASE_SECONDS_AT_KNEE).round() as usize
    }

    /// Requests per fixed-rate phase (see [`FIXED_SECONDS_AT_KNEE`]).
    fn fixed_requests(&self) -> usize {
        (self.w.knee_guess * FIXED_SECONDS_AT_KNEE).round() as usize
    }

    /// A fixed-rate phase whose replies count towards `attempted`/`failed`.
    /// Below the knee the server may shed in a stall, but every request
    /// it was sent must be answered: a lost reply fails the run.
    fn fixed(
        &mut self,
        label: &str,
        rate: f64,
        n: usize,
        draw: u64,
        traced: bool,
    ) -> std::io::Result<(PhaseRun, Tally)> {
        let (run, t) = self.phase(label, rate, n, draw, traced)?;
        if t.lost > 0 {
            self.failures
                .push(format!("{label} @ {rate:.0}/s: {} replies lost", t.lost));
        }
        self.attempted += t.n;
        self.failed += t.failed();
        Ok((run, t))
    }

    /// One round of the knee search: a bisection in log space around
    /// `start`, four probes, each from freshly set-up state and offering
    /// the same number of requests. Returns the rate it ends at, within
    /// the last step of where a probe meets the SLO half the time. On a
    /// 2-vCPU VM a stall fails a probe wherever it lands, so a round is
    /// its own search: a stall spoils the rounds it covers, and the next
    /// round starts afresh from the median of the estimates before it.
    fn knee_round(&mut self, start: f64, setups: &mut Vec<f64>) -> std::io::Result<f64> {
        let (mut rate, mut step) = (start, KNEE_STEP_START);
        for _ in 0..PROBES_PER_ROUND {
            let (probe, t) = self.phase("knee", rate, self.phase_requests(), 0, false)?;
            setups.push(probe.setup_s);
            rate = if t.meets_slo() {
                rate * step
            } else {
                rate / step
            };
            step = step.sqrt();
        }
        Ok(rate)
    }

    /// End-to-end metrics. The run is split into rounds, each with a short
    /// phase at the reference and one at the high rate (success share,
    /// correctness gates) and a few knee probes, so that a stretch of VM
    /// noise touches every metric a little instead of one metric wholly.
    fn end_to_end(&mut self) -> std::io::Result<()> {
        let mut setups = Vec::new();
        self.warm_up()?;
        let mut knees: Vec<f64> = Vec::new();
        let (mut p50s, mut p50s_hi) = (Vec::new(), Vec::new());
        // rounds start until `--seconds` have passed, so a run measures
        // for that long plus at most one round
        let started = Instant::now();
        for round in 0u64.. {
            if round > 0 && started.elapsed().as_secs_f64() >= self.seconds {
                break;
            }
            for (label, rate, p50s) in [
                ("ref", self.w.ref_rps, &mut p50s),
                ("hi", self.w.hi_rps, &mut p50s_hi),
            ] {
                let (run, t) = self.fixed(label, rate, self.fixed_requests(), 1 + round, false)?;
                setups.push(run.setup_s);
                p50s.push(t.pct_ms(0.5));
            }
            let start = if knees.is_empty() {
                self.w.knee_guess
            } else {
                median_f64(knees.clone()).max(self.w.knee_guess * KNEE_FLOOR)
            };
            knees.push(self.knee_round(start, &mut setups)?);
        }
        let success = 1.0 - self.failed as f64 / self.attempted as f64;
        self.metric("knee_rps", "1/s", quantile_f64(knees, QUIET_HIGH));
        self.metric("success_share", "share", success);
        self.metric("setup_s", "s", median_f64(setups));
        // on a shared host the p50s repeat too loosely to carry a bound, so
        // they are not in the result; the traced run reports them
        eprintln!(
            "p50_ms {:.4} p50_hi_ms {:.4} (diagnostics, reported by --trace 1)",
            quantile_f64(p50s, QUIET_LOW),
            quantile_f64(p50s_hi, QUIET_LOW)
        );
        Ok(())
    }

    /// One phase at the reference rate whose figures are discarded: the
    /// first phase of a process pays for page faults, allocator growth
    /// and idle CPUs that no later phase sees again.
    fn warm_up(&mut self) -> std::io::Result<()> {
        let (attempted, failed) = (self.attempted, self.failed);
        self.fixed("warm-up", self.w.ref_rps, self.phase_requests(), 0, false)?;
        (self.attempted, self.failed) = (attempted, failed);
        Ok(())
    }

    /// The traced run: the reference and high rates untraced (tails,
    /// schedule lateness), the reference rate traced (the per-layer
    /// split), twice the known knee untraced and traced (saturation
    /// goodput, tracing overhead), and rounds of the end-to-end run's
    /// fixed-rate phases (their p50s).
    fn traced(&mut self) -> std::io::Result<()> {
        self.warm_up()?;
        let (mut p50s, mut p50s_hi) = (Vec::new(), Vec::new());
        for round in 0..TRACE_ROUNDS {
            let draw = 1 + round as u64;
            let (_, t) = self.fixed("ref", self.w.ref_rps, self.fixed_requests(), draw, false)?;
            p50s.push(t.pct_ms(0.5));
            let (_, t) = self.fixed("hi", self.w.hi_rps, self.fixed_requests(), draw, false)?;
            p50s_hi.push(t.pct_ms(0.5));
        }
        let n = self.phase_requests() * TRACE_SCALE;
        let (ref_plain, ref_plain_t) = self.fixed("ref", self.w.ref_rps, n, 0, false)?;
        let (hi_plain, hi_plain_t) = self.fixed("hi", self.w.hi_rps, n, 0, false)?;
        let (traced, traced_t) = self.fixed("ref+trace", self.w.ref_rps, n, 0, true)?;
        let sat_rate = 2.0 * self.w.knee_guess;
        let (_, sat_plain) = self.phase("sat", sat_rate, n, 0, false)?;
        let (_, sat_traced) = self.phase("sat+trace", sat_rate, n, 0, true)?;

        self.layer_metrics(&traced, &traced_t);

        self.metric("tail.p99_ms", "ms", ref_plain_t.pct_ms(0.99));
        self.metric("tail.p999_ms", "ms", ref_plain_t.pct_ms(0.999));
        self.metric("tail.p99_hi_ms", "ms", hi_plain_t.pct_ms(0.99));
        self.metric("tail.p999_hi_ms", "ms", hi_plain_t.pct_ms(0.999));
        self.metric("p50_ms", "ms", quantile_f64(p50s.clone(), QUIET_LOW));
        self.metric("p50_hi_ms", "ms", quantile_f64(p50s_hi.clone(), QUIET_LOW));
        self.metric("tail.p50_round_median_ms", "ms", median_f64(p50s));
        self.metric("tail.p50_hi_round_median_ms", "ms", median_f64(p50s_hi));
        self.metric("sat.goodput_rps", "1/s", sat_plain.goodput());
        let late = [&ref_plain, &hi_plain]
            .iter()
            .flat_map(|r| r.driven.sent.iter().zip(&r.driven.due))
            .filter(|(s, _)| **s != NEVER)
            .map(|(s, d)| s - d)
            .max()
            .unwrap_or(0);
        self.metric("gen.late_ms.max", "ms", ms(late));
        self.metric(
            "trace.overhead_p50",
            "ratio",
            traced_t.pct_ms(0.5) / ref_plain_t.pct_ms(0.5),
        );
        self.metric(
            "trace.overhead_goodput",
            "ratio",
            sat_traced.goodput() / sat_plain.goodput(),
        );
        self.metric("env.fsync_us.p50", "us", self.fsync_us);
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.metric("env.nproc", "count", nproc as f64);
        Ok(())
    }

    /// The per-layer split of a traced phase: four spans that tile each
    /// completed request (schedule lag, inbound, service, outbound), the
    /// codec costs, and the counters every layer keeps.
    fn layer_metrics(&mut self, run: &PhaseRun, t: &Tally) {
        let d = &run.driven;
        let stamps = run.stamps.as_ref().expect("traced phase has stamps");
        let (mut lag, mut inbound, mut service, mut outbound) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut per_op: Vec<Vec<u64>> = vec![Vec::new(); OP_NAMES.len()];
        let mut service_in_order = Vec::new();
        let mut untiled = 0u64;
        for i in 0..d.due.len() {
            let (entry, exit) = stamps.get(i);
            if entry == NEVER || d.recv[i] == NEVER {
                continue;
            }
            let (due, sent, recv) = (d.due[i], d.sent[i], d.recv[i]);
            let spans = [
                sent as i128 - due as i128,
                entry as i128 - sent as i128,
                exit as i128 - entry as i128,
                recv as i128 - exit as i128,
            ];
            if spans.iter().any(|s| *s < 0) || spans.iter().sum::<i128>() != (recv - due) as i128 {
                untiled += 1;
                continue;
            }
            lag.push(spans[0] as u64);
            inbound.push(spans[1] as u64);
            service.push(spans[2] as u64);
            outbound.push(spans[3] as u64);
            per_op[run.inputs.reqs[i].op as usize].push(spans[2] as u64);
            service_in_order.push(spans[2] as u64);
        }
        if untiled > 0 {
            self.failures
                .push(format!("{untiled} traced requests whose spans do not tile"));
        }
        let ns = |v: &mut Vec<u64>, q: f64| {
            v.sort_unstable();
            pct(v, q) as f64
        };
        let us = |v: &mut Vec<u64>, q: f64| ns(v, q) / 1e3;
        self.metric("gen.lag_us.p50", "us", us(&mut lag, 0.5));
        self.metric("net.inbound_us.p50", "us", us(&mut inbound, 0.5));
        self.metric("net.inbound_us.p99", "us", us(&mut inbound, 0.99));
        self.metric("net.outbound_us.p50", "us", us(&mut outbound, 0.5));
        self.metric("net.outbound_us.p99", "us", us(&mut outbound, 0.99));
        let mut enc = run.inputs.encode_ns.clone();
        let mut dec = d.decode_ns.clone();
        self.metric("net.encode_ns.p50", "ns", ns(&mut enc, 0.5));
        self.metric("net.decode_ns.p50", "ns", ns(&mut dec, 0.5));
        let c = &run.counters;
        self.metric("net.shed_queue", "count", c.shed_queue as f64);
        self.metric("net.shed_inflight", "count", c.shed_inflight as f64);
        self.metric("net.dropped_replies", "count", c.dropped_replies as f64);
        self.metric("net.protocol_errors", "count", c.protocol_errors as f64);

        let served = service.len() as f64;
        self.metric("service_us.p50", "us", us(&mut service, 0.5));
        self.metric("service_us.p99", "us", us(&mut service, 0.99));
        for (op, samples) in OP_NAMES.iter().zip(per_op.iter_mut()) {
            self.metric(format!("service_us.{op}.p50"), "us", us(samples, 0.5));
        }
        let quarter = service_in_order.len() / 4;
        let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len().max(1) as f64;
        let first = mean(&service_in_order[..quarter]);
        let last = mean(&service_in_order[service_in_order.len() - quarter..]);
        self.metric("service.drift", "ratio", ratio(last, first));
        self.metric("appserver.idle_sessions", "count", c.idle_sessions as f64);

        // ORM and commit phases: the program's own phase histograms,
        // snapshotted after the server shut down (bucket resolution)
        let phase = |p: feral_trace::Phase| {
            c.phases
                .iter()
                .find(|(q, _)| *q == p)
                .map(|(_, s)| s.clone())
                .expect("every phase is snapshotted")
        };
        let hist_us = |s: &feral_trace::HistogramSnapshot, q: f64| match s.quantile(q) {
            _ if s.count == 0 => 0.0,
            // every sample fell in one bucket, which cannot be resolved
            // further: its exact mean is the better figure
            feral_trace::hist::QUANTILE_SENTINEL => s.mean() / 1e3,
            v => v as f64 / 1e3,
        };
        let (save, validate, write, commit) = (
            phase(feral_trace::Phase::Save),
            phase(feral_trace::Phase::Validate),
            phase(feral_trace::Phase::Write),
            phase(feral_trace::Phase::Commit),
        );
        self.metric("orm.save_us.p50", "us", hist_us(&save, 0.5));
        self.metric("orm.save_us.p99", "us", hist_us(&save, 0.99));
        self.metric("orm.validate_us.p50", "us", hist_us(&validate, 0.5));
        self.metric("orm.validate_us.p99", "us", hist_us(&validate, 0.99));
        self.metric("orm.write_us.p50", "us", hist_us(&write, 0.5));
        let db = c.db;
        self.metric(
            "orm.validation_probes_per_save",
            "ratio",
            ratio(db.validation_probes as f64, save.count as f64),
        );
        let user_creates = run
            .inputs
            .reqs
            .iter()
            .zip(&d.verdict)
            .filter(|(r, v)| {
                OP_NAMES[r.op as usize] == "create_user"
                    && matches!(v, Some(Verdict::Ok | Verdict::Invalid))
            })
            .count();
        self.metric(
            "orm.invalid_share",
            "share",
            ratio(t.invalid as f64, user_creates as f64),
        );
        self.metric("orm.duplicate_emails", "count", c.duplicate_emails as f64);

        self.metric("feraldb.commit_us.p50", "us", hist_us(&commit, 0.5));
        self.metric("feraldb.commit_us.p99", "us", hist_us(&commit, 0.99));
        let commits = db.commits as f64;
        self.metric(
            "feraldb.shard_conflicts_per_commit",
            "ratio",
            ratio(db.commit_shard_conflicts as f64, commits),
        );
        self.metric(
            "feraldb.commit_yield",
            "share",
            ratio(commits, commits + db.aborts as f64),
        );
        self.metric(
            "feraldb.write_conflicts",
            "count",
            db.write_conflicts as f64,
        );
        self.metric(
            "feraldb.serialization_failures",
            "count",
            db.serialization_failures as f64,
        );
        self.metric("feraldb.lock_timeouts", "count", db.lock_timeouts as f64);
        self.metric(
            "feraldb.scans_per_request",
            "ratio",
            ratio(db.scans as f64, served),
        );
        self.metric(
            "feraldb.index_probe_share",
            "share",
            ratio(db.index_probes as f64, db.scans as f64),
        );

        let audit = c.audit.as_ref();
        let field = |f: fn(&feral_db::AuditSnapshot) -> u64| audit.map_or(0.0, |a| f(a) as f64);
        self.metric("audit.footprints", "count", field(|a| a.footprints));
        self.metric("audit.edges", "count", field(|a| a.edges));
        self.metric("audit.drops", "count", field(|a| a.drops));
        self.metric("audit.gc_reclaims", "count", field(|a| a.gc_reclaims));
    }

    /// A human-readable table, the environment, then the JSON result as
    /// the last line.
    fn print(&self) {
        println!("workload {} seed {}", self.w.name, self.seed);
        println!(
            "env nproc={} commit={} rustc={} fsync_us_p50={:.1}",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
            std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
            self.fsync_us,
        );
        for (name, unit, value) in &self.metrics {
            println!("{name:<36} {value:>14.6} {unit}");
        }
        for f in &self.failures {
            println!("GATE FAILED: {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Scratch directory of the `sync_data` probe, inside the working
/// directory; removed once the probe is done.
const TMP_ROOT: &str = ".perfbench-tmp";

/// Median latency of a 4 KiB write + `sync_data` in a scratch directory
/// of the working directory, in µs.
fn fsync_probe_us() -> std::io::Result<f64> {
    use std::io::Write;
    let dir = std::path::Path::new(TMP_ROOT).join(std::process::id().to_string());
    std::fs::create_dir_all(&dir)?;
    let probe = || -> std::io::Result<f64> {
        let mut file = std::fs::File::create(dir.join("probe"))?;
        let block = [0xA5u8; 4096];
        let mut samples = Vec::new();
        for _ in 0..64 {
            let t0 = Instant::now();
            file.write_all(&block)?;
            file.sync_data()?;
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        Ok(median_f64(samples))
    };
    let result = probe();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(TMP_ROOT);
    result
}
