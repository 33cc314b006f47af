//! feral-net — the wire frontend and its open-loop load harness.
//!
//! ```text
//! feral-net serve [--addr A] [--loops N] [--executors P] ...   # run a server
//! feral-net loadbench [--smoke|--full] [--out PATH] ...        # BENCH_load.json
//! ```

use feral_audit::AuditSnapshot;
use feral_cli::{die, render_help, write_out, Args, EXIT_DEVIATION};
use feral_db::{AuditMode, IsolationLevel, IsolationPlan};
use feral_net::load::run_load;
use feral_net::planner::{certified_plan, seeded_database, PlannedService, TEMPLATES};
use feral_net::report::{render_load_json, render_prometheus, validate_load_report};
use feral_net::{AblationRow, Dist, GridRow, LoadConfig, Server, ServerConfig};
use feral_server::Request;
use std::process::ExitCode;
use std::sync::Arc;

const TOOL: &str = "feral-net";

fn help() -> String {
    render_help(
        TOOL,
        "binary wire protocol server + open-loop load harness over the planner workload",
        "  feral-net serve [--addr HOST:PORT] [--loops N] [--executors P] [--queue Q] [--inflight K]\n\
         \x20 feral-net loadbench [--smoke|--full] [--requests N] [--rate R] [--conns C] [--think-us T]\n",
        "  --addr HOST:PORT  bind address for serve (default 127.0.0.1:0, printed once bound)\n\
         \x20 --loops N         event loops (default 2)\n\
         \x20 --executors P     executor pool size (default 4)\n\
         \x20 --queue Q         dispatch-queue bound (default 1024)\n\
         \x20 --inflight K      per-connection in-flight bound (default 64)\n\
         \x20 --requests N      loadbench requests per grid cell (default 400 smoke / 20000 full)\n\
         \x20 --rate R          loadbench target arrival rate, req/s per cell (default 4000)\n\
         \x20 --conns C         loadbench client connections per cell (default 4)\n\
         \x20 --think-us T      loadbench think time per arrival, microseconds (default 0)\n\
         \x20 --prom            loadbench: also print Prometheus text for the grid to stderr\n",
    )
}

/// Deterministically pick a template for a `(session, key)` pair with
/// the planner bench's 3/3/1/2/7 weights (the weights sum to 16, so
/// four hash bits decide).
fn template_for(session: u64, key: u64) -> &'static str {
    let h = (session ^ key.rotate_left(32)).wrapping_mul(0x9E3779B97F4A7C15);
    match (h >> 60) & 15 {
        0..=2 => TEMPLATES[0], // signup (3)
        3..=5 => TEMPLATES[1], // hire (3)
        6 => TEMPLATES[2],     // disband (1)
        7..=8 => TEMPLATES[3], // deposit (2)
        _ => TEMPLATES[4],     // comment (7)
    }
}

fn make_template_request(session: u64, key: u64) -> Request {
    Request::template(template_for(session, key), key).with_session(session)
}

fn serve(args: &Args) -> ExitCode {
    let config = ServerConfig {
        addr: args.get_str("addr").unwrap_or("127.0.0.1:0").to_string(),
        event_loops: args.get_usize("loops", 2),
        executors: args.get_usize("executors", 4),
        max_conns: args.get_usize("max-conns", 1024),
        queue: args.get_usize("queue", 1024),
        inflight: args.get_usize("inflight", 64),
    };
    let db = seeded_database(AuditMode::Sampled(args.get_u64("sample", 64) as u32));
    let service = Arc::new(PlannedService::new(db, certified_plan()));
    let server = match Server::start(service, config) {
        Ok(s) => s,
        Err(e) => die(TOOL, &format!("cannot start server: {e}")),
    };
    eprintln!(
        "{TOOL}: serving the certified planner workload on {}",
        server.local_addr()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

struct BenchKnobs {
    requests: u64,
    rate: f64,
    conns: usize,
    think_us: u64,
    queue: usize,
    inflight: usize,
    seed: u64,
}

fn run_grid_cell(workers: usize, dist: Dist, knobs: &BenchKnobs) -> std::io::Result<GridRow> {
    let db = seeded_database(AuditMode::Off);
    let service = Arc::new(PlannedService::new(db, certified_plan()));
    let server = Server::start(
        service,
        ServerConfig {
            event_loops: workers.min(2),
            executors: workers,
            queue: knobs.queue,
            inflight: knobs.inflight,
            ..ServerConfig::default()
        },
    )?;
    let cfg = LoadConfig {
        conns: knobs.conns,
        rate: knobs.rate,
        requests: knobs.requests,
        sessions: 1_000_000,
        keys: 10_000,
        think_us: knobs.think_us,
        dist,
        seed: knobs.seed ^ (workers as u64) << 8,
    };
    let outcome = run_load(server.local_addr(), &cfg, make_template_request)?;
    server.shutdown();
    Ok(GridRow {
        workers,
        dist: dist.name(),
        conns: cfg.conns,
        sessions: cfg.sessions,
        target_rate: cfg.rate,
        think_us: cfg.think_us,
        outcome,
    })
}

fn run_ablation(
    config: &'static str,
    plan: IsolationPlan,
    knobs: &BenchKnobs,
) -> std::io::Result<AblationRow> {
    let db = seeded_database(AuditMode::Sampled(16));
    let service = Arc::new(PlannedService::new(db, plan));
    let server = Server::start(
        service.clone(),
        ServerConfig {
            event_loops: 2,
            executors: 4,
            queue: knobs.queue,
            inflight: knobs.inflight,
            ..ServerConfig::default()
        },
    )?;
    let cfg = LoadConfig {
        conns: knobs.conns,
        rate: knobs.rate,
        requests: knobs.requests * 2,
        sessions: 1_000_000,
        keys: 10_000,
        think_us: 0,
        dist: Dist::Zipfian,
        seed: knobs.seed.wrapping_mul(7919),
    };
    let outcome = run_load(server.local_addr(), &cfg, make_template_request)?;
    server.shutdown();
    let anomalies = service.integrity_audit();
    let (cycles, schema_ok, audit) = match service.db().audit_snapshot() {
        Some(snap) => {
            let json = snap.to_json();
            let decoded = AuditSnapshot::from_json(&json);
            if let Err(e) = &decoded {
                eprintln!("{TOOL}: {config}: audit snapshot failed schema validation: {e}");
            }
            (snap.cycles, decoded.is_ok(), Some(json))
        }
        None => (0, false, None),
    };
    Ok(AblationRow {
        config,
        outcome,
        anomalies,
        cycles,
        schema_ok,
        audit,
    })
}

fn loadbench(args: &Args) -> ExitCode {
    let full = args.has("full");
    let smoke = args.has("smoke") || !full;
    let mode = if smoke { "smoke" } else { "full" };
    let knobs = BenchKnobs {
        requests: args.get_u64("requests", if smoke { 400 } else { 20_000 }),
        rate: args.get_u64("rate", 4000) as f64,
        conns: args.get_usize("conns", 4),
        think_us: args.get_u64("think-us", 0),
        queue: args.get_usize("queue", 1024),
        inflight: args.get_usize("inflight", 64),
        seed: args.get_u64("seed", 0x10AD),
    };
    let worker_counts: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    eprintln!(
        "{TOOL} loadbench ({mode}): {} requests/cell at {:.0}/s over {} conns, workers {worker_counts:?}",
        knobs.requests, knobs.rate, knobs.conns
    );
    let mut grid = Vec::new();
    for &workers in worker_counts {
        for dist in [Dist::Uniform, Dist::Zipfian] {
            match run_grid_cell(workers, dist, &knobs) {
                Ok(row) => {
                    eprintln!(
                        "  w={workers} {:<8} {:>7.0} req/s  p50 {:>9}ns  p99 {:>9}ns  p999 {:>9}ns  ({} ok / {} shed / {} lost)",
                        dist.name(),
                        row.outcome.throughput(),
                        row.outcome.latency.quantile(0.50),
                        row.outcome.latency.quantile(0.99),
                        row.outcome.latency.quantile(0.999),
                        row.outcome.completed,
                        row.outcome.shed,
                        row.outcome.lost,
                    );
                    grid.push(row);
                }
                Err(e) => die(TOOL, &format!("grid cell w={workers} failed: {e}")),
            }
        }
    }

    let mut ablation = Vec::new();
    for (config, plan) in [
        ("planner", certified_plan()),
        (
            "all-serializable",
            IsolationPlan::new(IsolationLevel::Serializable),
        ),
    ] {
        match run_ablation(config, plan, &knobs) {
            Ok(row) => {
                eprintln!(
                    "  ablation {config:<17} {:>7.0} req/s  {} completed, {} anomalies, {} cycles",
                    row.outcome.throughput(),
                    row.outcome.completed,
                    row.anomalies.total(),
                    row.cycles,
                );
                ablation.push(row);
            }
            Err(e) => die(TOOL, &format!("ablation {config} failed: {e}")),
        }
    }

    if args.has("prom") {
        eprint!("{}", render_prometheus(&grid));
    }

    let json = render_load_json(mode, knobs.queue, knobs.inflight, &grid, &ablation);
    // self-validate with the same validator checkreport applies
    let verdict = validate_load_report(&json);
    let path = args.get_str("out").unwrap_or("BENCH_load.json");
    write_out(TOOL, Some(path), &json);
    match verdict {
        Ok(summary) => {
            println!("{TOOL} loadbench: all gates pass ({summary})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{TOOL}: GATE FAILED: {e}");
            ExitCode::from(EXIT_DEVIATION)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::from_iter(argv.clone());
    if args.has("help") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    match argv.first().map(String::as_str) {
        Some("serve") => serve(&args),
        Some("loadbench") => loadbench(&args),
        Some(other) if !other.starts_with("--") => {
            die(TOOL, &format!("unknown subcommand `{other}`"))
        }
        _ => {
            print!("{}", help());
            ExitCode::from(feral_cli::EXIT_USAGE)
        }
    }
}
