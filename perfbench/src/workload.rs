//! The two workloads: how each is set up in-process, which requests a
//! seed draws for it, which replies are legal, and the correctness gates
//! checked on the quiesced state after every phase.

use crate::gen::{poisson_schedule, Driven, Rng, Verdict};
use crate::spans::{Stamps, Traced};
use feral_db::{AuditMode, AuditSnapshot, Datum, Predicate, StatsSnapshot, Tuple};
use feral_net::planner::{self, certified_plan, seeded_database, PlannedService};
use feral_net::{wire, Server, ServerConfig};
use feral_orm::{App, ModelDef};
use feral_server::{PooledService, Request, Response, Service};
use std::sync::Arc;
use std::time::Instant;

/// Distinct user sessions (and template keys) requests are drawn over.
const SESSIONS: u64 = 1_000_000;
/// Users seeded into `orm-feral` before it serves.
pub const SEED_USERS: i64 = 10_000;
/// Seed rows per transaction.
const SEED_CHUNK: usize = 250;
/// Posts seeded into `orm-feral` (never destroyed).
const SEED_POSTS: i64 = 100;
/// Executors serving each workload: `feral-net`'s 1-loop/2-executor shape.
const EXECUTORS: usize = 2;

/// Operation names, indexed by [`Req::op`]: the five planner templates
/// in `planner::TEMPLATES` order, then the three `orm-feral` requests.
pub const OP_NAMES: [&str; 8] = [
    "signup",
    "hire",
    "disband",
    "deposit",
    "comment",
    "get_user",
    "create_user",
    "create_comment",
];
const GET_USER: u8 = 5;
const CREATE_USER: u8 = 6;
const CREATE_COMMENT: u8 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PlannerMem,
    OrmFeral,
}

/// A workload and the rates it is measured at, all fixed here so that
/// every commit is measured against the same offered load.
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// Reference rate, a share of the knee measured when the benchmark
    /// was defined (requests per second).
    pub ref_rps: f64,
    /// High fixed rate, a larger share of that knee: high enough that
    /// queueing shows, low enough that its median repeats.
    pub hi_rps: f64,
    /// That knee: where the search starts and what the saturation
    /// diagnostic offers twice of.
    pub knee_guess: f64,
}

impl Workload {
    /// The rates, as shares of the known knee. `planner-mem` runs at half
    /// and 0.65 of it (at 0.8 a VM stall tips a phase into a backlog often
    /// enough that its median does not repeat). `orm-feral` runs at 0.15
    /// and 0.22 of it: there every eighth request is a ~1 ms heap scan
    /// that holds a vCPU, and the median sits in the fast mode of a
    /// two-mode latency (requests that did or did not wait behind a scan)
    /// only while well under half the requests wait; nearer half, it
    /// jumps between the modes as the host's speed drifts.
    pub fn by_name(name: &str) -> Option<Workload> {
        let (kind, name, knee, ref_share, hi_share) = match name {
            "planner-mem" => (Kind::PlannerMem, "planner-mem", 40_000.0, 0.5, 0.65),
            "orm-feral" => (Kind::OrmFeral, "orm-feral", 14_000.0, 0.15, 0.22),
            _ => return None,
        };
        Some(Workload {
            kind,
            name,
            ref_rps: knee * ref_share,
            hi_rps: knee * hi_share,
            knee_guess: knee,
        })
    }

    /// Draw `n` requests arriving at `rate` from `seed`. In a traced
    /// phase each request's session is its sequence number.
    pub fn draw(&self, n: usize, rate: f64, seed: u64, traced: bool) -> Inputs {
        let mut rng = Rng::new(seed);
        let schedule = poisson_schedule(n, rate, &mut rng);
        // a create's email is drawn from twice as many addresses as the
        // phase has requests, so about 1 in 32 creates finds its address
        // taken and is answered `Invalid`
        let emails = 2 * n as u64;
        let mut reqs = Vec::with_capacity(n);
        let mut frames = Vec::with_capacity(n);
        let mut encode_ns = Vec::new();
        for i in 0..n {
            let drawn = rng.below(SESSIONS);
            let session = if traced { i as u64 } else { drawn };
            let (req, request) = match self.kind {
                Kind::PlannerMem => {
                    let op = template_index(rng.below(16));
                    let key = rng.below(SESSIONS);
                    let request = Request::template(planner::TEMPLATES[op as usize], key);
                    (Req { op, arg: 0 }, request)
                }
                Kind::OrmFeral => match rng.below(8) {
                    0..=5 => {
                        let id = 1 + rng.below(SEED_USERS as u64) as i64;
                        let request = Request::builder("User").get(id);
                        (
                            Req {
                                op: GET_USER,
                                arg: id,
                            },
                            request,
                        )
                    }
                    6 => {
                        let email = format!("u{}@example.com", rng.below(emails));
                        let request = Request::builder("User")
                            .attr("email", Datum::text(email))
                            .attr("name", Datum::text("created"))
                            .create();
                        (
                            Req {
                                op: CREATE_USER,
                                arg: 0,
                            },
                            request,
                        )
                    }
                    _ => {
                        let post = 1 + rng.below(SEED_POSTS as u64) as i64;
                        let request = Request::builder("Comment")
                            .attr("post_id", Datum::Int(post))
                            .attr("body", Datum::text("first"))
                            .create();
                        (
                            Req {
                                op: CREATE_COMMENT,
                                arg: post,
                            },
                            request,
                        )
                    }
                },
            };
            let request = request.with_session(session);
            let t0 = traced.then(Instant::now);
            frames.push(wire::encode_request(i as u64, &request).expect("wire-encodable request"));
            if let Some(t0) = t0 {
                encode_ns.push(t0.elapsed().as_nanos() as u64);
            }
            reqs.push(req);
        }
        Inputs {
            frames,
            schedule,
            reqs,
            encode_ns,
        }
    }

    /// Build the workload's state from nothing and start a server on it.
    /// `setup_s` covers DB open, schema, seed rows and `Server::start`.
    pub fn setup(&self, stamps: Option<(Arc<Stamps>, Instant)>) -> std::io::Result<Instance> {
        let started = Instant::now();
        let target = match self.kind {
            Kind::PlannerMem => Target::Planner(Arc::new(PlannedService::new(
                seeded_database(AuditMode::Sampled(64)),
                certified_plan(),
            ))),
            Kind::OrmFeral => {
                let app = seeded_app().map_err(std::io::Error::other)?;
                let svc = Arc::new(PooledService::new(app.clone(), EXECUTORS));
                Target::Orm { svc, app }
            }
        };
        let baseline = match &target {
            Target::Planner(svc) => svc.db().stats().snapshot(),
            Target::Orm { app, .. } => app.db().stats().snapshot(),
        };
        let service: Arc<dyn Service> = match &target {
            Target::Planner(svc) => svc.clone(),
            Target::Orm { svc, .. } => svc.clone(),
        };
        let service: Arc<dyn Service> = match stamps {
            Some((stamps, epoch)) => Arc::new(Traced {
                inner: service,
                stamps,
                epoch,
            }),
            None => service,
        };
        let server = Server::start(
            service,
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                event_loops: 1,
                executors: EXECUTORS,
                max_conns: 16,
                queue: 1024,
                // the single multiplexed connection must never be shed by
                // the per-connection cap: the dispatch queue bounds
                // in-flight requests well below this
                inflight: 1 << 20,
            },
        )?;
        Ok(Instance {
            setup_s: started.elapsed().as_secs_f64(),
            baseline,
            server: Some(server),
            target,
        })
    }

    /// Classify one reply to `req`; returns the id an acknowledged
    /// create produced.
    pub fn judge(&self, req: Req, response: &Response) -> (Verdict, Option<i64>) {
        let verdict = match (req.op, response) {
            (_, Response::Overloaded) => Verdict::Shed,
            (_, Response::Error(_)) => Verdict::Error,
            (0..=4, Response::Ok) => Verdict::Ok,
            (GET_USER, Response::Found(record)) if record.id() == Some(req.arg) => Verdict::Ok,
            (CREATE_USER | CREATE_COMMENT, Response::Created(id)) => {
                return (Verdict::Ok, Some(*id))
            }
            // only a taken email may reject a create
            (CREATE_USER, Response::Invalid(messages))
                if messages.iter().any(|m| m.contains("already been taken")) =>
            {
                Verdict::Invalid
            }
            _ => Verdict::Wrong,
        };
        (verdict, None)
    }
}

fn template_index(r: u64) -> u8 {
    // cumulative planner::WEIGHTS (3, 3, 1, 2, 7)
    let mut acc = 0;
    for (i, w) in planner::WEIGHTS.iter().enumerate() {
        acc += *w as u64;
        if r < acc {
            return i as u8;
        }
    }
    unreachable!("draw below the weight sum")
}

/// One request as the benchmark drew it.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    /// Index into [`OP_NAMES`].
    pub op: u8,
    /// The id a `get_user` expects back, or the post a comment targets.
    pub arg: i64,
}

pub struct Inputs {
    pub frames: Vec<Vec<u8>>,
    pub schedule: Vec<u64>,
    pub reqs: Vec<Req>,
    /// `wire::encode_request` cost per request, when timed.
    pub encode_ns: Vec<u64>,
}

enum Target {
    Planner(Arc<PlannedService>),
    Orm { svc: Arc<PooledService>, app: App },
}

/// A served workload: the running server and the state behind it.
pub struct Instance {
    pub setup_s: f64,
    /// Engine counters once set-up finished, so a phase reports only
    /// the work its requests did.
    baseline: StatsSnapshot,
    server: Option<Server>,
    target: Target,
}

/// Layer counters read from the quiesced state after shutdown.
#[derive(Default)]
pub struct Counters {
    pub served: u64,
    pub shed_queue: u64,
    pub shed_inflight: u64,
    pub dropped_replies: u64,
    pub protocol_errors: u64,
    pub db: StatsSnapshot,
    pub audit: Option<AuditSnapshot>,
    pub idle_sessions: u64,
    pub duplicate_emails: u64,
    /// The program's phase histograms, snapshotted after shutdown.
    pub phases: Vec<(feral_trace::Phase, feral_trace::HistogramSnapshot)>,
}

impl Instance {
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("server running").local_addr()
    }

    /// Shut the server down, then check the phase's correctness gates
    /// against what the generator saw acknowledged. Returns the layer
    /// counters and every gate that failed.
    pub fn finish(mut self, inputs: &Inputs, driven: &Driven) -> (Counters, Vec<String>) {
        let server = self.server.take().expect("server running");
        let mut c = Counters::default();
        {
            use std::sync::atomic::Ordering::Relaxed;
            let m = server.metrics();
            c.served = m.served.load(Relaxed);
            c.shed_queue = m.shed_queue.load(Relaxed);
            c.shed_inflight = m.shed_inflight.load(Relaxed);
            c.dropped_replies = m.dropped_replies.load(Relaxed);
            c.protocol_errors = m.protocol_errors.load(Relaxed);
        }
        server.shutdown();
        // a traced phase's histograms are complete once every executor
        // has been joined; nothing after this point is traced
        feral_trace::set_enabled(false);
        c.phases = feral_trace::phase_snapshots();
        let mut failures = Vec::new();
        let wrong = driven
            .verdict
            .iter()
            .filter(|v| **v == Some(Verdict::Wrong))
            .count();
        if wrong > 0 {
            failures.push(format!("{wrong} replies the request cannot legally get"));
        }
        match &self.target {
            Target::Planner(svc) => {
                let db = svc.db();
                c.audit = db.audit_snapshot();
                c.db = db.stats().snapshot().diff(&self.baseline);
                let anomalies = svc.integrity_audit();
                if anomalies.total() > 0 {
                    failures.push(format!("integrity audit: {}", anomalies.describe()));
                }
                if c.db.plan_failsafe_escalations > 0 {
                    failures.push(format!(
                        "{} plan fail-safe escalations",
                        c.db.plan_failsafe_escalations
                    ));
                }
                if let Some(a) = &c.audit {
                    if a.cycles > 0 {
                        failures.push(format!("runtime auditor found {} cycles", a.cycles));
                    }
                }
            }
            Target::Orm { svc, app } => {
                c.idle_sessions = svc.idle_sessions() as u64;
                c.db = app.db().stats().snapshot().diff(&self.baseline);
                let mut acked = [Vec::new(), Vec::new()];
                for (i, created) in driven.created.iter().enumerate() {
                    if let Some(id) = created {
                        acked[(inputs.reqs[i].op == CREATE_COMMENT) as usize].push(*id);
                    }
                }
                match orm_gates(app, &acked[0], &acked[1]) {
                    Ok((dups, mut f)) => {
                        c.duplicate_emails = dups;
                        failures.append(&mut f);
                    }
                    Err(e) => failures.push(format!("post-run read failed: {e}")),
                }
            }
        }
        (c, failures)
    }
}

/// Every acknowledged create is readable, and the User row count is the
/// seed plus the acknowledged User creates. Returns the number of
/// surplus rows sharing an email (reported, not gated: the paper's
/// read-committed race can admit them) and the failed gates.
fn orm_gates(app: &App, users: &[i64], comments: &[i64]) -> Result<(u64, Vec<String>), String> {
    let mut failures = Vec::new();
    let mut tx = app.db().txn().begin();
    let mut read = |model: &str| -> Result<Vec<Arc<Tuple>>, String> {
        let table = app.model(model).map_err(|e| e.to_string())?.table.clone();
        let rows = tx
            .scan(&table, &Predicate::True)
            .map_err(|e| e.to_string())?;
        Ok(rows.into_iter().map(|(_, t)| t).collect())
    };
    let user_rows = read("User")?;
    let comment_rows = read("Comment")?;
    tx.rollback();
    let ids = |rows: &[Arc<Tuple>]| -> std::collections::HashSet<i64> {
        rows.iter().filter_map(|t| t[0].as_int()).collect()
    };
    let (user_ids, comment_ids) = (ids(&user_rows), ids(&comment_rows));
    let unreadable = users.iter().filter(|id| !user_ids.contains(id)).count()
        + comments
            .iter()
            .filter(|id| !comment_ids.contains(id))
            .count();
    if unreadable > 0 {
        failures.push(format!(
            "{unreadable} acknowledged creates are not readable"
        ));
    }
    let expected = SEED_USERS as usize + users.len();
    if user_rows.len() != expected {
        failures.push(format!(
            "{} User rows, expected seed {SEED_USERS} + {} acknowledged",
            user_rows.len(),
            users.len()
        ));
    }
    let mut emails: Vec<&str> = user_rows.iter().filter_map(|t| t[1].as_text()).collect();
    emails.sort_unstable();
    let dups = emails.windows(2).filter(|w| w[0] == w[1]).count() as u64;
    Ok((dups, failures))
}

/// The `orm-feral` application: users with an email uniqueness
/// validation and *no* email index (one full-heap probe per save),
/// posts, and comments that belong to a post with a presence check.
/// Seed rows go in through the engine: seeding through validated saves
/// would cost one heap scan per row.
fn seeded_app() -> Result<App, String> {
    let app = App::in_memory();
    let define = |def: ModelDef| app.define(def).map_err(|e| e.to_string());
    let user = define(
        ModelDef::build("User")
            .string("email")
            .string("name")
            .validates_uniqueness_of("email")
            .finish(),
    )?;
    let post = define(ModelDef::build("Post").string("title").finish())?;
    define(
        ModelDef::build("Comment")
            .string("body")
            .belongs_to("post")
            .validates_presence_of("post")
            .finish(),
    )?;
    // chunked: a transaction checks each insert against its own pending
    // writes, so one 10k-row transaction would be quadratic
    let ts = Datum::Timestamp(0);
    for chunk in (0..SEED_USERS).collect::<Vec<_>>().chunks(SEED_CHUNK) {
        app.db()
            .txn()
            .run(|tx| {
                for i in chunk {
                    tx.insert_pairs(
                        &user.table,
                        &[
                            ("email", Datum::text(format!("seed{i}@example.com"))),
                            ("name", Datum::text("seeded")),
                            ("created_at", ts.clone()),
                            ("updated_at", ts.clone()),
                        ],
                    )?;
                }
                Ok(())
            })
            .map_err(|e| e.to_string())?;
    }
    app.db()
        .txn()
        .run(|tx| {
            for i in 0..SEED_POSTS {
                tx.insert_pairs(
                    &post.table,
                    &[
                        ("title", Datum::text(format!("post {i}"))),
                        ("created_at", ts.clone()),
                        ("updated_at", ts.clone()),
                    ],
                )?;
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?;
    Ok(app)
}
