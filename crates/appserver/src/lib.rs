//! # feral-server
//!
//! A simulated Rails deployment: Nginx + a pool of single-threaded
//! Unicorn workers, reduced to its concurrency-relevant essentials.
//!
//! In the paper's architecture (§2.2), each HTTP request is routed to one
//! worker process holding one database connection; workers share nothing
//! but the database. This crate models exactly that: a [`Deployment`]
//! owns `P` OS threads, each with its own [`feral_orm::Session`], fed
//! from a shared queue. The experiment harness issues *rounds* of
//! concurrent requests and blocks until every response arrives — the
//! paper's "blocking in-between rounds to ensure that each round is, in
//! fact, a concurrent set of requests" (§5.2).
//!
//! ## The [`Service`] boundary
//!
//! Every request path in the repo now goes through one transport-agnostic
//! trait: [`Service::call`] maps a [`Request`] to a [`Response`].
//! Implementations:
//!
//! * [`Deployment`] — the classic in-process worker pool (also the
//!   sim-hooked path: its dispatch and handle sites are
//!   `feral_hooks` yield points, so deterministic schedule exploration
//!   drives it unchanged);
//! * [`PooledService`] — a sessionless front door holding a bounded
//!   connection pool, the shape a networked frontend's executor threads
//!   want (one [`feral_orm::Session`] checked out per in-flight call);
//! * `feral_net::NetClient` — the networked frontend: the same calls,
//!   over a length-prefixed wire protocol.
//!
//! [`Deployment::round`] and [`Deployment::dispatch`] remain as thin
//! adapters over the same machinery, so the round-barrier experiment
//! harness and the benches migrate without behaviour change.

#![warn(missing_docs)]

use crossbeam::channel::{unbounded, Receiver, Sender};
use feral_db::Datum;
use feral_orm::{App, OrmError, Record, Session};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A transport-agnostic application service: the one interface the
/// in-process deployment, the deterministic-sim path, and the networked
/// frontend all implement. A service must be callable from any thread;
/// each call is one request/response exchange.
pub trait Service: Send + Sync {
    /// Handle one request to completion.
    fn call(&self, request: Request) -> Response;
}

/// What a request asks the application to do — the HTTP verbs the
/// experiment applications expose (paper Appendix C.1: "simple View and
/// Controller logic to allow us to POST, GET, and DELETE each kind of
/// model instance"), plus the named-template entry point the isolation
/// planner's workloads use.
pub enum Op {
    /// `POST /<model>` — build a record from attributes and `save` it.
    Create {
        /// Model class name.
        model: String,
        /// Attribute assignments.
        attrs: Vec<(String, Datum)>,
    },
    /// `DELETE /<model>/<id>` — `find` then `destroy` (runs dependent
    /// association logic ferally).
    Destroy {
        /// Model class name.
        model: String,
        /// Record id.
        id: i64,
    },
    /// `GET /<model>/<id>`.
    Get {
        /// Model class name.
        model: String,
        /// Record id.
        id: i64,
    },
    /// A named transaction template (the `feral-plan` key vocabulary,
    /// e.g. `uniqueness-probe-insert:signups.email`) applied to `key`.
    /// Only template-aware services (the planner workload frontends)
    /// handle these; ORM-backed services answer with a config error.
    Template {
        /// Template key, `{class}:{table}.{column}`.
        name: String,
        /// Workload key the template instance targets.
        key: u64,
    },
    /// Arbitrary controller logic (used by workloads that update
    /// records). Not serializable: a custom request cannot cross a wire.
    Custom(Box<dyn FnOnce(&mut Session) -> Response + Send>),
}

/// A request, as dispatched to a worker: a first-class user session
/// identity plus the operation. Session ids let a load generator
/// simulate millions of distinct users without any per-user server
/// state; they flow into trace events for per-session provenance.
pub struct Request {
    /// The issuing user session (0 = anonymous/none).
    pub session: u64,
    /// What to do.
    pub op: Op,
}

impl Request {
    /// Start building a model-targeted request.
    pub fn builder(model: impl Into<String>) -> RequestBuilder {
        RequestBuilder {
            model: model.into(),
            session: 0,
            attrs: Vec::new(),
        }
    }

    /// A named-template request (see [`Op::Template`]).
    pub fn template(name: impl Into<String>, key: u64) -> Request {
        Request {
            session: 0,
            op: Op::Template {
                name: name.into(),
                key,
            },
        }
    }

    /// An arbitrary-controller-logic request (see [`Op::Custom`]).
    pub fn custom(f: impl FnOnce(&mut Session) -> Response + Send + 'static) -> Request {
        Request {
            session: 0,
            op: Op::Custom(Box::new(f)),
        }
    }

    /// Attach a session identity to an already-built request.
    pub fn with_session(mut self, session: u64) -> Request {
        self.session = session;
        self
    }
}

/// Builder for model-targeted [`Request`]s: model, op, attributes, and
/// session identity, each spelled once and typed. The terminal methods
/// ([`RequestBuilder::create`], [`RequestBuilder::get`],
/// [`RequestBuilder::destroy`]) pick the operation.
pub struct RequestBuilder {
    model: String,
    session: u64,
    attrs: Vec<(String, Datum)>,
}

impl RequestBuilder {
    /// Set the issuing session id.
    pub fn session(mut self, session: u64) -> Self {
        self.session = session;
        self
    }

    /// Add one attribute assignment.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<Datum>) -> Self {
        self.attrs.push((name.into(), value.into()));
        self
    }

    /// Add attribute assignments from `(name, value)` pairs.
    pub fn attrs(mut self, pairs: &[(&str, Datum)]) -> Self {
        self.attrs
            .extend(pairs.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
        self
    }

    /// Finish as a `POST /<model>` create.
    pub fn create(self) -> Request {
        Request {
            session: self.session,
            op: Op::Create {
                model: self.model,
                attrs: self.attrs,
            },
        }
    }

    /// Finish as a `GET /<model>/<id>`.
    pub fn get(self, id: i64) -> Request {
        Request {
            session: self.session,
            op: Op::Get {
                model: self.model,
                id,
            },
        }
    }

    /// Finish as a `DELETE /<model>/<id>`.
    pub fn destroy(self, id: i64) -> Request {
        Request {
            session: self.session,
            op: Op::Destroy {
                model: self.model,
                id,
            },
        }
    }
}

/// A response, as returned by a worker.
#[derive(Debug)]
pub enum Response {
    /// Save succeeded; the created record's id.
    Created(i64),
    /// Validations failed; nothing was written.
    Invalid(Vec<String>),
    /// Destroy succeeded.
    Destroyed,
    /// Read succeeded.
    Found(Record),
    /// The target row does not exist.
    NotFound,
    /// The database rejected the request (constraint violation,
    /// serialization failure, lock timeout, ...).
    Error(OrmError),
    /// The deployment shed this request under overload before any
    /// application logic ran. Always safe to retry.
    Overloaded,
    /// Custom-handler / template success marker.
    Ok,
}

impl Response {
    /// Whether the request had its intended effect.
    pub fn succeeded(&self) -> bool {
        matches!(
            self,
            Response::Created(_) | Response::Destroyed | Response::Found(_) | Response::Ok
        )
    }

    /// Whether re-issuing the identical request may succeed: load sheds
    /// always (nothing ran), and errors the ORM classifies as retryable
    /// (concurrency aborts, optimistic-locking conflicts).
    pub fn retryable(&self) -> bool {
        match self {
            Response::Overloaded => true,
            Response::Error(e) => e.is_retryable(),
            _ => false,
        }
    }
}

struct Job {
    /// Position of the request within its round, so one shared reply
    /// channel can preserve request order without per-request collector
    /// threads (which would also defeat deterministic scheduling).
    index: usize,
    request: Request,
    reply: Sender<(usize, Response)>,
}

/// Configuration for a deployment.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Number of single-threaded workers (Unicorn processes).
    pub workers: usize,
    /// Upper bound of the random pre-dispatch delay injected per request,
    /// modelling HTTP proxying and Ruby VM scheduling jitter. Zero
    /// disables it.
    pub request_jitter: Duration,
    /// RNG seed for jitter reproducibility.
    pub seed: u64,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            workers: 4,
            request_jitter: Duration::ZERO,
            seed: 0,
        }
    }
}

/// Per-worker request counters (shared with the worker thread).
#[derive(Debug, Default)]
struct WorkerCounters {
    /// Requests handled, regardless of outcome.
    served: AtomicU64,
    /// Requests answered with [`Response::Error`].
    errors: AtomicU64,
    /// Requests answered with [`Response::Invalid`].
    invalid: AtomicU64,
}

/// A point-in-time snapshot of a deployment's counters: per-worker
/// served/error/invalid tallies plus the pool's request-latency
/// histogram. Uneven worker sharing and validation-rejection rates are
/// read off this instead of guessed at.
#[derive(Debug, Clone)]
pub struct DeploymentMetrics {
    /// Requests served, per worker.
    pub served: Vec<u64>,
    /// [`Response::Error`] responses, per worker.
    pub errors: Vec<u64>,
    /// [`Response::Invalid`] responses, per worker.
    pub invalid: Vec<u64>,
    /// Request service-time histogram (nanoseconds), pooled across
    /// workers. Populated only while `feral_trace` is enabled.
    pub latency: feral_trace::HistogramSnapshot,
}

impl DeploymentMetrics {
    /// Total requests served across all workers.
    pub fn total_served(&self) -> u64 {
        self.served.iter().sum()
    }

    /// Total error responses across all workers.
    pub fn total_errors(&self) -> u64 {
        self.errors.iter().sum()
    }

    /// Total validation-rejected responses across all workers.
    pub fn total_invalid(&self) -> u64 {
        self.invalid.iter().sum()
    }
}

/// A running worker pool bound to an [`App`].
pub struct Deployment {
    jobs: Sender<Job>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    counters: Arc<Vec<WorkerCounters>>,
    latency: Arc<feral_trace::Histogram>,
}

impl Deployment {
    /// Spin up `config.workers` workers, each holding one session at the
    /// app database's default isolation.
    pub fn start(app: App, config: DeploymentConfig) -> Self {
        let (tx, rx) = unbounded::<Job>();
        let counters: Arc<Vec<WorkerCounters>> = Arc::new(
            (0..config.workers)
                .map(|_| WorkerCounters::default())
                .collect(),
        );
        let latency = Arc::new(feral_trace::Histogram::new());
        let mut handles = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let app = app.clone();
            let rx: Receiver<Job> = rx.clone();
            let jitter = config.request_jitter;
            let counters = counters.clone();
            let latency = latency.clone();
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(w as u64));
            // register the worker with any active schedule hook *before*
            // spawning, so the simulated worker set is deterministic; the
            // pool threads are daemons (they do not keep a simulation
            // alive while idle in `recv`)
            let reg = feral_hooks::spawn_registration(true);
            handles.push(std::thread::spawn(move || {
                let _active = reg.map(feral_hooks::Registration::activate);
                let mut session = app.session();
                while let Ok(job) = rx.recv() {
                    if feral_hooks::active() {
                        // jitter exists to shake loose interleavings; under
                        // a deterministic scheduler the schedule explorer
                        // does that job, so the sleep becomes a yield point
                        feral_hooks::yield_point(feral_hooks::Site::ServerHandle);
                    } else if !jitter.is_zero() {
                        let d = rng.random_range(0..=jitter.as_micros() as u64);
                        std::thread::sleep(Duration::from_micros(d));
                    }
                    feral_trace::record(
                        feral_trace::EventKind::Site(feral_hooks::Site::ServerHandle),
                        0,
                        w as u64,
                        job.request.session,
                    );
                    let span = feral_trace::start_phase(feral_trace::Phase::Request);
                    let response = handle(&mut session, job.request);
                    let nanos = span.finish(0);
                    if nanos > 0 {
                        latency.record(nanos);
                    }
                    let c = &counters[w];
                    c.served.fetch_add(1, Ordering::Relaxed);
                    match &response {
                        Response::Error(_) => {
                            c.errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Response::Invalid(_) => {
                            c.invalid.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {}
                    }
                    let _ = job.reply.send((job.index, response));
                }
            }));
        }
        Deployment {
            jobs: tx,
            handles,
            workers: config.workers,
            counters,
            latency,
        }
    }

    /// Requests served so far, per worker — load-balance diagnostics.
    /// See [`Deployment::metrics`] for the full counter snapshot.
    pub fn requests_served(&self) -> Vec<u64> {
        self.counters
            .iter()
            .map(|c| c.served.load(Ordering::Relaxed))
            .collect()
    }

    /// Snapshot all deployment counters: per-worker served, error, and
    /// validation-rejected tallies plus the pooled request-latency
    /// histogram.
    pub fn metrics(&self) -> DeploymentMetrics {
        DeploymentMetrics {
            served: self.requests_served(),
            errors: self
                .counters
                .iter()
                .map(|c| c.errors.load(Ordering::Relaxed))
                .collect(),
            invalid: self
                .counters
                .iter()
                .map(|c| c.invalid.load(Ordering::Relaxed))
                .collect(),
            latency: self.latency.snapshot(),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Dispatch one round of requests concurrently across the pool and
    /// collect all responses (order corresponds to request order). A
    /// thin adapter over the shared queue: the concurrency-relevant
    /// behaviour is identical to issuing [`Service::call`] from `n`
    /// client threads at once.
    pub fn round(&self, requests: Vec<Request>) -> Vec<Response> {
        let n = requests.len();
        let (reply_tx, reply_rx) = unbounded::<(usize, Response)>();
        for (index, request) in requests.into_iter().enumerate() {
            feral_hooks::yield_point(feral_hooks::Site::ServerDispatch);
            self.jobs
                .send(Job {
                    index,
                    request,
                    reply: reply_tx.clone(),
                })
                .expect("worker pool is gone");
        }
        drop(reply_tx);
        let mut out: Vec<Option<Response>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            match reply_rx.recv() {
                Ok((i, r)) => out[i] = Some(r),
                Err(_) => break,
            }
        }
        out.into_iter()
            .map(|r| r.unwrap_or(Response::Error(OrmError::Config("worker died".into()))))
            .collect()
    }

    /// Dispatch a single request and wait for its response (the
    /// [`Service::call`] adapter).
    pub fn dispatch(&self, request: Request) -> Response {
        self.round(vec![request]).pop().unwrap()
    }

    /// Shut the pool down, waiting for workers to drain.
    pub fn shutdown(self) {
        drop(self.jobs);
        // joins block in the OS, not at a yield point — tell any active
        // scheduler this worker holds no turn until they complete
        feral_hooks::blocking(|| {
            for h in self.handles {
                let _ = h.join();
            }
        });
    }
}

impl Service for Deployment {
    fn call(&self, request: Request) -> Response {
        self.dispatch(request)
    }
}

/// An in-process [`Service`] with a bounded session pool instead of
/// worker threads: each call checks a [`feral_orm::Session`] out (or
/// opens one when the pool is dry), runs the request on the *calling*
/// thread, and returns the session if the pool has room. This is the
/// shape a networked frontend's executor threads front the database
/// with — `pool` plays the role of the Rails database connection pool.
pub struct PooledService {
    app: App,
    sessions: parking_lot::Mutex<Vec<Session>>,
    pool: usize,
    calls: AtomicU64,
}

impl PooledService {
    /// A pooled service over `app` retaining at most `pool` idle
    /// sessions.
    pub fn new(app: App, pool: usize) -> Self {
        PooledService {
            app,
            sessions: parking_lot::Mutex::new(Vec::with_capacity(pool)),
            pool,
            calls: AtomicU64::new(0),
        }
    }

    /// Requests served so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Sessions currently idle in the pool.
    pub fn idle_sessions(&self) -> usize {
        self.sessions.lock().len()
    }
}

impl Service for PooledService {
    fn call(&self, request: Request) -> Response {
        let checked_out = self.sessions.lock().pop();
        let mut session = checked_out.unwrap_or_else(|| self.app.session());
        let response = handle(&mut session, request);
        self.calls.fetch_add(1, Ordering::Relaxed);
        let mut pool = self.sessions.lock();
        if pool.len() < self.pool {
            pool.push(session);
        }
        response
    }
}

fn handle(session: &mut Session, request: Request) -> Response {
    match request.op {
        Op::Create { model, attrs } => {
            let pairs: Vec<(&str, Datum)> =
                attrs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
            match session.create(&model, &pairs) {
                Ok(r) if r.is_persisted() => Response::Created(r.id().unwrap_or(-1)),
                Ok(r) => Response::Invalid(r.errors.full_messages()),
                Err(e) => Response::Error(e),
            }
        }
        Op::Destroy { model, id } => match session.find(&model, id) {
            Ok(mut rec) => match session.destroy(&mut rec) {
                Ok(()) => Response::Destroyed,
                Err(e) => Response::Error(e),
            },
            Err(OrmError::RecordNotFound(_)) => Response::NotFound,
            Err(e) => Response::Error(e),
        },
        Op::Get { model, id } => match session.find(&model, id) {
            Ok(rec) => Response::Found(rec),
            Err(OrmError::RecordNotFound(_)) => Response::NotFound,
            Err(e) => Response::Error(e),
        },
        Op::Template { name, .. } => Response::Error(OrmError::Config(format!(
            "no template handler for `{name}` (ORM-backed service)"
        ))),
        Op::Custom(f) => f(session),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feral_orm::ModelDef;

    fn app() -> App {
        let app = App::in_memory();
        app.define(
            ModelDef::build("Widget")
                .string("name")
                .validates_presence_of("name")
                .finish(),
        )
        .unwrap();
        app
    }

    fn create_widget(name: &str) -> Request {
        Request::builder("Widget")
            .attr("name", Datum::text(name))
            .create()
    }

    #[test]
    fn create_and_get_roundtrip() {
        let app = app();
        let d = Deployment::start(app, DeploymentConfig::default());
        let r = d.dispatch(create_widget("w"));
        let Response::Created(id) = r else {
            panic!("expected Created, got {r:?}")
        };
        let r = d.dispatch(Request::builder("Widget").get(id));
        assert!(matches!(r, Response::Found(_)));
        d.shutdown();
    }

    #[test]
    fn invalid_create_reports_errors() {
        let app = app();
        let d = Deployment::start(app, DeploymentConfig::default());
        let r = d.dispatch(Request::builder("Widget").create());
        match r {
            Response::Invalid(msgs) => {
                assert!(msgs.iter().any(|m| m.contains("blank")), "{msgs:?}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        d.shutdown();
    }

    #[test]
    fn round_returns_all_responses_in_order() {
        let app = app();
        let d = Deployment::start(
            app,
            DeploymentConfig {
                workers: 8,
                ..Default::default()
            },
        );
        let reqs: Vec<Request> = (0..32).map(|i| create_widget(&format!("w{i}"))).collect();
        let resps = d.round(reqs);
        assert_eq!(resps.len(), 32);
        assert!(resps.iter().all(|r| r.succeeded()));
        d.shutdown();
    }

    #[test]
    fn destroy_and_not_found() {
        let app = app();
        let d = Deployment::start(app, DeploymentConfig::default());
        let Response::Created(id) = d.dispatch(create_widget("w")) else {
            panic!()
        };
        assert!(matches!(
            d.dispatch(Request::builder("Widget").destroy(id)),
            Response::Destroyed
        ));
        assert!(matches!(
            d.dispatch(Request::builder("Widget").get(id)),
            Response::NotFound
        ));
        d.shutdown();
    }

    #[test]
    fn requests_served_accounts_for_all_work() {
        let app = app();
        let d = Deployment::start(
            app,
            DeploymentConfig {
                workers: 4,
                ..Default::default()
            },
        );
        let reqs: Vec<Request> = (0..40).map(|i| create_widget(&format!("w{i}"))).collect();
        let _ = d.round(reqs);
        let served = d.requests_served();
        assert_eq!(served.len(), 4);
        assert_eq!(served.iter().sum::<u64>(), 40);
        // NOTE: how the shared queue splits the 40 requests across the 4
        // workers is up to the OS scheduler — with zero jitter one worker
        // may legally drain the whole queue, so per-worker share is not
        // asserted here (schedule-dependent behaviour belongs to the
        // deterministic feral-sim tests)
        d.shutdown();
    }

    #[test]
    fn metrics_separates_errors_and_invalid_from_successes() {
        let app = app();
        let d = Deployment::start(app, DeploymentConfig::default());
        // 3 successes, 2 validation rejections, 1 hard error.
        for i in 0..3 {
            let r = d.dispatch(create_widget(&format!("w{i}")));
            assert!(r.succeeded());
        }
        for _ in 0..2 {
            assert!(matches!(
                d.dispatch(Request::builder("Widget").create()),
                Response::Invalid(_)
            ));
        }
        assert!(matches!(
            d.dispatch(Request::builder("NoSuchModel").create()),
            Response::Error(_)
        ));
        let m = d.metrics();
        assert_eq!(m.total_served(), 6);
        assert_eq!(m.total_invalid(), 2);
        assert_eq!(m.total_errors(), 1);
        assert_eq!(m.served.len(), d.workers());
        assert_eq!(m.served.iter().sum::<u64>(), 6);
        // requests_served stays consistent with the richer snapshot
        assert_eq!(d.requests_served(), m.served);
        // tracing is off in this test, so no latency was collected —
        // the histogram must stay empty (branch-on-disabled no-op)
        assert!(m.latency.is_empty());
        d.shutdown();
    }

    #[test]
    fn custom_requests_run_controller_logic() {
        let app = app();
        let d = Deployment::start(app.clone(), DeploymentConfig::default());
        let r = d.dispatch(Request::custom(|s| {
            match s.create("Widget", &[("name", Datum::text("custom"))]) {
                Ok(r) if r.is_persisted() => Response::Created(r.id().unwrap()),
                Ok(_) => Response::Invalid(vec![]),
                Err(e) => Response::Error(e),
            }
        }));
        assert!(matches!(r, Response::Created(_)));
        d.shutdown();
    }

    #[test]
    fn builder_carries_session_attrs_and_op() {
        let r = Request::builder("Widget")
            .session(42)
            .attr("name", Datum::text("w"))
            .attrs(&[("extra", Datum::Int(7))])
            .create();
        assert_eq!(r.session, 42);
        let Op::Create { model, attrs } = r.op else {
            panic!("expected Create")
        };
        assert_eq!(model, "Widget");
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs[0].0, "name");
        assert_eq!(attrs[1].1, Datum::Int(7));

        let r = Request::builder("Widget").session(9).get(3);
        assert!(matches!(r.op, Op::Get { id: 3, .. }));
        assert_eq!(r.session, 9);
        let r = Request::builder("Widget").destroy(4).with_session(8);
        assert!(matches!(r.op, Op::Destroy { id: 4, .. }));
        assert_eq!(r.session, 8);
        let r = Request::template("lock-version-rmw:accounts.lock_version", 17);
        assert!(matches!(r.op, Op::Template { key: 17, .. }));
    }

    #[test]
    fn deployment_is_a_service() {
        let app = app();
        let d = Deployment::start(app, DeploymentConfig::default());
        let svc: &dyn Service = &d;
        assert!(matches!(svc.call(create_widget("s")), Response::Created(_)));
        d.shutdown();
    }

    #[test]
    fn pooled_service_reuses_sessions_and_serves() {
        let svc = PooledService::new(app(), 2);
        let svc = std::sync::Arc::new(svc);
        let mut joins = Vec::new();
        for t in 0..4 {
            let svc = svc.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..8 {
                    let r = svc.call(create_widget(&format!("w{t}-{i}")));
                    assert!(r.succeeded(), "{r:?}");
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(svc.calls(), 32);
        // the pool retains at most its bound
        assert!(svc.idle_sessions() <= 2);
        // a template op is a config error on an ORM-backed service
        let r = svc.call(Request::template("nope:t.c", 1));
        assert!(matches!(r, Response::Error(OrmError::Config(_))));
        assert!(!r.retryable());
    }

    #[test]
    fn retryable_classification() {
        assert!(Response::Overloaded.retryable());
        assert!(!Response::Overloaded.succeeded());
        assert!(Response::Error(OrmError::StaleObject("w".into())).retryable());
        assert!(Response::Error(OrmError::Db(feral_db::DbError::WriteConflict)).retryable());
        assert!(!Response::Error(OrmError::Config("x".into())).retryable());
        assert!(!Response::NotFound.retryable());
    }
}
