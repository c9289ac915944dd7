//! The scoring daemon: reactor threads, sharded batchers, admission
//! control, and hot model reload.
//!
//! ```text
//!                 ┌─ reactor 0 (poll) ── conns… ─┐   ┌─ shard 0 ─┐
//!  clients ─────▶ ├─ reactor 1 (poll) ── conns… ─┼──▶├─ shard 1  ├─▶ evaluate_batch
//!                 └─ …                           ┘   └─ …        ┘
//!                        ▲ ordered responses            │ completions
//!                        └──────────────────────────────┘
//! ```
//!
//! A small fixed pool of reactor threads ([`crate::reactor`]) owns every
//! connection: non-blocking sockets driven by `poll(2)`, per-connection
//! state machines ([`crate::conn`]) that decode length-prefixed frames
//! incrementally, answer the cheap endpoints (`health`, `stats`,
//! `reload`, `shutdown`) inline, and pipeline scoring-family requests —
//! many in flight per connection, responses written back in request
//! order from a reused serialization buffer.
//!
//! Scoring work routes to N batcher shards ([`crate::shard`]) by
//! connection id; each shard coalesces jobs into micro-batches of up to
//! [`ServeConfig::batch_max`] apps and scores them with one
//! `evaluate_batch`/`explain_batch` pair on the pipeline pool.
//!
//! Backpressure is tiered instead of a single counter race:
//!
//! 1. **pipeline cap** — a connection with [`ServeConfig::max_pipeline`]
//!    unanswered requests stops being read; TCP pushes back on the
//!    client without a single byte of queued response;
//! 2. **global in-flight cap** — [`reserve_slot`] admits at most
//!    [`ServeConfig::max_inflight`] jobs across all shards; over the cap
//!    the client gets an immediate typed `busy` error;
//! 3. **drain** — after shutdown every scoring request gets a typed
//!    `shutting_down` refusal while admitted work finishes.
//!
//! The model lives behind `Mutex<Arc<ModelState>>`: each shard clones
//! the `Arc` once per batch, `reload` swaps the slot after loading and
//! validating the new file, and in-flight batches finish on whichever
//! model they started with — a reload never stalls or corrupts running
//! requests, and every response reports the fingerprint of the exact
//! model that produced it.
//!
//! Scoring a batch is row-independent (each app's report depends only on
//! its own feature row — `evaluate_batch` is bit-identical to per-app
//! scoring), so responses do not depend on how pipelined requests from
//! many connections interleave into shard batches. The black-box
//! harness (`tests/tests/serve_engine.rs`) pins this down.
//!
//! Shutdown (via [`ServerHandle::shutdown`] or a `shutdown` request) is
//! graceful: the listener closes, scoring requests are refused with
//! typed errors, shards drain every admitted job, reactors flush every
//! owed response and linger one `poll_tick` before closing, and all
//! threads are joined.

use crate::protocol::{error_response, ok_response, Request};
use crate::reactor::{reactor_loop, ReactorShared};
use crate::shard::{shard_loop, ShardQueue};
use crate::stats::ServiceStats;
use clairvoyant::report::Json;
use clairvoyant::CompiledModel;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub addr: String,
    /// Admission-control cap: score requests admitted (queued or being
    /// scored) at once, across all shards. Beyond it, clients get a
    /// typed `busy` error.
    pub max_inflight: usize,
    /// Most apps scored in one `evaluate_batch` call.
    pub batch_max: usize,
    /// Pipeline-pool workers per batch (0 = all cores).
    pub jobs: usize,
    /// Reactor event-loop threads. Connections are pinned to a reactor
    /// for their whole life by `conn_id % reactor_threads`.
    pub reactor_threads: usize,
    /// Batcher shard threads. Connections are pinned to a shard by
    /// `conn_id % batch_shards`.
    pub batch_shards: usize,
    /// Most unanswered requests one connection may pipeline before the
    /// reactor stops reading it (tier-1 backpressure).
    pub max_pipeline: usize,
    /// Drain/shutdown tick: shard condvar re-check interval and the
    /// post-quiescence linger before reactors close connections.
    pub poll_tick: Duration,
    /// Artificial delay per scored batch. Zero in production; tests and
    /// the bench overload path use it to hold requests in flight
    /// deterministically.
    pub debug_batch_delay: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_inflight: 256,
            batch_max: 64,
            jobs: 1,
            reactor_threads: 2,
            batch_shards: 2,
            max_pipeline: 64,
            poll_tick: Duration::from_millis(50),
            debug_batch_delay: Duration::ZERO,
        }
    }
}

/// A loaded model plus its identity.
pub struct ModelState {
    pub compiled: CompiledModel,
    /// FNV-1a of the serialized model — the `model` field of every score
    /// response, so clients can pin responses to a model version.
    pub fingerprint: u64,
    /// Where the model was loaded from; `reload` without a path re-reads
    /// this file.
    pub path: Option<PathBuf>,
}

impl ModelState {
    /// Wrap an in-memory model (fingerprints its serialized form) with
    /// its optimized kernels compiled up front, so the first request
    /// never pays the codegen step.
    pub fn from_model(compiled: CompiledModel) -> ModelState {
        let fingerprint = fingerprint_bytes(&compiled.to_bytes());
        compiled.optimize();
        ModelState {
            compiled,
            fingerprint,
            path: None,
        }
    }

    /// Load and fingerprint a CLVY file, compiling the optimized kernels
    /// before the state is published. On the hot-reload path this runs
    /// *before* the `Arc<ModelState>` swap, so in-flight and subsequent
    /// batches always see a fully compiled battery — the swap never
    /// races codegen.
    pub fn load(path: &Path) -> Result<ModelState, String> {
        let bytes = std::fs::read(path)
            .map_err(|e| format!("cannot read model from `{}`: {e}", path.display()))?;
        let compiled = CompiledModel::from_bytes(&bytes)?;
        compiled.optimize();
        Ok(ModelState {
            compiled,
            fingerprint: fingerprint_bytes(&bytes),
            path: Some(path.to_path_buf()),
        })
    }

    /// The fingerprint as the wire-format hex string.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }
}

fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    pipeline::fnv::hash_bytes(bytes)
}

/// State shared by every thread of one server.
pub(crate) struct Shared {
    pub config: ServeConfig,
    pub model: Mutex<Arc<ModelState>>,
    pub shards: Vec<ShardQueue>,
    pub reactors: Vec<ReactorShared>,
    pub next_conn_id: AtomicU64,
    pub inflight: AtomicUsize,
    pub shutting_down: AtomicBool,
    pub stats: ServiceStats,
    pub started: Instant,
}

impl Shared {
    pub fn current_model(&self) -> Arc<ModelState> {
        self.model.lock().unwrap().clone()
    }

    /// Flip the drain flag and wake every parked thread so it observes
    /// the flag now rather than at its next natural wakeup.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        for reactor in &self.reactors {
            reactor.waker.wake();
        }
        for shard in &self.shards {
            shard.kick();
        }
    }

    fn shard_depths(&self) -> Vec<usize> {
        self.shards.iter().map(ShardQueue::depth).collect()
    }

    fn incr_resident_fns(&self) -> usize {
        self.shards.iter().map(ShardQueue::resident_fns).sum()
    }
}

/// A running daemon. Dropping the handle shuts the server down
/// gracefully (drain, then join every thread).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

/// Start the daemon: bind, spawn the reactor and shard threads, and
/// return immediately.
pub fn start(config: ServeConfig, model: ModelState) -> Result<ServerHandle, String> {
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| format!("cannot bind `{}`: {e}", config.addr))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot make the listener non-blocking: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;

    let reactor_count = config.reactor_threads.clamp(1, 256);
    let shard_count = config.batch_shards.max(1);
    let mut reactors = Vec::with_capacity(reactor_count);
    for _ in 0..reactor_count {
        reactors
            .push(ReactorShared::new().map_err(|e| format!("cannot create a reactor waker: {e}"))?);
    }
    let shared = Arc::new(Shared {
        config,
        model: Mutex::new(Arc::new(model)),
        shards: (0..shard_count).map(|_| ShardQueue::new()).collect(),
        reactors,
        next_conn_id: AtomicU64::new(0),
        inflight: AtomicUsize::new(0),
        shutting_down: AtomicBool::new(false),
        stats: ServiceStats::default(),
        started: Instant::now(),
    });

    let mut threads = Vec::with_capacity(shard_count + reactor_count);
    for shard_id in 0..shard_count {
        let shared = shared.clone();
        threads.push(std::thread::spawn(move || shard_loop(&shared, shard_id)));
    }
    let mut listener = Some(listener);
    for reactor_id in 0..reactor_count {
        let shared = shared.clone();
        // Reactor 0 owns the listener; the others only poll their conns.
        let listener = (reactor_id == 0).then(|| listener.take()).flatten();
        threads.push(std::thread::spawn(move || {
            reactor_loop(&shared, reactor_id, listener)
        }));
    }

    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once shutdown has been requested (locally or over the wire).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// Block until a `shutdown` request arrives over the wire, then
    /// finish the drain and join every thread.
    pub fn wait(mut self) {
        while !self.is_shutting_down() {
            std::thread::sleep(self.shared.config.poll_tick);
        }
        self.join_all();
    }

    /// Graceful shutdown: refuse new connections and requests, drain
    /// every admitted job, flush every owed response, join every thread.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.join_all();
    }

    fn join_all(&mut self) {
        // A wire-triggered shutdown already woke everything; waking
        // again is a cheap no-op and covers the local path.
        self.shared.begin_shutdown();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shared.begin_shutdown();
            self.join_all();
        }
    }
}

/// Answer a cheap endpoint inline on the reactor thread. Scoring-family
/// requests never reach here — they route through `Conn::submit`.
pub(crate) fn admin_response(request: Request, shared: &Arc<Shared>, t0: Instant) -> Json {
    match request {
        Request::Health => {
            let stats = &shared.stats.health;
            stats.requests.fetch_add(1, Ordering::Relaxed);
            let model = shared.current_model();
            let status = if shared.shutting_down.load(Ordering::SeqCst) {
                "draining"
            } else {
                "serving"
            };
            let response = ok_response(
                "health",
                vec![
                    ("status", Json::String(status.into())),
                    ("model", Json::String(model.fingerprint_hex())),
                    (
                        "uptime_ms",
                        Json::Number(shared.started.elapsed().as_millis() as f64),
                    ),
                ],
            );
            stats.latency.record(t0.elapsed());
            response
        }
        Request::Stats => {
            let stats = &shared.stats.stats;
            stats.requests.fetch_add(1, Ordering::Relaxed);
            let inflight = shared.inflight.load(Ordering::SeqCst);
            let depths = shared.shard_depths();
            let response = ok_response(
                "stats",
                vec![(
                    "stats",
                    shared
                        .stats
                        .to_json(inflight, &depths, shared.incr_resident_fns()),
                )],
            );
            stats.latency.record(t0.elapsed());
            response
        }
        Request::Shutdown => {
            let stats = &shared.stats.shutdown;
            stats.requests.fetch_add(1, Ordering::Relaxed);
            shared.begin_shutdown();
            ok_response("shutdown", vec![("draining", Json::Bool(true))])
        }
        Request::Reload { path } => {
            let stats = &shared.stats.reload;
            stats.requests.fetch_add(1, Ordering::Relaxed);
            let response = reload(shared, path.as_deref());
            if !matches!(&response, Json::Object(o) if o.get("ok") == Some(&Json::Bool(true))) {
                stats.errors.fetch_add(1, Ordering::Relaxed);
            }
            stats.latency.record(t0.elapsed());
            response
        }
        Request::Score { .. } | Request::Explain { .. } | Request::Compare { .. } => {
            unreachable!("scoring-family requests go through Conn::submit")
        }
    }
}

fn reload(shared: &Arc<Shared>, path: Option<&str>) -> Json {
    let path: PathBuf = match path {
        Some(p) => PathBuf::from(p),
        None => match &shared.current_model().path {
            Some(p) => p.clone(),
            None => {
                return error_response(
                    "bad_request",
                    "reload needs a path: the current model was not loaded from a file",
                );
            }
        },
    };
    // Load and validate *before* touching the served slot: a bad file
    // leaves the old model serving.
    match ModelState::load(&path) {
        Ok(next) => {
            let next = Arc::new(next);
            let previous = {
                let mut slot = shared.model.lock().unwrap();
                std::mem::replace(&mut *slot, next.clone())
            };
            ok_response(
                "reload",
                vec![
                    ("model", Json::String(next.fingerprint_hex())),
                    ("previous", Json::String(previous.fingerprint_hex())),
                    ("path", Json::String(path.display().to_string())),
                ],
            )
        }
        Err(message) => error_response("bad_request", &message),
    }
}

/// Admission control (backpressure tier 2): reserve an in-flight slot or
/// produce the typed refusal. The counter covers queued *and*
/// being-scored requests across every shard, so the bound also caps the
/// total batcher backlog. On success the caller (or the shard it hands
/// the job to) owns the slot.
pub(crate) fn reserve_slot(shared: &Arc<Shared>) -> Result<(), Json> {
    let max = shared.config.max_inflight;
    if shared
        .inflight
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < max).then_some(n + 1)
        })
        .is_err()
    {
        shared.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
        return Err(error_response(
            "busy",
            &format!("admission queue is full ({max} requests in flight); retry later"),
        ));
    }

    // Re-check the flag now that the slot is held: shutdown may have
    // started between the first check and the increment, and a shard
    // may already have observed `shutting_down && inflight == 0` and
    // exited — queueing here would leave this request waiting forever.
    // With SeqCst on both the increment and the flag, reading `false`
    // here guarantees every shard's exit check sees `inflight >= 1` and
    // stays alive to drain the job.
    if shared.shutting_down.load(Ordering::SeqCst) {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        return Err(draining_response());
    }
    Ok(())
}

pub(crate) fn draining_response() -> Json {
    error_response(
        "shutting_down",
        "server is draining; not accepting new work",
    )
}
