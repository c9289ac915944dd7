//! The serve workloads and everything they share with set-up's readiness
//! probe: traffic generation, open-loop phases, `stats` deltas, the
//! scratch output gate, and the traced offline replay.
//!
//! - `serve_vectors` sends pre-extracted feature vectors in a fixed
//!   score/explain/compare mix: framing, JSON, admission, batching,
//!   kernels and attribution do the work; extraction does none.
//! - `serve_sources` sends inline generated source, drawn from the same
//!   population `retrain` trains on (every dialect, 0.2–1.6 kloc). Most
//!   requests belong to edit sessions: each re-submits its session's app
//!   with one function changed, pinned to one connection (so one shard's
//!   warm store). The rest are first-seen programs. Score and explain, so
//!   hotspot ranking runs too.
//!
//! No measured request mix exists for this system, so the shares below
//! are assumed traffic, named as such in `BENCHMARK.json`; only the
//! hotspot count has a basis (the CLI's and the protocol's default).

use crate::layers::{Layers, Source};
use crate::loadgen::{self, Capacity, LoadGen, Outcome, PhaseStats, Slot, Status};
use crate::stats::Ratio;
use crate::trace::{self, Tracer};
use clairvoyant::report::{comparison_value, explanation_value, write_security_report, Json};
use clairvoyant::{rank_hotspots, Comparison, CompiledModel, IncrementalTestbed, Testbed};
use corpus::LongitudinalStream;
use minilang::ast::Program;
use minilang::Dialect;
use rand::rngs::StdRng;
use rand::{derive_seed, Rng, RngCore, SeedableRng};
use serve::client::Client;
use serve::protocol::{frame_into, ok_response, Request, ScoreInput};
use static_analysis::FeatureVector;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Frozen traffic, rates and latency limit of one serve workload.
pub struct ServeSpec {
    /// Vector pool size or edit-session count (see [`Traffic::new`]).
    pub size: usize,
    /// About 30% and 70% of the default seed's measured capacity.
    pub low_rps: f64,
    pub high_rps: f64,
    /// Offered rates tried above `high_rps` while searching capacity.
    pub ladder: &'static [f64],
    /// The p99 latency limit capacity is judged against.
    pub p99_limit_ms: f64,
}

/// Share of the run spent at each fixed rate, and per capacity step.
const FIXED_SHARE: f64 = 0.3;
const STEP_SHARE: f64 = 0.075;
/// Consecutive missed steps that end the capacity search: a stall can
/// cost a step or two, saturation keeps missing.
const MISSES_TO_STOP: usize = 3;
/// Each phase starts with a warm-up at its rate — sent and checked, not
/// timed — so a transient at the rate change does not count.
const WARMUP_SHARE: f64 = 0.2;
const MAX_WARMUP_S: f64 = 1.0;
/// How long a phase waits past its last due time for responses.
const DRAIN: Duration = Duration::from_secs(3);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Vectors,
    Sources,
}

// ---------------------------------------------------------------- traffic

/// Serialize one request as a wire frame.
fn frame(pairs: Vec<(&str, Json)>) -> Vec<u8> {
    let mut out = Vec::new();
    frame_into(&mut out, &Json::object(pairs));
    out
}

fn features_json(fv: &FeatureVector) -> Json {
    Json::Object(
        fv.iter()
            .map(|(k, v)| (k.to_string(), Json::Number(v)))
            .collect(),
    )
}

fn dialect_name(d: Dialect) -> &'static str {
    match d {
        Dialect::C => "c",
        Dialect::Cpp => "cpp",
        Dialect::Python => "python",
        Dialect::Java => "java",
    }
}

/// An edit session: one app's current text and, per function, the byte
/// offsets of integer-literal digits an edit may change.
struct Session {
    name: String,
    dialect: Dialect,
    text: String,
    digits: Vec<Vec<usize>>,
}

/// Offsets of the last digit of every standalone integer literal in
/// `text[from..to]`. Changing one to another digit keeps every offset
/// (and so every other function's span) where it was.
fn literal_digits(text: &str, from: usize, to: usize) -> Vec<usize> {
    let b = text.as_bytes();
    let word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut out = Vec::new();
    let mut i = from;
    while i < to.min(b.len()) {
        if b[i].is_ascii_digit() && (i == 0 || !word(b[i - 1])) {
            let mut j = i;
            while j + 1 < to && b[j + 1].is_ascii_digit() {
                j += 1;
            }
            if j + 1 >= b.len() || !word(b[j + 1]) {
                out.push(j);
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// A generated app as one inline source, if it parses as one file.
fn inline_source(
    stream: &LongitudinalStream,
    index: usize,
    name: &str,
) -> Option<(String, Dialect, Program)> {
    let (app, _) = stream.materialize(index, 0);
    let text: String = app
        .files
        .iter()
        .map(|(_, src)| src.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    let dialect = app.spec.dialect;
    let program =
        minilang::parse_program(name, dialect, &[(format!("{name}.src"), text.clone())]).ok()?;
    Some((text, dialect, program))
}

/// The request table of one run, grown phase by phase.
pub struct Traffic {
    kind: Kind,
    rng: StdRng,
    pub frames: Vec<Vec<u8>>,
    /// Vectors: the pool; one score, explain and compare frame per entry.
    pool: usize,
    /// Sources: edit sessions and the first-seen app stream.
    sessions: Vec<Session>,
    fresh: LongitudinalStream,
    next_fresh: usize,
    next_conn: usize,
    /// Sources: apps taken per dialect (in [`DIALECTS`] order), and apps
    /// skipped.
    taken: [usize; 4],
    skipped: usize,
}

const DIALECTS: [Dialect; 4] = [Dialect::C, Dialect::Cpp, Dialect::Python, Dialect::Java];

/// Assumed vector mix: score share, then score + explain share; the rest
/// are compares.
const VECTOR_SCORE: f64 = 0.6;
const VECTOR_SCORE_OR_EXPLAIN: f64 = 0.85;
/// Assumed source mix: share of requests that belong to edit sessions,
/// and share of source requests that score (the rest explain).
const SESSION_SHARE: f64 = 0.8;
const SOURCE_SCORE: f64 = 0.6;
/// Hotspots per `explain` of a source: the CLI's `--top-k` default.
const TOP_K: usize = serve::protocol::DEFAULT_TOP_K;

impl Traffic {
    /// `size` is the vector pool (vectors) or the number of edit
    /// sessions (sources).
    pub fn new(kind: Kind, seed: u64, size: usize) -> Traffic {
        let rng = StdRng::seed_from_u64(derive_seed(seed, 0x7a_ff1c));
        let fresh = crate::retrain::population(derive_seed(seed, 0xf2e5), 1 << 20);
        let mut traffic = Traffic {
            kind,
            rng,
            frames: Vec::new(),
            pool: 0,
            sessions: Vec::new(),
            fresh,
            next_fresh: 0,
            next_conn: 0,
            taken: [0; 4],
            skipped: 0,
        };
        match kind {
            Kind::Vectors => traffic.build_pool(seed, size),
            Kind::Sources => traffic.build_sessions(seed, size),
        }
        traffic
    }

    /// Scratch-extract a seeded population into score/explain/compare
    /// frames.
    fn build_pool(&mut self, seed: u64, size: usize) {
        let stream = crate::retrain::population(derive_seed(seed, 0x9001), size);
        let indices: Vec<usize> = (0..size).collect();
        let testbed = Testbed::new();
        let pool: Vec<(String, FeatureVector)> = pipeline::parallel_map(2, &indices, |_, &i| {
            let (app, _) = stream.materialize(i, 0);
            (app.spec.name, testbed.extract(&app.program))
        });
        let op = |op: &str, name: &str, fv: &FeatureVector| {
            frame(vec![
                ("op", Json::String(op.into())),
                ("name", Json::String(name.into())),
                ("features", features_json(fv)),
            ])
        };
        for (name, fv) in &pool {
            self.frames.push(op("score", name, fv));
        }
        for (name, fv) in &pool {
            self.frames.push(op("explain", name, fv));
        }
        let n = pool.len();
        for i in 0..n {
            let side = |(name, fv): &(String, FeatureVector)| {
                Json::object(vec![
                    ("name", Json::String(name.clone())),
                    ("features", features_json(fv)),
                ])
            };
            self.frames.push(frame(vec![
                ("op", Json::String("compare".into())),
                ("a", side(&pool[i])),
                ("b", side(&pool[(i * 7 + 3) % n])),
            ]));
        }
        self.pool = n;
    }

    fn build_sessions(&mut self, seed: u64, size: usize) {
        let stream = crate::retrain::population(derive_seed(seed, 0x5e55), 1 << 20);
        let mut index = 0;
        while self.sessions.len() < size {
            let name = format!("session-{}", self.sessions.len());
            let mut taken = None;
            if let Some((text, dialect, program)) = inline_source(&stream, index, &name) {
                let digits: Vec<Vec<usize>> = program
                    .modules
                    .iter()
                    .flat_map(|m| m.functions.iter())
                    .map(|f| literal_digits(&text, f.span.start, f.span.end))
                    .filter(|d| !d.is_empty())
                    .collect();
                if !digits.is_empty() {
                    taken = Some(dialect);
                    self.sessions.push(Session {
                        name,
                        dialect,
                        text,
                        digits,
                    });
                }
            }
            self.tally(taken);
            index += 1;
        }
    }

    fn tally(&mut self, taken: Option<Dialect>) {
        match taken {
            Some(d) => {
                self.taken[DIALECTS
                    .iter()
                    .position(|&x| x == d)
                    .expect("known dialect")] += 1
            }
            None => self.skipped += 1,
        }
    }

    /// The dialect mix of the source apps drawn so far, for the report.
    pub fn source_mix(&self) -> String {
        let per: Vec<String> = DIALECTS
            .iter()
            .zip(self.taken)
            .map(|(&d, n)| format!("{} {n}", dialect_name(d)))
            .collect();
        format!(
            "source apps taken {} ({}); skipped {} (not one parseable inline source, or no \
             integer literal to edit)",
            self.taken.iter().sum::<usize>(),
            per.join(", "),
            self.skipped
        )
    }

    fn source_frame(&mut self, name: &str, text: &str, dialect: Dialect) -> usize {
        let mut pairs = vec![
            ("name", Json::String(name.into())),
            ("source", Json::String(text.into())),
            ("dialect", Json::String(dialect_name(dialect).into())),
        ];
        if self.rng.gen_bool(SOURCE_SCORE) {
            pairs.push(("op", Json::String("score".into())));
        } else {
            pairs.push(("op", Json::String("explain".into())));
            pairs.push(("top_k", Json::Number(TOP_K as f64)));
        }
        self.frames.push(frame(pairs));
        self.frames.len() - 1
    }

    /// One request for the next due slot: `(connection, request index)`.
    fn next(&mut self, conns: usize) -> (usize, usize) {
        match self.kind {
            Kind::Vectors => {
                let conn = self.next_conn % conns;
                self.next_conn += 1;
                let app = self.rng.gen_range(0..self.pool);
                let roll = self.rng.next_f64();
                let op = if roll < VECTOR_SCORE {
                    0
                } else if roll < VECTOR_SCORE_OR_EXPLAIN {
                    1
                } else {
                    2
                };
                (conn, op * self.pool + app)
            }
            Kind::Sources if self.rng.gen_bool(SESSION_SHARE) => {
                let s = self.rng.gen_range(0..self.sessions.len());
                let f = self.rng.gen_range(0..self.sessions[s].digits.len());
                let d = self.rng.gen_range(0..self.sessions[s].digits[f].len());
                let session = &mut self.sessions[s];
                let at = session.digits[f][d];
                let old = session.text.as_bytes()[at] - b'0';
                let new = (old + 1 + self.rng.gen_range(0..8u8)) % 10;
                let new = if new == 0 { 1 + old % 9 } else { new };
                session
                    .text
                    .replace_range(at..at + 1, &char::from(b'0' + new).to_string());
                let (name, text, dialect) =
                    (session.name.clone(), session.text.clone(), session.dialect);
                (s % conns, self.source_frame(&name, &text, dialect))
            }
            Kind::Sources => loop {
                let index = self.next_fresh;
                self.next_fresh += 1;
                let name = format!("fresh-{index}");
                let source = inline_source(&self.fresh, index, &name);
                self.tally(source.as_ref().map(|s| s.1));
                if let Some((text, dialect, _)) = source {
                    break (index % conns, self.source_frame(&name, &text, dialect));
                }
            },
        }
    }

    /// Slots for one phase at `rate` over `seconds`.
    pub fn plan(&mut self, rate: f64, seconds: f64, conns: usize) -> Vec<Slot> {
        let offset = self.rng.next_f64();
        loadgen::due_times(rate, seconds, offset)
            .into_iter()
            .map(|due_ns| {
                let (conn, req) = self.next(conns);
                Slot { due_ns, conn, req }
            })
            .collect()
    }
}

// ------------------------------------------------------ offline rendering

/// The model the daemon serves, loaded offline, and its fingerprint.
pub struct Offline {
    pub model: CompiledModel,
    pub fingerprint: String,
}

/// How offline rendering extracts source: from scratch (the output
/// gate), or through a warm incremental engine (the traced replay).
pub enum Engine {
    Scratch(Testbed),
    Warm(IncrementalTestbed),
}

/// Warm-engine function counters accumulated over a replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct Incr {
    pub hits: u64,
    pub misses: u64,
    pub rebuilt: u64,
    pub sources: u64,
}

fn resolve(
    engine: &mut Engine,
    incr: &mut Incr,
    tracer: &Tracer,
    name: &str,
    input: ScoreInput,
) -> (FeatureVector, Option<Program>) {
    match input {
        ScoreInput::Features(fv) => (fv, None),
        ScoreInput::Source { text, dialect } => {
            let files = vec![(format!("{name}.src"), text)];
            let program = {
                let _s = tracer.span("minilang.parse", 0);
                minilang::parse_program(name, dialect, &files).expect("generated source parses")
            };
            incr.sources += 1;
            let fv = match engine {
                Engine::Scratch(testbed) => {
                    let _s = tracer.span("testbed.extract", 0);
                    testbed.extract(&program)
                }
                Engine::Warm(warm) => {
                    let _s = tracer.span("incremental.extract", 0);
                    let (fv, report) = warm.extract_stats(&program);
                    incr.hits += report.hits;
                    incr.misses += report.misses;
                    incr.rebuilt += report.rebuilt;
                    fv
                }
            };
            (fv, Some(program))
        }
    }
}

enum Item {
    Score(usize),
    Explain(usize, Vec<clairvoyant::Hotspot>),
    Compare(usize, usize),
}

/// Render one micro-batch of request payloads exactly as a shard does:
/// resolve every input, score the score rows in one `evaluate_batch`,
/// explain the rest in one `explain_batch`, serialize each response.
pub fn render_batch(
    offline: &Offline,
    engine: &mut Engine,
    incr: &mut Incr,
    tracer: &Tracer,
    payloads: &[&[u8]],
) -> Vec<String> {
    let mut score_apps: Vec<(String, FeatureVector)> = Vec::new();
    let mut explain_apps: Vec<(String, FeatureVector)> = Vec::new();
    let mut items = Vec::with_capacity(payloads.len());
    for payload in payloads {
        let request = {
            let _s = tracer.span("serve.request_parse", 0);
            Request::parse(payload).expect("generated request parses")
        };
        let item = match request {
            Request::Score { name, input } => {
                let (fv, _) = resolve(engine, incr, tracer, &name, input);
                score_apps.push((name, fv));
                Item::Score(score_apps.len() - 1)
            }
            Request::Explain { name, input, top_k } => {
                let (fv, program) = resolve(engine, incr, tracer, &name, input);
                let hotspots = program
                    .map(|p| {
                        let _s = tracer.span("explain.hotspots", 0);
                        rank_hotspots(&p, top_k)
                    })
                    .unwrap_or_default();
                explain_apps.push((name, fv));
                Item::Explain(explain_apps.len() - 1, hotspots)
            }
            Request::Compare { a, b } => {
                let (fa, _) = resolve(engine, incr, tracer, &a.0, a.1);
                let (fb, _) = resolve(engine, incr, tracer, &b.0, b.1);
                explain_apps.push((a.0, fa));
                explain_apps.push((b.0, fb));
                Item::Compare(explain_apps.len() - 2, explain_apps.len() - 1)
            }
            _ => panic!("benchmark traffic is scoring requests only"),
        };
        items.push(item);
    }

    let model = &offline.model;
    let reports = if score_apps.is_empty() {
        Vec::new()
    } else {
        if tracer.is_on() {
            // The stage split of the same batch, for the per-layer report.
            let batch = {
                let _s = tracer.span("score.prepare", score_apps.len() as u64);
                model.prepare_batch(&score_apps, 0)
            };
            let _s = tracer.span("score.battery", score_apps.len() as u64);
            std::hint::black_box(model.score_battery(&batch, 0));
        }
        let _s = tracer.span("score.evaluate_batch", score_apps.len() as u64);
        model.evaluate_batch(&score_apps, 0)
    };
    let mut explanations: Vec<Option<clairvoyant::Explanation>> = if explain_apps.is_empty() {
        Vec::new()
    } else {
        let _s = tracer.span("explain.batch", explain_apps.len() as u64);
        model
            .explain_batch(&explain_apps, 0)
            .into_iter()
            .map(Some)
            .collect()
    };

    let fp = &offline.fingerprint;
    let model_field = || ("model", Json::String(fp.clone()));
    items
        .into_iter()
        .map(|item| {
            let _s = tracer.span("serve.render", 0);
            match item {
                Item::Score(row) => {
                    let mut text =
                        format!("{{\"model\":\"{fp}\",\"ok\":true,\"op\":\"score\",\"report\":");
                    write_security_report(&reports[row], &mut text).expect("writing to a String");
                    text.push('}');
                    text
                }
                Item::Explain(row, hotspots) => {
                    let mut e = explanations[row].take().expect("row used once");
                    e.hotspots = hotspots;
                    ok_response(
                        "explain",
                        vec![model_field(), ("explanation", explanation_value(&e))],
                    )
                    .to_string()
                }
                Item::Compare(a, b) => {
                    let ea = explanations[a].take().expect("row used once");
                    let eb = explanations[b].take().expect("row used once");
                    ok_response(
                        "compare",
                        vec![
                            model_field(),
                            (
                                "comparison",
                                comparison_value(&Comparison::from_explanations(&ea, &eb)),
                            ),
                        ],
                    )
                    .to_string()
                }
            }
        })
        .collect()
}

fn payload(frame: &[u8]) -> &[u8] {
    &frame[4..]
}

/// The output gate: render every request that was sent from a scratch
/// `Testbed::extract`, one request per batch, on two threads, and count
/// the wire responses that are not byte-equal (FNV-1a and length).
pub fn scratch_gate(offline: &Offline, frames: &[Vec<u8>], sent: &[(Slot, Outcome)]) -> usize {
    let mut reqs: Vec<usize> = sent.iter().map(|(s, _)| s.req).collect();
    reqs.sort_unstable();
    reqs.dedup();
    let chunk = reqs.len().div_ceil(2).max(1);
    let chunks: Vec<&[usize]> = reqs.chunks(chunk).collect();
    let expected: Vec<(usize, (u64, usize))> = pipeline::parallel_map(2, &chunks, |_, chunk| {
        let mut engine = Engine::Scratch(Testbed::new());
        let tracer = Tracer::new(false);
        let mut incr = Incr::default();
        chunk
            .iter()
            .map(|&r| {
                let text = render_batch(
                    offline,
                    &mut engine,
                    &mut incr,
                    &tracer,
                    &[payload(&frames[r])],
                )
                .pop()
                .expect("one response per request");
                (r, (pipeline::fnv::hash_bytes(text.as_bytes()), text.len()))
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let lookup: std::collections::HashMap<usize, (u64, usize)> = expected.into_iter().collect();
    sent.iter()
        .filter(|(s, o)| o.status == Status::Ok && lookup[&s.req] != (o.hash, o.len))
        .count()
}

/// Replay the identical request sequence through the layers' public
/// functions in shard order: one warm engine per connection (each
/// connection is pinned to one shard), requests in send order, grouped
/// into micro-batches of `batch` rows. Returns mismatches against the
/// wire responses, the warm-engine counters, and the replay wall time.
pub fn replay(
    offline: &Offline,
    frames: &[Vec<u8>],
    phases: &[Vec<(Slot, Outcome)>],
    conns: usize,
    batch: usize,
    tracer: &Tracer,
) -> (usize, Incr, f64) {
    let t0 = Instant::now();
    let mut mismatches = 0;
    let mut incr = Incr::default();
    for conn in 0..conns {
        let mut engine = Engine::Warm(IncrementalTestbed::new());
        for phase in phases {
            let mut mine: Vec<&(Slot, Outcome)> =
                phase.iter().filter(|(s, _)| s.conn == conn).collect();
            mine.sort_by_key(|(s, _)| s.due_ns);
            for group in mine.chunks(batch.max(1)) {
                let payloads: Vec<&[u8]> =
                    group.iter().map(|(s, _)| payload(&frames[s.req])).collect();
                let texts = render_batch(offline, &mut engine, &mut incr, tracer, &payloads);
                for ((_, o), text) in group.iter().zip(texts) {
                    let want = (pipeline::fnv::hash_bytes(text.as_bytes()), text.len());
                    if o.status == Status::Ok && want != (o.hash, o.len) {
                        mismatches += 1;
                    }
                }
            }
        }
    }
    (mismatches, incr, t0.elapsed().as_secs_f64())
}

// --------------------------------------------------------- stats deltas

/// The `stats` counters the benchmark reads, at one instant.
#[derive(Debug, Clone, Default)]
pub struct Snap {
    scored_apps: f64,
    batches: f64,
    reactor_wakeups: f64,
    rejected_busy: f64,
    incr_hits: f64,
    incr_misses: f64,
    incr_rebuilt: f64,
    /// Scoring-family latency histogram (power-of-two µs buckets).
    buckets: [f64; 32],
}

fn field<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Object(map) => map.get(key),
        _ => None,
    }
}

fn number(value: &Json, key: &str) -> f64 {
    match field(value, key) {
        Some(Json::Number(n)) => *n,
        _ => 0.0,
    }
}

pub fn snap(admin: &mut Client) -> Result<Snap, String> {
    let response = admin.stats()?;
    let stats = field(&response, "stats").ok_or("stats response has no `stats` object")?;
    let mut s = Snap {
        scored_apps: number(stats, "scored_apps"),
        batches: number(stats, "batches"),
        reactor_wakeups: number(stats, "reactor_wakeups"),
        rejected_busy: number(stats, "rejected_busy"),
        incr_hits: number(stats, "incr_hits"),
        incr_misses: number(stats, "incr_misses"),
        incr_rebuilt: number(stats, "incr_rebuilt_fns"),
        buckets: [0.0; 32],
    };
    for op in ["score", "explain", "compare"] {
        let buckets = field(stats, "endpoints")
            .and_then(|e| field(e, op))
            .and_then(|e| field(e, "latency_buckets"));
        if let Some(Json::Array(items)) = buckets {
            for item in items {
                let bound = number(item, "us_lt").max(1.0);
                let i = (bound.log2().round() as usize).min(31);
                s.buckets[i] += number(item, "count");
            }
        }
    }
    Ok(s)
}

/// Counter movement between two snapshots.
#[derive(Debug, Clone)]
pub struct Delta(Snap);

impl Delta {
    pub fn between(a: &Snap, b: &Snap) -> Delta {
        let mut buckets = [0.0; 32];
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = b.buckets[i] - a.buckets[i];
        }
        Delta(Snap {
            scored_apps: b.scored_apps - a.scored_apps,
            batches: b.batches - a.batches,
            reactor_wakeups: b.reactor_wakeups - a.reactor_wakeups,
            rejected_busy: b.rejected_busy - a.rejected_busy,
            incr_hits: b.incr_hits - a.incr_hits,
            incr_misses: b.incr_misses - a.incr_misses,
            incr_rebuilt: b.incr_rebuilt - a.incr_rebuilt,
            buckets,
        })
    }

    /// Upper bound (µs) of the histogram bucket holding quantile `q`;
    /// power-of-two buckets, so within 2× of the true value.
    pub fn server_quantile_us(&self, q: f64) -> f64 {
        let total: f64 = self.0.buckets.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        let rank = (total * q).ceil().max(1.0);
        let mut seen = 0.0;
        for (i, &c) in self.0.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << i) as f64;
            }
        }
        (1u64 << 31) as f64
    }
}

// ----------------------------------------------------------------- phases

/// One finished phase.
pub struct Phase {
    pub label: String,
    pub stats: PhaseStats,
    pub delta: Delta,
    pub sent: Vec<(Slot, Outcome)>,
}

impl Phase {
    /// One of the two fixed-rate phases, as opposed to a capacity step:
    /// how many steps run differs from run to run.
    pub fn is_fixed(&self) -> bool {
        self.label == "low" || self.label == "high"
    }
}

/// Run one open-loop phase with a `stats` snapshot on either side.
pub fn run_phase(
    label: &str,
    rate: f64,
    seconds: f64,
    traffic: &mut Traffic,
    lg: &mut LoadGen,
    admin: &mut Client,
    tracer: &Tracer,
) -> Result<Phase, String> {
    let warmup = (seconds * WARMUP_SHARE).min(MAX_WARMUP_S);
    let slots = traffic.plan(rate, warmup + seconds, lg.conns());
    let before = snap(admin)?;
    let _phase = tracer.span("loadgen.phase", slots.len() as u64);
    let start_ns = tracer.now_ns();
    let outcomes = lg.run(&slots, &traffic.frames, DRAIN);
    // Client-side request spans: due time to response, on the tracer's
    // clock (the phase started within the 5 ms lead after `start_ns`).
    let lead = start_ns + 5_000_000;
    for (i, (s, o)) in slots.iter().zip(&outcomes).enumerate() {
        tracer.record(
            "loadgen.request",
            i as u64,
            lead + s.due_ns,
            lead + o.done_ns,
        );
    }
    drop(_phase);
    let after = snap(admin)?;
    Ok(Phase {
        label: label.to_string(),
        stats: PhaseStats::of(rate, warmup, seconds, &slots, &outcomes),
        delta: Delta::between(&before, &after),
        sent: slots.into_iter().zip(outcomes).collect(),
    })
}

/// Phases that ended with requests unanswered leave responses in flight
/// on the connections: nothing may run on them afterwards.
fn poisoned(phase: &Phase) -> bool {
    phase
        .sent
        .iter()
        .any(|(_, o)| matches!(o.status, Status::Timeout | Status::Closed))
}

/// What a serve workload measured.
pub struct ServeRun {
    pub kind: Kind,
    pub phases: Vec<Phase>,
    /// Peak RSS (MB) when the fixed-rate phases ended: the capacity steps
    /// send a seed-dependent amount of traffic, so they are left out.
    pub peak_rss_mb: f64,
    pub capacity: Capacity,
    pub inputs_s: f64,
    /// Sources: the dialect mix of the apps the run drew.
    pub source_mix: Option<String>,
    pub mismatches: usize,
    pub replay: Option<ReplayReport>,
}

pub struct ReplayReport {
    pub mismatches: usize,
    pub incr: Incr,
    pub traced_s: f64,
    pub untraced_s: f64,
    pub batch: usize,
    pub unaccounted_s: f64,
}

/// Run a serve workload against a running daemon.
pub fn workload(
    kind: Kind,
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    addr: SocketAddr,
    offline: &Offline,
    tracer: &Tracer,
) -> Result<ServeRun, String> {
    // The admin connection first, so the two generator connections get
    // consecutive ids and land on both shards.
    let mut admin = Client::connect(addr)?;
    let mut lg = LoadGen::connect(addr, loadgen::MAX_CONNS)?;
    let t = Instant::now();
    let mut traffic = Traffic::new(kind, seed, spec.size);
    let inputs_s = t.elapsed().as_secs_f64();

    let mut phases = Vec::new();
    let fixed = seconds * FIXED_SHARE;
    // The peak reported is that of the fixed-rate phases, not of set-up
    // or the generated inputs' transients.
    crate::reset_peak_rss();
    for (label, rate) in [("low", spec.low_rps), ("high", spec.high_rps)] {
        let phase = run_phase(
            label,
            rate,
            fixed,
            &mut traffic,
            &mut lg,
            &mut admin,
            tracer,
        )?;
        let stop = poisoned(&phase);
        phases.push(phase);
        if stop {
            break;
        }
    }
    let peak_rss_mb = crate::peak_rss_mb();
    let mut steps: Vec<PhaseStats> = phases.iter().map(|p| p.stats.clone()).collect();
    if phases.len() == 2 {
        let mut misses_in_a_row = 0;
        for &rate in spec.ladder {
            let label = format!("step@{rate}");
            let phase = run_phase(
                &label,
                rate,
                seconds * STEP_SHARE,
                &mut traffic,
                &mut lg,
                &mut admin,
                tracer,
            )?;
            let stop = poisoned(&phase);
            steps.push(phase.stats.clone());
            phases.push(phase);
            misses_in_a_row = if steps.last().is_some_and(|s| s.passes(spec.p99_limit_ms)) {
                0
            } else {
                misses_in_a_row + 1
            };
            if stop || misses_in_a_row == MISSES_TO_STOP {
                break;
            }
        }
    }
    let capacity = loadgen::capacity(&steps, spec.p99_limit_ms);
    drop(lg);

    let sent: Vec<(Slot, Outcome)> = phases.iter().flat_map(|p| p.sent.iter().copied()).collect();
    let mismatches = scratch_gate(offline, &traffic.frames, &sent);

    let replay = if tracer.is_on() {
        let high = phases
            .iter()
            .find(|p| p.label == "high")
            .unwrap_or(&phases[0]);
        let batch = Ratio::new(high.delta.0.scored_apps, high.delta.0.batches)
            .value()
            .round()
            .max(1.0) as usize;
        // The fixed-rate phases: the capacity steps repeat their traffic
        // at higher rates and would only lengthen the replay.
        let all: Vec<Vec<(Slot, Outcome)>> = phases
            .iter()
            .filter(|p| p.is_fixed())
            .map(|p| p.sent.clone())
            .collect();
        let off = Tracer::new(false);
        let (_, _, untraced_s) = replay(
            offline,
            &traffic.frames,
            &all,
            loadgen::MAX_CONNS,
            batch,
            &off,
        );
        let root = tracer.span("serve.replay", 0);
        let root_index = tracer.spans().len() - 1;
        let (mismatches, incr, traced_s) = replay(
            offline,
            &traffic.frames,
            &all,
            loadgen::MAX_CONNS,
            batch,
            tracer,
        );
        drop(root);
        let spans = tracer.spans();
        let unaccounted_s = trace::self_times(&spans)[root_index] as f64 / 1e9;
        Some(ReplayReport {
            mismatches,
            incr,
            traced_s,
            untraced_s,
            batch,
            unaccounted_s,
        })
    } else {
        None
    };
    Ok(ServeRun {
        kind,
        phases,
        peak_rss_mb,
        capacity,
        inputs_s,
        source_mix: (kind == Kind::Sources).then(|| traffic.source_mix()),
        mismatches,
        replay,
    })
}

/// Per-layer metrics from a serve run (or the set-up probe): `stats`
/// deltas over the phase at the high rate (or the only phase), the
/// generator's lateness, and the replay's spans.
pub fn layer_metrics(layers: &mut Layers, run: &ServeRun, spans: &[trace::Span], source: Source) {
    let main = run
        .phases
        .iter()
        .find(|p| p.label == "high")
        .unwrap_or(&run.phases[0]);
    let d = &main.delta.0;
    layers.set_ratio("serve.batch_rows_mean", d.scored_apps, d.batches, source);
    layers.set_ratio(
        "serve.reactor_wakeups_per_req",
        d.reactor_wakeups,
        main.stats.sent as f64,
        source,
    );
    layers.set(
        "serve.rejected_busy",
        run.phases.iter().map(|p| p.delta.0.rejected_busy).sum(),
        source,
    );
    layers.set(
        "serve.server_p50_us",
        main.delta.server_quantile_us(0.5),
        source,
    );
    layers.set(
        "serve.server_p99_us",
        main.delta.server_quantile_us(0.99),
        source,
    );
    if let Some(lateness) = main.stats.lateness {
        layers.set("loadgen.lag_p99_ms", lateness.p99, source);
    }
    layers.set(
        "loadgen.sent",
        run.phases.iter().map(|p| p.stats.sent as f64).sum(),
        source,
    );
    let fixed = || run.phases.iter().filter(|p| p.is_fixed());
    let hits: f64 = fixed().map(|p| p.delta.0.incr_hits).sum();
    let misses: f64 = fixed().map(|p| p.delta.0.incr_misses).sum();
    layers.set_ratio("incremental.hit_frac", hits, hits + misses, source);
    let (rebuilt, sources) = rebuilt_per_source(&run.phases, run.kind);
    layers.set_ratio("incremental.rebuilt_fns_per_req", rebuilt, sources, source);

    layers.add_span_metrics(spans, source);
}

/// Functions the daemon rebuilt, and the source requests it answered,
/// over the fixed-rate phases: both halves of
/// `incremental.rebuilt_fns_per_req` cover the same traffic. Every
/// answered source request was extracted; refused ones were not.
pub fn rebuilt_per_source(phases: &[Phase], kind: Kind) -> (f64, f64) {
    if kind != Kind::Sources {
        return (0.0, 0.0);
    }
    phases
        .iter()
        .filter(|p| p.is_fixed())
        .fold((0.0, 0.0), |(rebuilt, sources), p| {
            (
                rebuilt + p.delta.0.incr_rebuilt,
                sources + p.stats.ok as f64,
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(label: &str, answered: u64, rebuilt: f64) -> Phase {
        let slots: Vec<Slot> = (0..answered)
            .map(|i| Slot {
                due_ns: i * 1_000_000,
                conn: 0,
                req: 0,
            })
            .collect();
        let outcomes: Vec<Outcome> = slots
            .iter()
            .map(|s| Outcome {
                sent_ns: s.due_ns,
                done_ns: s.due_ns + 1,
                status: Status::Ok,
                hash: 0,
                len: 0,
            })
            .collect();
        let after = Snap {
            incr_rebuilt: rebuilt,
            ..Snap::default()
        };
        Phase {
            label: label.to_string(),
            stats: PhaseStats::of(1000.0, 0.0, 1.0, &slots, &outcomes),
            delta: Delta::between(&Snap::default(), &after),
            sent: slots.into_iter().zip(outcomes).collect(),
        }
    }

    #[test]
    fn rebuilt_per_request_counts_only_the_fixed_rate_phases() {
        let phases = vec![
            phase("low", 100, 150.0),
            phase("high", 300, 450.0),
            phase("step@400", 50, 900.0),
            phase("step@450", 60, 1000.0),
        ];
        // 600 rebuilt over 400 requests, however many steps ran.
        for steps in 0..=2 {
            assert_eq!(
                rebuilt_per_source(&phases[..2 + steps], Kind::Sources),
                (600.0, 400.0)
            );
        }
        // Vector traffic extracts nothing: no base, so no ratio.
        assert_eq!(rebuilt_per_source(&phases, Kind::Vectors), (0.0, 0.0));
    }
}
