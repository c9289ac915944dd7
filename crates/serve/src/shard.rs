//! Sharded micro-batchers: the compute half of the reactor design.
//!
//! The old daemon funneled every admitted request through one batcher
//! thread behind one global `Mutex<VecDeque>` — a single lock every
//! connection fought over, and a single thread all scoring serialized
//! through. Here the queue is split into N independent [`ShardQueue`]s;
//! each connection is pinned to `conn_id % N` at accept time, so a
//! connection's jobs never change shards (cache-friendly, no rebalancing
//! races) and lock contention divides by N.
//!
//! Each shard thread runs [`shard_loop`]: sleep on its condvar, drain up
//! to `batch_max` jobs, resolve inputs (parse + feature extraction — CPU
//! work that used to burn handler threads now rides the shard), score
//! the whole batch with one `evaluate_batch`/`explain_batch` pair
//! against one model snapshot, then hand per-job [`Completion`]s back to
//! the reactors that own the connections and wake them via self-pipe.
//!
//! Batch composition is invisible on the wire: every row's report
//! depends only on its own features, so coalescing jobs from many
//! connections produces bit-identical responses to scoring them one by
//! one — the property the equality gates in the bench and harness pin.
//!
//! Panic isolation is preserved from the old batcher: a poisoned row
//! answers every job in its batch with a typed `internal` error instead
//! of wedging the shard, and `batch_panics` ticks for the alert. Input
//! resolution (parse, extraction, hotspot ranking) is isolated per job:
//! a panic there answers that one job with `internal` and replaces the
//! shard's engine.
//!
//! Exit protocol: a shard parks until `shutting_down && inflight == 0`.
//! The SeqCst handshake in [`crate::server::reserve_slot`] guarantees
//! any job admitted before the flag was observable is drained first.

use crate::conn::unpack_token;
use crate::protocol::{error_response, ok_response, Payload, ScoreInput};
use crate::reactor::Completion;
use crate::server::Shared;
use clairvoyant::report::{comparison_value, explanation_value, write_security_report, Json};
use clairvoyant::{rank_hotspots_cx, Comparison, Explanation, Hotspot, IncrementalTestbed};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The scoring-family work a connection submits to its shard. Inputs are
/// raw wire payloads: resolution (parse, extraction, hotspot ranking)
/// happens on the shard thread, off the reactor's event loop.
pub(crate) enum Work {
    Score {
        name: String,
        input: ScoreInput,
    },
    Explain {
        name: String,
        input: ScoreInput,
        top_k: usize,
    },
    Compare {
        a: (String, ScoreInput),
        b: (String, ScoreInput),
    },
}

/// One admitted request. `token` routes the completion back to the
/// owning reactor/connection; `seq` slots it into the connection's
/// ordered response queue. Every job holds one admission slot
/// (`Compare` contributes two batch rows but is one waiting client).
pub(crate) struct Job {
    pub token: u64,
    pub seq: u64,
    pub work: Work,
}

/// One shard's job queue: a mutexed deque plus a condvar for the shard
/// thread, and an exact depth mirror and the shard engine's resident
/// entry count, both readable by the `stats` endpoint without the lock.
pub(crate) struct ShardQueue {
    queue: Mutex<VecDeque<Job>>,
    signal: Condvar,
    depth: AtomicUsize,
    resident_fns: AtomicUsize,
}

impl ShardQueue {
    pub fn new() -> ShardQueue {
        ShardQueue {
            queue: Mutex::new(VecDeque::new()),
            signal: Condvar::new(),
            depth: AtomicUsize::new(0),
            resident_fns: AtomicUsize::new(0),
        }
    }

    /// Queue a burst of admitted jobs (the admission slots travel with
    /// them) under one lock and wake the shard thread once. Connections
    /// accumulate a pump's worth of parsed requests and hand them over
    /// here, so a 16-deep pipelined burst costs one lock + one notify
    /// instead of sixteen of each.
    pub fn push_batch(&self, jobs: &mut Vec<Job>) {
        let n = jobs.len();
        if n == 0 {
            return;
        }
        self.queue.lock().unwrap().extend(jobs.drain(..));
        self.depth.fetch_add(n, Ordering::SeqCst);
        self.signal.notify_one();
    }

    /// Jobs queued and not yet drained into a batch.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// Per-function entries resident in the shard's incremental engine,
    /// as of its last batch.
    pub fn resident_fns(&self) -> usize {
        self.resident_fns.load(Ordering::Relaxed)
    }

    /// Wake the shard thread so it re-checks the shutdown exit condition.
    pub fn kick(&self) {
        self.signal.notify_all();
    }
}

/// How one resolved job maps into the batch's result rows.
enum Resolved {
    /// Input resolution failed; the response is already final.
    Error(Json),
    Score {
        row: usize,
    },
    Explain {
        row: usize,
        hotspots: Vec<Hotspot>,
    },
    Compare {
        row_a: usize,
        row_b: usize,
    },
}

/// Resolve a scoring-family input on the shard thread: pre-extracted
/// features pass through; source is parsed and run through the shard's
/// resident incremental engine, and for `explain` (`hotspots` = top k)
/// its functions are ranked over the very analysis context that
/// extraction assembled. The engine lives for the shard's whole lifetime
/// (the old code built a fresh `Testbed::new()` per request), so repeat
/// or lightly-edited sources reuse resident per-function entries and
/// only re-analyze what changed; the hit/miss/rebuild counts land in the
/// service-wide `incr_*` counters. Feature-vector submissions have no
/// program and get no hotspots, matching `explain_features`.
fn resolve_input(
    engine: &mut IncrementalTestbed,
    shared: &Shared,
    name: &str,
    input: ScoreInput,
    hotspots: Option<usize>,
) -> Result<(static_analysis::FeatureVector, Vec<Hotspot>), Json> {
    match input {
        ScoreInput::Features(fv) => Ok((fv, Vec::new())),
        ScoreInput::Source { text, dialect } => {
            let files = vec![(format!("{name}.src"), text)];
            match minilang::parse_program(name, dialect, &files) {
                Ok(program) => {
                    let (fv, report, ranked) = engine.extract_stats_with(&program, |cx| {
                        hotspots
                            .map(|top_k| rank_hotspots_cx(cx, top_k))
                            .unwrap_or_default()
                    });
                    shared
                        .stats
                        .incr_hits
                        .fetch_add(report.hits, Ordering::Relaxed);
                    shared
                        .stats
                        .incr_misses
                        .fetch_add(report.misses, Ordering::Relaxed);
                    shared
                        .stats
                        .incr_rebuilt_fns
                        .fetch_add(report.rebuilt, Ordering::Relaxed);
                    Ok((fv, ranked))
                }
                Err(e) => Err(error_response("bad_request", &format!("parse error: {e}"))),
            }
        }
    }
}

/// Run one job's resolution with panic isolation. A panic answers only
/// this job, with a typed `internal` error, and replaces the engine: its
/// entry store may have been left half-updated mid-extraction.
fn isolated<T>(
    engine: &mut IncrementalTestbed,
    resolve: impl FnOnce(&mut IncrementalTestbed) -> Result<T, Json>,
) -> Result<T, Json> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| resolve(&mut *engine))).unwrap_or_else(
        |_| {
            *engine = IncrementalTestbed::new();
            Err(error_response(
                "internal",
                "input resolution failed on this request",
            ))
        },
    )
}

fn model_field(fingerprint: u64) -> (&'static str, Json) {
    ("model", Json::String(format!("{fingerprint:016x}")))
}

pub(crate) fn shard_loop(shared: &Arc<Shared>, shard_id: usize) {
    let me = &shared.shards[shard_id];
    // The shard's warm analysis context: one testbed + per-function entry
    // store, resident across batches. Connections are pinned to shards,
    // so a client iterating on one source keeps hitting its own warm
    // entries.
    let mut engine = IncrementalTestbed::new();
    loop {
        let batch: Vec<Job> = {
            let mut queue = me.queue.lock().unwrap();
            loop {
                if !queue.is_empty() {
                    break;
                }
                if shared.shutting_down.load(Ordering::SeqCst)
                    && shared.inflight.load(Ordering::SeqCst) == 0
                {
                    return;
                }
                // Timed wait: an admitted-but-not-yet-queued job (the
                // reactor increments `inflight` before pushing) must be
                // picked up even if the notify raced the wait.
                let (q, _) = me
                    .signal
                    .wait_timeout(queue, shared.config.poll_tick)
                    .unwrap();
                queue = q;
            }
            let take = shared.config.batch_max.max(1).min(queue.len());
            queue.drain(..take).collect()
        };
        me.depth.fetch_sub(batch.len(), Ordering::SeqCst);

        // One model snapshot per batch: a concurrent reload swaps the
        // slot for *future* batches; this one finishes on the snapshot.
        let model = shared.current_model();

        // Resolve every input and partition the batch into scoring rows
        // (one `evaluate_batch` call) and explanation rows (`explain`
        // plus both sides of every `compare`, one `explain_batch` call).
        let mut score_apps: Vec<(String, static_analysis::FeatureVector)> = Vec::new();
        let mut explain_apps: Vec<(String, static_analysis::FeatureVector)> = Vec::new();
        let mut items: Vec<(u64, u64, Resolved)> = Vec::with_capacity(batch.len());
        let mut resolve = |name: &str, input: ScoreInput, hotspots: Option<usize>| {
            isolated(&mut engine, |engine| {
                resolve_input(engine, shared, name, input, hotspots)
            })
        };
        for job in batch {
            let resolved = match job.work {
                Work::Score { name, input } => match resolve(&name, input, None) {
                    Ok((features, _)) => {
                        score_apps.push((name, features));
                        Resolved::Score {
                            row: score_apps.len() - 1,
                        }
                    }
                    Err(response) => Resolved::Error(response),
                },
                Work::Explain { name, input, top_k } => match resolve(&name, input, Some(top_k)) {
                    Ok((features, hotspots)) => {
                        explain_apps.push((name, features));
                        Resolved::Explain {
                            row: explain_apps.len() - 1,
                            hotspots,
                        }
                    }
                    Err(response) => Resolved::Error(response),
                },
                Work::Compare { a, b } => {
                    match (resolve(&a.0, a.1, None), resolve(&b.0, b.1, None)) {
                        (Ok((fa, _)), Ok((fb, _))) => {
                            explain_apps.push((a.0, fa));
                            explain_apps.push((b.0, fb));
                            Resolved::Compare {
                                row_a: explain_apps.len() - 2,
                                row_b: explain_apps.len() - 1,
                            }
                        }
                        (Err(response), _) | (_, Err(response)) => Resolved::Error(response),
                    }
                }
            };
            items.push((job.token, job.seq, resolved));
        }
        // Published before any completion is delivered, so a client that
        // reads `stats` after its response sees this batch's entries.
        me.resident_fns
            .store(engine.resident_entries(), Ordering::Relaxed);

        // Panic isolation: a poisoned feature row must not kill the
        // shard — that would strand every queued connection and leak the
        // in-flight slots. On panic, answer each scoring job in the
        // failed batch with a typed internal error and keep serving.
        let rows = score_apps.len() + explain_apps.len();
        let scored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let reports = if score_apps.is_empty() {
                Vec::new()
            } else {
                model
                    .compiled
                    .evaluate_batch(&score_apps, shared.config.jobs)
            };
            let explanations = if explain_apps.is_empty() {
                Vec::new()
            } else {
                model
                    .compiled
                    .explain_batch(&explain_apps, shared.config.jobs)
            };
            (reports, explanations)
        }));
        if !shared.config.debug_batch_delay.is_zero() {
            std::thread::sleep(shared.config.debug_batch_delay);
        }

        let completions: Vec<Completion> = match scored {
            Ok((reports, explanations)) => {
                if rows > 0 {
                    shared
                        .stats
                        .scored_apps
                        .fetch_add(rows as u64, Ordering::Relaxed);
                    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
                }
                let mut explanations: Vec<Option<Explanation>> =
                    explanations.into_iter().map(Some).collect();
                let mut take_explanation = |row: usize| {
                    explanations[row]
                        .take()
                        .expect("each explanation row consumed once")
                };
                items
                    .into_iter()
                    .map(|(token, seq, resolved)| {
                        let response = match resolved {
                            Resolved::Error(response) => Payload::Value(response),
                            // The hot path: stream the report straight
                            // into a String — key order matches what
                            // `ok_response` + `security_report_value`
                            // would serialize, byte for byte (pinned by
                            // a protocol test and the bench's in-loop
                            // equality gate).
                            Resolved::Score { row } => {
                                use std::fmt::Write as _;
                                let mut text = String::with_capacity(4096);
                                let _ = write!(
                                    text,
                                    "{{\"model\":\"{:016x}\",\"ok\":true,\"op\":\"score\",\"report\":",
                                    model.fingerprint
                                );
                                let _ = write_security_report(&reports[row], &mut text);
                                text.push('}');
                                Payload::Raw(text)
                            }
                            Resolved::Explain { row, hotspots } => {
                                let mut explanation = take_explanation(row);
                                explanation.hotspots = hotspots;
                                Payload::Value(ok_response(
                                    "explain",
                                    vec![
                                        model_field(model.fingerprint),
                                        ("explanation", explanation_value(&explanation)),
                                    ],
                                ))
                            }
                            Resolved::Compare { row_a, row_b } => {
                                let ea = take_explanation(row_a);
                                let eb = take_explanation(row_b);
                                Payload::Value(ok_response(
                                    "compare",
                                    vec![
                                        model_field(model.fingerprint),
                                        (
                                            "comparison",
                                            comparison_value(&Comparison::from_explanations(
                                                &ea, &eb,
                                            )),
                                        ),
                                    ],
                                ))
                            }
                        };
                        Completion {
                            token,
                            seq,
                            response,
                        }
                    })
                    .collect()
            }
            Err(_) => {
                shared.stats.batch_panics.fetch_add(1, Ordering::Relaxed);
                items
                    .into_iter()
                    .map(|(token, seq, resolved)| Completion {
                        token,
                        seq,
                        // Resolution errors keep their own diagnostics;
                        // everything that reached scoring gets the typed
                        // internal error.
                        response: Payload::Value(match resolved {
                            Resolved::Error(response) => response,
                            _ => error_response("internal", "scoring backend failed on this batch"),
                        }),
                    })
                    .collect()
            }
        };

        // Deliver grouped by owning reactor, one lock + one wake each.
        let released = completions.len();
        let mut per_reactor: Vec<Vec<Completion>> = Vec::new();
        per_reactor.resize_with(shared.reactors.len(), Vec::new);
        for completion in completions {
            let (reactor, _, _) = unpack_token(completion.token);
            per_reactor[reactor].push(completion);
        }
        for (reactor, group) in per_reactor.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            shared.reactors[reactor]
                .completions
                .lock()
                .unwrap()
                .extend(group);
            shared.reactors[reactor].waker.wake();
        }
        // Slots release only after the completions are visible to the
        // reactors: drain logic treats `inflight == 0` as "no responses
        // still owed anywhere".
        shared.inflight.fetch_sub(released, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> minilang::ast::Program {
        let src = "fn f(x: int) -> int { return x; }\nfn g() -> int { return f(1); }";
        minilang::parse_program("app", minilang::Dialect::C, &[("m.c".into(), src.into())]).unwrap()
    }

    #[test]
    fn a_panicking_resolution_answers_only_its_job_and_resets_the_engine() {
        let program = program();
        let mut engine = IncrementalTestbed::new();
        let before = isolated(&mut engine, |e| Ok(e.extract(&program))).unwrap();
        assert_eq!(engine.resident_entries(), 2);

        let failed = isolated(&mut engine, |_| -> Result<(), Json> {
            panic!("resolution bug")
        });
        assert_eq!(
            failed.unwrap_err(),
            error_response("internal", "input resolution failed on this request")
        );
        // The possibly half-updated store is gone with the old engine.
        assert_eq!(engine.resident_entries(), 0);

        // The next job is answered as if nothing had happened.
        let after = isolated(&mut engine, |e| Ok(e.extract(&program))).unwrap();
        assert_eq!(after, before);
        assert_eq!(engine.resident_entries(), 2);
    }
}
