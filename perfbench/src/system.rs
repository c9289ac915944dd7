//! Set-up: bring the system up the way a deployment does.
//!
//! A small retrain (the same round the `retrain` workload times) produces
//! the served model; the daemon starts with the CLI's default
//! configuration; its first answer, and a readiness probe of generated
//! source traffic on the daemon that serves the measured work, must come
//! back byte-equal to offline renders before anything is measured.
//! `setup_s` runs from the retrain to the daemon's first answer: the
//! checks and the probe are the benchmark's work. The
//! set-up calls every layer once, so it also supplies the per-layer
//! metrics of layers a workload's measured phase bypasses.

use crate::layers::{Layers, Source, SETUP_ROOT};
use crate::retrain;
use crate::serving::{self, Engine, Incr, Kind, Offline, ServeSpec, Traffic};
use crate::trace::Tracer;
use clairvoyant::{CompiledModel, Testbed};
use serve::client::Client;
use serve::{ModelState, ServeConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// The served model's training population: fixed, so every seed serves
/// the same model and serve metrics move only with traffic and code.
const FIXTURE_SEED: u64 = 0x0005_e70b;
const FIXTURE_APPS: usize = 64;
const PROBE_SEED: u64 = 0x9_20be;
/// About a dozen requests per probe phase.
const PROBE: ServeSpec = ServeSpec {
    size: 4,
    low_rps: 100.0,
    high_rps: 100.0,
    ladder: &[],
    p99_limit_ms: 1000.0,
};
const PROBE_SECONDS: f64 = 0.4;

/// A running daemon plus the offline copy of its model.
pub struct System {
    handle: ServerHandle,
    pub addr: SocketAddr,
    pub offline: Offline,
    pub setup_s: f64,
}

impl System {
    pub fn shutdown(self) {
        self.handle.shutdown();
    }
}

/// The CLI's `serve` defaults: `--jobs` 0 (all cores), everything else
/// at `ServeConfig::default()`, on an ephemeral port.
fn cli_default_config() -> ServeConfig {
    ServeConfig {
        jobs: 0,
        ..ServeConfig::default()
    }
}

pub fn bring_up(
    tracer: &Tracer,
    layers: &mut Layers,
    out: &Path,
    schema: &[String],
) -> Result<System, String> {
    // The first request is the benchmark's own work: built before the
    // clock starts.
    let mut first = Traffic::new(Kind::Sources, PROBE_SEED, PROBE.size);
    let first_slot = first.plan(1.0, 1.0, 1)[0];
    let first_frame = &first.frames[first_slot.req];

    let t0 = Instant::now();
    let root = tracer.span(SETUP_ROOT, 0);
    let stream = retrain::population(FIXTURE_SEED, FIXTURE_APPS);
    let round = retrain::round(
        &stream,
        schema,
        &retrain::trainer(),
        &out.join("setup-spill"),
        tracer,
        false,
    )
    .map_err(|e| format!("set-up training failed: {e}"))?;
    if tracer.is_on() {
        retrain::layer_metrics(
            layers,
            std::slice::from_ref(&round),
            &tracer.spans(),
            Source::Setup,
        );
    }
    let served = CompiledModel::from_bytes(&round.model_bytes)?;
    let handle = {
        let _s = tracer.span("serve.start", 0);
        serve::start(cli_default_config(), ModelState::from_model(served))?
    };
    let addr = handle.addr();
    // Set-up ends when the daemon answers its first request; the answer
    // is byte-checked after the clock stops.
    let answer = first_answer(addr, first_frame);
    let setup_s = t0.elapsed().as_secs_f64();

    let offline = Offline {
        fingerprint: retrain::fingerprint(&round.model_bytes),
        model: round.model,
    };
    let expected = serving::render_batch(
        &offline,
        &mut Engine::Scratch(Testbed::new()),
        &mut Incr::default(),
        &Tracer::new(false),
        &[&first_frame[4..]],
    );
    match answer {
        Ok(bytes) if expected.first().map(String::as_bytes) == Some(&bytes[..]) => {}
        Ok(_) => {
            handle.shutdown();
            return Err(
                "readiness probe failed: the first answer differs from its scratch render".into(),
            );
        }
        Err(e) => {
            handle.shutdown();
            return Err(format!("readiness probe failed: first request: {e}"));
        }
    }
    drop(root);
    Ok(System {
        handle,
        addr,
        offline,
        setup_s,
    })
}

/// The readiness probe: about two dozen more generated source requests
/// through the load generator, every answer byte-checked. Run once, on
/// the daemon that serves the measured work.
pub fn probe(sys: &System, tracer: &Tracer, layers: &mut Layers) -> Result<(), String> {
    let root = tracer.span(SETUP_ROOT, 0);
    let probe = serving::workload(
        Kind::Sources,
        &PROBE,
        PROBE_SEED,
        PROBE_SECONDS,
        sys.addr,
        &sys.offline,
        tracer,
    )?;
    drop(root);

    let failed: usize = probe.phases.iter().map(|p| p.stats.failed).sum();
    let replay_mismatches = probe.replay.as_ref().map_or(0, |r| r.mismatches);
    if failed > 0 || probe.mismatches > 0 || replay_mismatches > 0 {
        return Err(format!(
            "readiness probe failed: {failed} failed, {} differ from scratch renders, \
             {replay_mismatches} from the replay",
            probe.mismatches
        ));
    }
    if tracer.is_on() {
        serving::layer_metrics(layers, &probe, &tracer.spans(), Source::Setup);
    }
    Ok(())
}

/// Send one request frame on a fresh connection and return the answer.
fn first_answer(addr: SocketAddr, frame: &[u8]) -> Result<Vec<u8>, String> {
    let mut client = Client::connect(addr)?;
    client.set_timeout(Some(Duration::from_secs(30)))?;
    client.send_framed(frame)?;
    Ok(client.recv_payload()?.to_vec())
}
