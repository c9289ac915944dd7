//! Whole-system evaluation — the paper's §5.3 future-work question:
//! *"can we use the same approach of evaluating application programs to
//! evaluate whole systems? We expect that total system security is
//! dependent upon the weakest link…"*
//!
//! Models a three-component deployment (network front-end, internal worker,
//! root-privileged config agent) and shows how containment boundaries (the
//! "VM or Docker image" of §5.3) change the system-level verdict.
//!
//! Run with:
//! ```text
//! cargo run --example whole_system
//! ```

use clairvoyant::prelude::*;
use clairvoyant::system::{evaluate_system, Component, Containment, Exposure, SystemSpec};

const FRONTEND: &str = r#"
@endpoint(network)
fn handle(req: str) {
    let buf: str[32];
    strcpy(buf, req);
    dispatch(buf);
}
fn dispatch(cmd: str) { system(cmd); }
"#;

const WORKER: &str = r#"
fn transform(n: int) -> int {
    if n < 0 || n > 65536 { return 0; }
    return n * 3 + 1;
}
"#;

const AGENT: &str = r#"
@endpoint(local) @priv(root)
fn apply_config(cfg: str) {
    write_file("/etc/stack.conf", cfg);
    exec(cfg);
}
"#;

fn component(name: &str, src: &str, exposure: Exposure, containment: Containment) -> Component {
    Component {
        name: name.to_string(),
        program: parse_program(name, Dialect::C, &[("m.c".to_string(), src.to_string())])
            .expect("component parses"),
        exposure,
        containment,
    }
}

fn main() {
    println!("training the per-application metric…");
    let mut config = CorpusConfig::small(20, 1999);
    config.language_mix = [15, 2, 1, 2];
    let corpus = Corpus::generate(&config);
    let model = Trainer::new().train(&corpus).compile();

    for (label, containment) in [
        ("flat deployment (no containment)", Containment::None),
        ("config agent inside a VM", Containment::Vm),
    ] {
        let system = SystemSpec {
            name: format!("web-stack / {label}"),
            components: vec![
                component(
                    "frontend",
                    FRONTEND,
                    Exposure::NetworkFacing,
                    Containment::None,
                ),
                component("worker", WORKER, Exposure::Internal, Containment::None),
                component("config-agent", AGENT, Exposure::Infrastructure, containment),
            ],
        };
        let report = evaluate_system(&model, &system, 0);
        println!("\n== {label} ==");
        println!("{report}");
    }
}
