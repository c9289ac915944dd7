//! Property tests over the static analyses: seeded splitmix64 loops over
//! generated programs, checked through the shared `AnalysisContext`.

use static_analysis::context::AnalysisContext;
use static_analysis::interval::Interval;
use static_analysis::{cyclomatic, dataflow, loc};

const CASES: u64 = 48;

/// splitmix64: tiny, seeded, reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
}

/// `CASES` program seeds in `0..5000`, fixed per property.
fn seeds(stream: u64) -> impl Iterator<Item = u64> {
    let mut rng = Rng(stream);
    (0..CASES).map(move |_| rng.next() % 5000)
}

/// A deterministic program from generated source text: a family of
/// functions exercising every construct, parameterized by seed.
fn program(seed: u64) -> minilang::ast::Program {
    let n = 2 + (seed % 5) as usize;
    let mut src = String::new();
    for i in 0..n {
        let cap = 4 + (seed as usize + i) % 60;
        let bound = 1 + ((seed >> 3) as usize + i) % 9;
        src.push_str(&format!(
            "fn f{i}(a: int, b: int) -> int {{
                let buf: int[{cap}];
                let acc: int = 0;
                for k = 0; k < {bound}; k += 1 {{
                    if a > k && b < {cap} {{ acc += k; }} else {{ acc -= 1; }}
                    buf[k % {cap}] = acc;
                }}
                while acc > {bound} {{ acc -= 2; }}
                switch acc {{ case 0: {{ return 0; }} case 1: {{ acc = 9; }} default: {{ }} }}
                return acc + {};
            }}\n",
            (seed % 100) as i64 - 50,
        ));
    }
    minilang::parse_program("gen", minilang::Dialect::C, &[("g.c".into(), src)]).unwrap()
}

/// Line classification partitions the file: code + comment + blank = total.
#[test]
fn loc_partitions_lines() {
    for seed in seeds(1) {
        let p = program(seed);
        for m in &p.modules {
            let c = loc::count_module(m);
            assert_eq!(c.total(), m.source.lines().count(), "seed {seed}");
        }
    }
}

/// CFG invariants: preds mirror succs, RPO covers all nodes, McCabe ≥ 1.
#[test]
fn cfg_invariants() {
    for seed in seeds(2) {
        let p = program(seed);
        let cx = AnalysisContext::build(&p);
        for fcx in &cx.functions {
            let cfg = &fcx.cfg;
            for (id, node) in cfg.nodes.iter().enumerate() {
                assert_eq!(node.succs.len(), node.labels.len(), "seed {seed}");
                for &s in &node.succs {
                    assert!(cfg.nodes[s].preds.contains(&id), "seed {seed}");
                }
            }
            let mut rpo = fcx.rpo.clone();
            rpo.sort_unstable();
            assert_eq!(
                rpo,
                (0..cfg.node_count()).collect::<Vec<_>>(),
                "seed {seed}"
            );
            let c = cyclomatic::function_complexity(fcx.function);
            assert!(c.graph >= 1, "seed {seed}");
            assert!(c.decision >= 1, "seed {seed}");
        }
    }
}

/// The context's dense def/use tables name exactly the variables each CFG
/// node defines and reads, the def count is the number of defining nodes,
/// and every dead-store site is a strong def of its variable.
#[test]
fn def_use_tables_mirror_the_cfg() {
    for seed in seeds(3) {
        let p = program(seed);
        let cx = AnalysisContext::build(&p);
        for fcx in &cx.functions {
            let name = |local: u32| cx.symbols.table.name(fcx.symbols.syms[local as usize]);
            for (id, node) in fcx.cfg.nodes.iter().enumerate() {
                let def = fcx.defs[id].map(|(l, strong)| (name(l), strong));
                assert_eq!(def, dataflow::node_def(&node.kind), "seed {seed}");
                let uses: Vec<&str> = fcx.uses[id].iter().map(|&l| name(l)).collect();
                let mut read = Vec::new();
                dataflow::node_uses(&node.kind, &mut |n| read.push(n));
                assert_eq!(uses, read, "seed {seed}");
            }
            let defining = fcx.defs.iter().filter(|d| d.is_some()).count();
            assert_eq!(fcx.dataflow.defs, defining, "seed {seed}");
            for &(node, local) in &fcx.dead_store_sites {
                assert_eq!(fcx.defs[node], Some((local, true)), "seed {seed}");
            }
        }
    }
}

/// Interval soundness against the interpreter: when the analysis proves
/// every access of a function safe, running it never faults.
#[test]
fn interval_safe_accesses_never_fault_at_runtime() {
    for seed in seeds(4) {
        let p = program(seed);
        let cx = AnalysisContext::build(&p);
        for fcx in &cx.functions {
            if fcx.bounds.out_of_bounds == 0 && fcx.bounds.unknown == 0 {
                let trace = minilang::interp::run_function(
                    &p,
                    &fcx.function.name,
                    &minilang::InterpConfig::default(),
                );
                assert_eq!(
                    trace.oob_writes, 0,
                    "static proof violated in {} (seed {seed})",
                    fcx.function.name
                );
            }
        }
    }
}

/// Interval arithmetic is sound for concrete samples.
#[test]
fn interval_ops_contain_concrete_results() {
    let mut rng = Rng(5);
    for _ in 0..256 {
        let [a, b, c, d] = [(); 4].map(|_| rng.range(-1000, 1000));
        let (lo1, hi1) = (a.min(b), a.max(b));
        let (lo2, hi2) = (c.min(d), c.max(d));
        let x = Interval::new(lo1, hi1);
        let y = Interval::new(lo2, hi2);
        // Sample concrete points: endpoints and midpoints.
        for &p in &[lo1, hi1, (lo1 + hi1) / 2] {
            for &q in &[lo2, hi2, (lo2 + hi2) / 2] {
                assert!(x.add(&y).contains(p + q), "{x} + {y} misses {p} + {q}");
                assert!(x.sub(&y).contains(p - q), "{x} - {y} misses {p} - {q}");
                assert!(x.mul(&y).contains(p * q), "{x} * {y} misses {p} * {q}");
            }
        }
        assert!(x.join(&y).contains(lo1) && x.join(&y).contains(hi2));
    }
}
