//! Property tests: CVSS scoring invariants over the whole metric space.
//!
//! The v3 base space is small (2,592 vectors), so base-score properties
//! check every vector; temporal metrics and the parser take seeded
//! splitmix64 loops, so a failure reproduces from the case number in its
//! message alone.

use cvss::v3::*;
use cvss::{Cvss2, Severity};

const CASES: u64 = 512;

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

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())]
    }
}

const AV: [AttackVector; 4] = [
    AttackVector::Network,
    AttackVector::Adjacent,
    AttackVector::Local,
    AttackVector::Physical,
];
const AC: [AttackComplexity; 2] = [AttackComplexity::Low, AttackComplexity::High];
const PR: [PrivilegesRequired; 3] = [
    PrivilegesRequired::None,
    PrivilegesRequired::Low,
    PrivilegesRequired::High,
];
const UI: [UserInteraction; 2] = [UserInteraction::None, UserInteraction::Required];
const SCOPE: [Scope; 2] = [Scope::Unchanged, Scope::Changed];
const IMPACT: [Impact; 3] = [Impact::None, Impact::Low, Impact::High];

/// Every base vector, in a fixed order.
fn all_base() -> impl Iterator<Item = Cvss3> {
    AV.into_iter().flat_map(|av| {
        AC.into_iter().flat_map(move |ac| {
            PR.into_iter().flat_map(move |pr| {
                UI.into_iter().flat_map(move |ui| {
                    SCOPE.into_iter().flat_map(move |s| {
                        IMPACT.into_iter().flat_map(move |c| {
                            IMPACT.into_iter().flat_map(move |i| {
                                IMPACT
                                    .into_iter()
                                    .map(move |a| Cvss3::base(av, ac, pr, ui, s, c, i, a))
                            })
                        })
                    })
                })
            })
        })
    })
}

#[test]
fn the_base_space_is_enumerated_once() {
    let vectors: std::collections::BTreeSet<String> = all_base().map(|v| v.vector()).collect();
    assert_eq!(vectors.len(), 4 * 2 * 3 * 2 * 2 * 3 * 3 * 3);
}

/// Scores are always in [0, 10] with one decimal digit.
#[test]
fn base_score_in_range_and_one_decimal() {
    for v in all_base() {
        let score = v.base_score();
        assert!((0.0..=10.0).contains(&score), "{}", v.vector());
        let tenths = score * 10.0;
        assert!(
            (tenths - tenths.round()).abs() < 1e-9,
            "{score} not one-decimal"
        );
    }
}

/// Vector strings round-trip exactly.
#[test]
fn vector_round_trip() {
    for v in all_base() {
        let text = v.vector();
        let parsed: Cvss3 = text.parse().unwrap();
        assert_eq!(parsed, v);
        assert_eq!(parsed.vector(), text);
    }
}

/// Zero impact always scores zero; any impact scores above zero.
#[test]
fn zero_impact_iff_zero_score() {
    for v in all_base() {
        let no_impact = v.c == Impact::None && v.i == Impact::None && v.a == Impact::None;
        assert_eq!(v.base_score() == 0.0, no_impact, "{}", v.vector());
    }
}

/// Monotonicity: raising confidentiality impact never lowers the score.
#[test]
fn raising_impact_is_monotone() {
    let bump = |imp: Impact| match imp {
        Impact::None => Impact::Low,
        Impact::Low | Impact::High => Impact::High,
    };
    for v in all_base() {
        let mut worse = v;
        worse.c = bump(v.c);
        assert!(worse.base_score() >= v.base_score(), "{}", v.vector());
    }
}

/// Network attack vector is never easier to defend than physical.
#[test]
fn network_scores_at_least_physical() {
    for v in all_base() {
        let mut net = v;
        net.av = AttackVector::Network;
        let mut phys = v;
        phys.av = AttackVector::Physical;
        assert!(net.base_score() >= phys.base_score(), "{}", v.vector());
    }
}

/// Temporal score never exceeds the base score.
#[test]
fn temporal_bounded_by_base() {
    let base: Vec<Cvss3> = all_base().collect();
    let mut rng = Rng(0x7e4a);
    for case in 0..CASES {
        let mut t = rng.pick(&base);
        t.e = rng.pick(&[
            ExploitMaturity::NotDefined,
            ExploitMaturity::Unproven,
            ExploitMaturity::ProofOfConcept,
            ExploitMaturity::Functional,
            ExploitMaturity::High,
        ]);
        t.rl = rng.pick(&[
            RemediationLevel::NotDefined,
            RemediationLevel::OfficialFix,
            RemediationLevel::TemporaryFix,
            RemediationLevel::Workaround,
            RemediationLevel::Unavailable,
        ]);
        t.rc = rng.pick(&[
            ReportConfidence::NotDefined,
            ReportConfidence::Unknown,
            ReportConfidence::Reasonable,
            ReportConfidence::Confirmed,
        ]);
        assert!(
            t.temporal_score() <= t.base_score() + 1e-9,
            "case {case}: {}",
            t.vector()
        );
        assert!(
            (0.0..=10.0).contains(&t.temporal_score()),
            "case {case}: {}",
            t.vector()
        );
    }
}

/// Severity bands are consistent with scores.
#[test]
fn severity_band_matches_score() {
    for v in all_base() {
        let score = v.base_score();
        let in_band = match v.severity() {
            Severity::None => score == 0.0,
            Severity::Low => (0.1..=3.9).contains(&score),
            Severity::Medium => (4.0..=6.9).contains(&score),
            Severity::High => (7.0..=8.9).contains(&score),
            Severity::Critical => score >= 9.0,
        };
        assert!(in_band, "{} scored {score}", v.vector());
    }
}

/// The parsers never panic: random printable strings, and mutations of
/// real vectors (dropped, duplicated and swapped characters).
#[test]
fn parser_total() {
    const ALPHABET: &[char] = &[
        'C', 'V', 'S', 'A', 'N', 'L', 'H', 'P', 'R', 'U', 'I', 'E', 'X', ':', '/', '.', '3', '1',
        '0', ' ', 'é', '\u{7f}',
    ];
    let base: Vec<Cvss3> = all_base().collect();
    let mut rng = Rng(0x9a55);
    for _ in 0..CASES {
        let random: String = (0..rng.below(61)).map(|_| rng.pick(ALPHABET)).collect();
        let mut mutated: Vec<char> = rng.pick(&base).vector().chars().collect();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(mutated.len());
            match rng.below(3) {
                0 => {
                    mutated.remove(at);
                }
                1 => mutated.insert(at, mutated[at]),
                _ => mutated[at] = rng.pick(ALPHABET),
            }
            if mutated.is_empty() {
                break;
            }
        }
        let mutated: String = mutated.into_iter().collect();
        for s in [random, mutated] {
            let _ = s.parse::<Cvss3>();
            let _ = s.parse::<Cvss2>();
        }
    }
}
