//! Static analyses — the Clairvoyant "testbed" building blocks.
//!
//! §5.1 of the paper calls for "an automated framework to collect all the
//! code properties from the sample applications", citing `cloc`, CCCC and
//! Metrix++ for the basic measures and a body of research analyses for the
//! richer ones (§4.1). This crate implements each of them over MiniLang:
//!
//! | paper citation | module |
//! |---|---|
//! | `cloc` line counting | [`loc`] |
//! | McCabe cyclomatic complexity \[47\] | [`cyclomatic`] |
//! | Halstead software science \[37\] | [`halstead`] |
//! | control-flow analysis (Allen \[15\]) | [`cfg`], [`callgraph`] |
//! | precise data-flow analysis \[56\] | [`dataflow`] |
//! | taint / exposure of inputs | [`taint`] |
//! | abstract interpretation \[27\] | [`interval`] |
//! | symbolic execution path counts (KLEE \[22\]) | [`paths`] |
//! | "code smell" research \[45–68\] | [`smells`] |
//! | basic counts (functions, declarations, branches, args) | [`counts`] |
//! | extensible collector registry (Metrix++ role) | [`registry`], [`features`] |
//!
//! Each analysis flattens its result into named [`features::FeatureVector`]
//! entries for the ML stage through a [`registry::MetricCollector`].
//!
//! Collectors share one [`context::AnalysisContext`]: identifiers are
//! interned into a [`symbols::SymbolTable`], each function's CFG,
//! reverse-postorder, dominator tree and def/use sets are built exactly
//! once, and the dataflow/taint/interval fixpoints run on dense
//! [`bitset::BitSet`] lattices keyed by [`symbols::SymbolId`].

pub mod bitset;
pub mod callgraph;
pub mod cfg;
pub mod context;
pub mod counts;
pub mod cyclomatic;
pub mod dataflow;
pub mod features;
pub mod halstead;
pub mod interval;
pub mod loc;
pub mod paths;
pub mod registry;
pub mod smells;
pub mod symbols;
pub mod taint;

pub use bitset::BitSet;
pub use context::{AnalysisContext, FunctionContext};
pub use features::FeatureVector;
pub use registry::{standard_registry, MetricCollector, Registry};
pub use symbols::{SymbolId, SymbolTable};
