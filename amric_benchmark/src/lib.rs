//! `amric_benchmark` — the repo benchmark. See `README.md` here and
//! `BENCHMARK.json` at the repository root.
//!
//! Two workloads, each one pass over the whole life of a snapshot (dump,
//! restart, post-hoc query, served scan), measured twice: an end-to-end
//! pass that times the seven user-visible operations and checks every
//! answer, and a traced pass that replays, from this crate's own code,
//! the public calls each operation is made of, to say which layer
//! carries the time. The crates under test are not changed or
//! instrumented: every number here is measured from outside.

pub mod all;
pub mod compare;
pub mod host;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod lifecycle;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
