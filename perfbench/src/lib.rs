//! Measured serving benchmark for the BAT reproduction.
//!
//! It replays a seeded open-loop trace on one physical worker through the
//! real planner, a store of packed KV segments, `bat-net` pulls and
//! `GrModel` compute, and reports end-to-end and per-layer metrics. Run it
//! from the repository root:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload games-up --seed 1 --seconds 20 --trace 0
//! ```

pub mod harness;
pub mod host;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod workload;
