//! The benchmark's traffic mixes.
//!
//! Each workload is a dataset preset from `bat-types`, with its user-profile
//! tokens and candidate count divided by [`TOKEN_SCALE`], served by the BAT
//! configuration (`SystemKind::Bat`) on the 4-node A100 cluster preset.
//! The planner and the model see the same scaled requests.

use bat_sim::{EngineConfig, SystemKind};
use bat_types::{Bytes, ClusterConfig, DatasetConfig, ModelConfig, RankRequest};
use bat_workload::{TraceGenerator, Workload};

/// Divisor applied to the dataset's user-profile tokens, candidate count and
/// prompt-length cap, so a prompt is about 300–400 tokens.
pub const TOKEN_SCALE: u32 = 8;

/// Nominal length of a workload's full trace, seconds of trace time.
pub const TRACE_SECS: f64 = 120.0;

/// Trace time the planner alone replays before the warm-up, seconds.
pub const PREROLL_SECS: f64 = 60.0;

/// Seed of the synthetic dataset (user profile and item lengths).
const DATASET_SEED: u64 = 0xDA7A;

/// One traffic mix.
#[derive(Debug)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Fixed open-loop rate on the wall clock, requests per second.
    pub rate_rps: f64,
    /// Latency limit behind `slo_attainment`, ms.
    pub latency_limit_ms: f64,
    dataset: fn() -> DatasetConfig,
    /// Per-node KV budget override, GB (`None` keeps the preset's).
    node_kv_gb: Option<u64>,
}

/// Every workload, in the order the benchmark lists them.
pub const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        name: "games-up",
        rate_rps: 11.0,
        latency_limit_ms: 225.0,
        dataset: DatasetConfig::games,
        node_kv_gb: None,
    },
    WorkloadSpec {
        name: "books-ip",
        rate_rps: 7.0,
        latency_limit_ms: 450.0,
        dataset: DatasetConfig::books,
        node_kv_gb: None,
    },
    WorkloadSpec {
        name: "industry-churn",
        rate_rps: 12.0,
        latency_limit_ms: 225.0,
        dataset: DatasetConfig::industry,
        node_kv_gb: Some(1),
    },
];

impl WorkloadSpec {
    /// The workload called `name`.
    pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The preset with the token scale applied.
    pub fn dataset(&self) -> DatasetConfig {
        let mut ds = (self.dataset)();
        ds.avg_user_tokens /= TOKEN_SCALE;
        ds.candidates_per_request /= TOKEN_SCALE;
        ds.max_prompt_tokens /= TOKEN_SCALE;
        ds
    }

    /// The BAT engine configuration the planner and the simulator share.
    pub fn engine_config(&self) -> EngineConfig {
        let mut cluster = ClusterConfig::a100_4node();
        if let Some(gb) = self.node_kv_gb {
            cluster.node = cluster.node.with_kv_capacity(Bytes::from_gb(gb));
        }
        EngineConfig::for_system(
            SystemKind::Bat,
            ModelConfig::qwen2_1_5b(),
            cluster,
            &self.dataset(),
        )
    }

    /// The full trace for `seed`: [`TRACE_SECS`] of trace time at the
    /// preset's per-node rate times the node count. The dataset itself
    /// (profile and item lengths) is fixed, as a real dataset is; the seed
    /// draws the requests.
    pub fn trace(&self, seed: u64) -> Vec<RankRequest> {
        let ds = self.dataset();
        let nodes = ClusterConfig::a100_4node().num_nodes as f64;
        let rate = ds.base_request_rate * nodes;
        let mut gen = TraceGenerator::new(Workload::new(ds, DATASET_SEED), seed);
        gen.generate(TRACE_SECS, rate)
    }
}
