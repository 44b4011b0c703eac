//! The three workloads of record, at the paper's slice shapes (Table III)
//! with the §VI-A corruption protocol. Loads and latency limits are fixed
//! here and restated in `BENCHMARK.json`.

use sofia_core::SofiaConfig;
use sofia_datagen::datasets::Dataset;
use sofia_datagen::CorruptionConfig;
use std::time::Duration;

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    /// `(missing %, outlier %, magnitude)` of §VI-A.
    pub corruption: (u32, u32, f64),
    /// Served streams; stream `i` is fed source `i % sources`.
    pub streams: usize,
    /// Distinct generated streams (and model inits). Clones start from
    /// their source's model and receive its slices, so set-up stays small
    /// while the server still carries `streams` models.
    pub sources: usize,
    pub shards: usize,
    /// Ticks in the generated input cycle (a whole number of seasons).
    pub cycle: usize,
    /// Reads sent after every tick, rotating over the read mix.
    pub reads_per_tick: usize,
    /// Periodic checkpoint interval in steps per stream, if any.
    pub checkpoint_every: Option<u64>,
    /// Step-latency limit; a tick slower than this is a deadline miss.
    pub limit: Duration,
    /// Horizon of the served `forecast` queries and of the AFE.
    pub horizon: usize,
    /// Cap on Algorithm 1's outer iterations at start-up.
    pub init_outer: usize,
    /// Ticks the quality metrics are scored over.
    pub scored_ticks: usize,
}

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        Some(match name {
            // Large slices: the dense Eq. 27 passes and the wire codec
            // dominate; per-request overhead is negligible.
            "nyc-sparse" => Workload {
                name: "nyc-sparse",
                dataset: Dataset::NycTaxi,
                corruption: (70, 20, 5.0),
                streams: 2,
                sources: 2,
                shards: 2,
                cycle: 4 * Dataset::NycTaxi.period(),
                reads_per_tick: 3,
                checkpoint_every: None,
                limit: Duration::from_millis(100),
                horizon: 7,
                init_outer: 10,
                scored_ticks: 28 * Dataset::NycTaxi.period(),
            },
            // Tiny slices, many streams: per-request and per-slice
            // overhead dominates, and periodic checkpoints set the tail.
            "intel-fleet" => Workload {
                name: "intel-fleet",
                dataset: Dataset::IntelLab,
                corruption: (20, 10, 2.0),
                streams: 64,
                sources: 8,
                shards: 2,
                cycle: Dataset::IntelLab.period(),
                reads_per_tick: 6,
                // Once a season: checkpoint ticks stay well under 5 % of
                // ticks, so they set the p99 but not the p95.
                checkpoint_every: Some(Dataset::IntelLab.period() as u64),
                limit: Duration::from_millis(20),
                horizon: 6,
                init_outer: 30,
                // The Intel Lab stream's length in Table III.
                scored_ticks: Dataset::IntelLab.stream_len(),
            },
            // Mid-size slices with the largest rank, reads as heavy as
            // the writes, and the largest init, so set-up time moves here.
            "chicago-mixed" => Workload {
                name: "chicago-mixed",
                dataset: Dataset::ChicagoTaxi,
                corruption: (50, 20, 4.0),
                streams: 4,
                sources: 2,
                shards: 2,
                cycle: Dataset::ChicagoTaxi.period(),
                reads_per_tick: 3,
                checkpoint_every: None,
                limit: Duration::from_millis(50),
                horizon: 24,
                // Capped so that three set-ups per run stay within the
                // benchmark's time budget at this shape.
                init_outer: 5,
                scored_ticks: 2 * Dataset::ChicagoTaxi.period(),
            },
            _ => return None,
        })
    }

    /// SOFIA with the paper's rank and period for this shape.
    pub fn config(&self) -> SofiaConfig {
        SofiaConfig::new(self.dataset.paper_rank(), self.dataset.period()).with_als_limits(
            1e-4,
            300,
            self.init_outer,
        )
    }

    pub fn corruption(&self) -> CorruptionConfig {
        let (missing, outlier, magnitude) = self.corruption;
        CorruptionConfig::from_percents(missing, outlier, magnitude)
    }

    pub fn source_of(&self, stream: usize) -> usize {
        stream % self.sources
    }

    /// Stream ids, chosen so the streams spread evenly over the shards
    /// (the fleet routes by a hash of the id).
    pub fn stream_ids(&self) -> Vec<String> {
        let prefix = self.name.split('-').next().unwrap_or(self.name);
        let mut ids = Vec::with_capacity(self.streams);
        let mut candidate = 0usize;
        while ids.len() < self.streams {
            let id = format!("{prefix}-{candidate:03}");
            candidate += 1;
            if sofia_fleet::shard_of(&id, self.shards) == ids.len() % self.shards {
                ids.push(id);
            }
        }
        ids
    }
}
