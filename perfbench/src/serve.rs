//! Set-up of the served stack and the wire operations the load sends.

use crate::inputs::Source;
use crate::ledger::{Acct, Ledger};
use crate::workload::Workload;
use sofia_core::snapshot::wrap;
use sofia_core::Sofia;
use sofia_fleet::{
    CheckpointPolicy, Fleet, FleetConfig, MetricKind, Query, QueryResponse, SnapshotModel,
};
use sofia_net::{Client, Server};
use sofia_tensor::{DenseTensor, ObservedTensor};
use std::path::Path;
use std::time::Instant;

pub struct Setup {
    pub server: Server,
    pub client: Client,
    /// One model per source, as registered (the replicas start here).
    pub models: Vec<Sofia>,
    /// Seconds of model init.
    pub init_s: f64,
    /// Seconds of model init plus fleet creation, bind and registration.
    pub setup_s: f64,
    /// Resident memory just before the fleet was created (not timed).
    pub rss_base_kib: u64,
}

/// Resident set size of this process in KiB (0 where `/proc` is
/// absent), read after the allocator has returned its free pages, so
/// that it follows live memory rather than what the allocator caches.
pub fn rss_kib() -> u64 {
    release_free_memory();
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers; it only hands free
    // heap pages back to the kernel and may be called at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// Algorithm 1 start-up for every source, on two threads.
fn init_models(workload: &Workload, sources: &[Source]) -> Vec<Sofia> {
    let config = workload.config();
    let half = sources.len().div_ceil(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .chunks(half)
            .map(|chunk| {
                let config = &config;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|s| {
                            Sofia::init(config, &s.startup, s.init_seed).expect("start-up window")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("init thread"))
            .collect()
    })
}

pub fn fleet_config(workload: &Workload, dir: &Path) -> FleetConfig {
    FleetConfig {
        shards: workload.shards,
        checkpoint: workload
            .checkpoint_every
            .map(|every| CheckpointPolicy::new(dir, every)),
        ..FleetConfig::default()
    }
}

/// The checkpoint envelope `ModelHandle::checkpoint_text` writes for a
/// SOFIA model, made from a borrowed model (no copy of its start-up
/// tensors).
pub fn envelope(model: &Sofia) -> String {
    wrap(
        model.snapshot_kind(),
        model.dynamic().steps() as u64,
        &model.snapshot(),
    )
}

/// Model init for every source, then fleet creation, server bind and
/// registration of every stream over the wire.
pub fn setup(
    workload: &Workload,
    sources: &[Source],
    ids: &[String],
    dir: &Path,
    ledger: &mut Ledger,
) -> Result<Setup, String> {
    let start = Instant::now();
    let models = init_models(workload, sources);
    let init_s = start.elapsed().as_secs_f64();
    let rss_base_kib = rss_kib();
    let start = Instant::now();
    let fleet = Fleet::new(fleet_config(workload, dir)).map_err(|e| format!("fleet: {e}"))?;
    let server = Server::bind("127.0.0.1:0", fleet).map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let envelopes: Vec<String> = models.iter().map(envelope).collect();
    for (i, id) in ids.iter().enumerate() {
        let env = &envelopes[workload.source_of(i)];
        // The reply says whether the stream was persisted on arrival.
        let durable = ledger
            .setup
            .record("register", client.register_envelope(id, env));
        if durable != Some(workload.checkpoint_every.is_some()) {
            return Err(format!("registering `{id}` failed"));
        }
    }
    Ok(Setup {
        server,
        client,
        models,
        init_s,
        setup_s: init_s + start.elapsed().as_secs_f64(),
        rss_base_kib,
    })
}

/// Sends one slice, retrying backpressure hand-backs in order.
pub fn ingest(client: &mut Client, id: &str, slice: ObservedTensor, acct: &mut Acct) -> bool {
    acct.attempted += 1;
    let mut batch = vec![slice];
    loop {
        match client.ingest(id, batch) {
            Ok(report) => {
                acct.accepted += report.accepted;
                if report.rejected.is_empty() {
                    acct.succeeded += 1;
                    return true;
                }
                acct.retries += 1;
                acct.backpressured += report.rejected.len() as u64;
                batch = report.rejected.into_iter().map(|(_, s)| s).collect();
                std::thread::yield_now();
            }
            Err(e) => {
                acct.error("ingest", &e);
                return false;
            }
        }
    }
}

pub fn flush(client: &mut Client, acct: &mut Acct) -> bool {
    acct.record("flush", client.flush()).is_some()
}

/// Read `j` of the mix: its stream, its kind (0 the forecast-error p99,
/// 1 `latest`, 2 `forecast`) and the query. The small read comes first,
/// after a tick's `flush`, so that it never follows a large reply.
pub fn read_query(j: usize, workload: &Workload) -> (usize, usize, Query) {
    let stream = (j / 3) % workload.streams;
    let kind = j % 3;
    let query = match kind {
        0 => Query::Quantile {
            metric: MetricKind::ForecastError,
            q: 0.99,
        },
        1 => Query::Latest,
        _ => Query::Forecast {
            horizon: workload.horizon,
        },
    };
    (stream, kind, query)
}

/// Sends one read and checks the answer has the asked-for kind and a
/// value.
pub fn query(client: &mut Client, id: &str, q: Query, acct: &mut Acct) -> bool {
    let Some(resp) = acct.record("query", client.query(id, q)) else {
        return false;
    };
    let ok = match resp {
        QueryResponse::Latest(Some(out)) => !out.completed.is_empty(),
        QueryResponse::Forecast(Some(f)) => !f.is_empty(),
        QueryResponse::Quantile(Some(v)) => v.is_finite(),
        _ => false,
    };
    if !ok {
        acct.wrong("query");
    }
    ok
}

fn same_bits(a: &DenseTensor, b: &DenseTensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The output check: each stream's served `latest` (reconstruction and
/// outliers) and `forecast` must equal its source replica's bit for bit.
pub fn check_outputs(
    client: &mut Client,
    workload: &Workload,
    ids: &[String],
    last: &[Option<(DenseTensor, DenseTensor)>],
    forecasts: &[DenseTensor],
    acct: &mut Acct,
) {
    for (i, id) in ids.iter().enumerate() {
        let src = workload.source_of(i);
        let latest = acct.record("check latest", client.query(id, Query::Latest));
        if let Some(resp) = latest {
            let matches = match (resp, &last[src]) {
                (QueryResponse::Latest(Some(out)), Some((completed, outliers))) => {
                    same_bits(&out.completed, completed)
                        && out
                            .outliers
                            .as_ref()
                            .is_some_and(|o| same_bits(o, outliers))
                }
                _ => false,
            };
            if !matches {
                acct.wrong(&format!("`{id}` latest differs from the in-process replay"));
            }
        }
        let horizon = workload.horizon;
        let forecast = acct.record(
            "check forecast",
            client.query(id, Query::Forecast { horizon }),
        );
        if let Some(resp) = forecast {
            let matches = matches!(resp, QueryResponse::Forecast(Some(ref f)) if same_bits(f, &forecasts[src]));
            if !matches {
                acct.wrong(&format!(
                    "`{id}` forecast differs from the in-process replay"
                ));
            }
        }
    }
}
