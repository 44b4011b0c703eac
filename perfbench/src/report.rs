//! The metrics of a run: end-to-end ones from an untraced run, per-layer
//! ones (and the peel) from a traced run, and the JSON result line.

use crate::drive::Log;
use crate::ledger::{Acct, Ledger};
use crate::replica::Replica;
use crate::trace::Tracer;
use sofia_fleet::FleetStats;
use sofia_net::NetStats;
use std::collections::BTreeMap;

/// The peel reconciles when the unattributed remainder is within this
/// share of the per-slice end-to-end time.
const PEEL_TOLERANCE: f64 = 0.25;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub fn result_json(correct: bool, total: &Acct, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a metric without a value is 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.attempted,
        total.bad(),
        body.join(", ")
    )
}

/// Linear-interpolated quantile of `values` (`NaN` when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Percentile of tick, read and reference latency that the end-to-end
/// metrics report. A shared host changes speed from second to second, by
/// up to 2x, so the median and the tail of a run follow the host; the low
/// end of the distribution is what an operation costs when the host
/// leaves it alone, and moves with the program.
const FLOOR_Q: f64 = 0.02;

/// The end-to-end metrics. Each latency floor is divided by the floor of
/// the reference operation (see `calib.rs`) measured in the same run:
/// over minutes the host's speed drifts by up to 1.5x, which moves the
/// floors too, and the reference moves with it.
pub fn end_to_end(setup_s: &[f64], log: &Log, rss_base_kib: u64) -> Vec<Metric> {
    let [stats, latest, forecast] = &log.query_us;
    eprintln!(
        "perfbench: {} ticks, {} + {} + {} reads and {} reference operations measured; \
         set-ups took {setup_s:.3?} s",
        log.tick_us.len(),
        stats.len(),
        latest.len(),
        forecast.len(),
        log.ref_us.len(),
    );
    for m in distribution(log) {
        eprintln!(
            "perfbench: distribution {:<20} {:>14.3} {}",
            m.name, m.value, m.unit
        );
    }
    let reference = quantile(&log.ref_us, FLOOR_Q);
    let rel = |v: &[f64]| quantile(v, FLOOR_Q) / reference;
    vec![
        metric("setup_s", quantile(setup_s, 0.5), "s"),
        metric("step_p2_ref", rel(&log.tick_us), "ref"),
        metric("latest_p2_ref", rel(latest), "ref"),
        metric("forecast_p2_ref", rel(forecast), "ref"),
        metric("quantile_p2_ref", rel(stats), "ref"),
        metric(
            "serve_rss_mb",
            (quantile(&log.rss_kib, FLOOR_Q) - rss_base_kib as f64) / 1024.0,
            "MB",
        ),
    ]
}

/// The latencies as measured: their floors, throughput, and the middle
/// and tail as a user of the server sees them on the host at hand.
fn distribution(log: &Log) -> Vec<Metric> {
    let [stats, latest, forecast] = &log.query_us;
    let reads = log.query_us.concat();
    vec![
        metric("ref_p2_us", quantile(&log.ref_us, FLOOR_Q), "us"),
        metric("step_p2_ms", quantile(&log.tick_us, FLOOR_Q) / 1e3, "ms"),
        metric("latest_p2_us", quantile(latest, FLOOR_Q), "us"),
        metric("forecast_p2_us", quantile(forecast, FLOOR_Q), "us"),
        metric("quantile_p2_us", quantile(stats, FLOOR_Q), "us"),
        metric(
            "ingest_slices_per_s",
            log.slices as f64 / log.ingest_wall.as_secs_f64(),
            "slices/s",
        ),
        metric("step_p50_ms", quantile(&log.tick_us, 0.5) / 1e3, "ms"),
        metric("step_p95_ms", quantile(&log.tick_us, 0.95) / 1e3, "ms"),
        metric("step_p99_ms", quantile(&log.tick_us, 0.99) / 1e3, "ms"),
        metric("query_p50_us", quantile(&reads, 0.5), "us"),
        metric("query_p95_us", quantile(&reads, 0.95), "us"),
        metric("query_p99_us", quantile(&reads, 0.99), "us"),
    ]
}

/// What a traced run adds to an untraced one.
pub struct Traced {
    /// The client's spans around served calls, and the replay's spans
    /// around in-process calls.
    pub tracers: [Tracer; 2],
    /// The traced phase; the untraced phase before it is the baseline.
    pub log: Log,
    pub enqueue_accept_ratio: f64,
    pub frame_bytes: f64,
}

/// Mean quality of the replicas over their scored ticks.
fn quality(replicas: &[Replica], f: fn(&Replica) -> (f64, usize)) -> f64 {
    let (s, n) = replicas
        .iter()
        .map(f)
        .fold((0.0, 0), |(s, n), (a, b)| (s + a, n + b));
    s / n as f64
}

/// Prints each layer's self time over the traced run.
fn print_self_times(tracers: &[Tracer]) {
    for t in tracers {
        let mut by_layer = BTreeMap::<&str, f64>::new();
        for (s, own) in t.spans().iter().zip(t.self_us()) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_default() += own;
        }
        for (layer, own) in by_layer {
            eprintln!(
                "perfbench: self time, {:<6} {layer:<7} {own:>12.0} us",
                t.thread()
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    traced: &Traced,
    baseline: &Log,
    init_s: &[f64],
    replicas: &[Replica],
    ledger: &Ledger,
    stats: &FleetStats,
    net: &NetStats,
) -> Result<Vec<Metric>, String> {
    // Medians: the replay runs at another time than the served ticks,
    // and a median follows the host's changing speed less than a mean.
    let span_median = |name: &str| -> Result<f64, String> {
        let v: Vec<f64> = traced
            .tracers
            .iter()
            .flat_map(|t| t.durations_us(name))
            .collect();
        if v.is_empty() {
            return Err(format!("the traced run recorded no `{name}` span"));
        }
        Ok(quantile(&v, 0.5))
    };
    print_self_times(&traced.tracers);

    // The peel: each layer's cost per slice against one served slice.
    let slice_e2e = span_median("peel.probe")?;
    let update = span_median("core.update")?;
    let forecast1 = span_median("core.forecast1")?;
    let kruskal = span_median("tensor.kruskal")?;
    let apply = span_median("fleet.apply")?;
    let ingest_rt = span_median("net.ingest")?;
    let rt_floor = span_median("net.flush_rt")? - span_median("fleet.flush_idle")?;
    let peel = [
        ("tensor", kruskal),
        ("core", update + forecast1),
        ("fleet", apply - update - forecast1 - kruskal),
        // What serving adds, measured on other requests than the probe's:
        // an ingest round trip (codec and transport; the server answers
        // at enqueue, a few µs also counted in `fleet.apply`) and the
        // transport floor of the flush.
        ("net", ingest_rt + rt_floor),
    ];
    let attributed: f64 = peel.iter().map(|(_, v)| v).sum();
    let unattributed = (slice_e2e - attributed) / slice_e2e;
    for (layer, v) in peel {
        eprintln!(
            "perfbench: peel {layer:<7} {v:>10.1} us  {:>5.1}% of a {slice_e2e:.1} us slice",
            100.0 * v / slice_e2e
        );
    }
    let verdict = if unattributed.abs() <= PEEL_TOLERANCE {
        "reconciles"
    } else {
        "DOES NOT reconcile"
    };
    eprintln!(
        "perfbench: peel {verdict}: unattributed {:+.1}% (tolerance ±{:.0}%)",
        100.0 * unattributed,
        100.0 * PEEL_TOLERANCE
    );

    let ticks: f64 = replicas.iter().map(|r| r.ticks as f64).sum();
    let observed: f64 = replicas.iter().map(|r| r.observed as f64).sum();
    let outliers: f64 = replicas.iter().map(|r| r.outliers as f64).sum();
    let ingest = &ledger.ingest;
    let total = ledger.total();
    let mut metrics = vec![
        metric("core.update_us", update, "us"),
        metric("core.lemma2_share", update / slice_e2e, "ratio"),
        metric("core.step_us", update + kruskal, "us"),
        metric("core.forecast1_us", forecast1, "us"),
        metric("core.init_s", quantile(init_s, 0.5), "s"),
        metric("core.observed_entries", observed / ticks, "count"),
        metric("core.outlier_frac", outliers / observed, "ratio"),
        metric(
            "core.imputation_nre",
            quality(replicas, Replica::imputation_nre),
            "ratio",
        ),
        metric(
            "core.forecast_nre",
            quality(replicas, Replica::forecast_nre),
            "ratio",
        ),
        metric("tensor.kruskal_us", kruskal, "us"),
        metric("net.encode_us", span_median("net.encode")?, "us"),
        metric("net.decode_us", span_median("net.decode")?, "us"),
        metric("net.frame_bytes", traced.frame_bytes, "bytes"),
        metric("net.ingest_rt_us", ingest_rt, "us"),
        metric("net.query_rt_us", span_median("net.query")?, "us"),
        metric("net.rt_floor_us", rt_floor, "us"),
        metric(
            "net.settle_p50_us",
            net.settle_latency.p50().unwrap_or(f64::NAN),
            "us",
        ),
        metric(
            "net.poll_per_frame",
            net.poll_iterations as f64 / net.frames_decoded as f64,
            "ratio",
        ),
        metric(
            "net.read_interest_drops",
            net.read_interest_drops as f64,
            "count",
        ),
        metric(
            "net.ingest_accept_ratio",
            ingest.accepted as f64 / (ingest.accepted + ingest.backpressured) as f64,
            "ratio",
        ),
        metric("fleet.apply_us", apply, "us"),
        metric("fleet.enqueue_us", span_median("fleet.enqueue")?, "us"),
        metric(
            "fleet.enqueue_accept_ratio",
            traced.enqueue_accept_ratio,
            "ratio",
        ),
        metric("fleet.flush_us", span_median("fleet.flush")?, "us"),
        metric(
            "fleet.queue_depth_max",
            stats.shards.iter().map(|s| s.max_batch).max().unwrap_or(0) as f64,
            "count",
        ),
        metric("fleet.dropped", stats.dropped() as f64, "count"),
        metric("fleet.checkpoint_us", span_median("fleet.checkpoint")?, "us"),
        metric(
            "fleet.query_latest_us",
            span_median("fleet.query_latest")?,
            "us",
        ),
        metric(
            "fleet.query_forecast_us",
            span_median("fleet.query_forecast")?,
            "us",
        ),
        metric("sketch.stats_us", span_median("sketch.stats")?, "us"),
        metric(
            "trace.overhead_frac",
            quantile(&traced.log.tick_us, 0.5) / quantile(&baseline.tick_us, 0.5) - 1.0,
            "ratio",
        ),
        metric("unattributed_frac", unattributed, "ratio"),
        metric(
            "deadline_miss_frac",
            baseline.misses as f64 / baseline.tick_us.len() as f64,
            "ratio",
        ),
        metric(
            "ops_failed_frac",
            total.bad() as f64 / total.attempted as f64,
            "ratio",
        ),
    ];
    metrics.extend(distribution(baseline));
    Ok(metrics)
}
