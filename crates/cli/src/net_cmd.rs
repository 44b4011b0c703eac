//! The `serve` and `client` subcommands: the fleet engine behind a TCP
//! endpoint, and a shell client driving a remote fleet.
//!
//! ```text
//! sofia-cli serve  --bind 127.0.0.1:7411 [--advertise ADDR] [--recover]
//!                  [--empty] [--cluster EP0,EP1,...] [--slow-request-us N]
//!                  [fleet workload flags]
//! sofia-cli client --connect 127.0.0.1:7411 [--stats] [--metrics]
//!                  [--json | --prom] [--timeout-secs N] [--stream ID]
//!                  [--query "forecast 4"] [--ingest N] [--top-drift K]
//!                  [--shutdown]
//! ```
//!
//! `serve` warm-starts the same synthetic workload `fleet` uses (or
//! recovers a previous run's checkpoint directory with `--recover`, or
//! starts empty with `--empty` — cluster members receive their streams
//! over the wire), registers it, and serves until a client sends a
//! `shutdown` frame; `--cluster` makes the handshake advertise the
//! deployment spec's full shard map.
//! `client` connects, runs its requested operations in a fixed order
//! (stats → metrics → ingest → query → top-drift → shutdown, so a query
//! in the same invocation observes the ingested slices), and prints
//! what came back. `--metrics` collects every cluster member's
//! [`NetStats`] node-health snapshot and prints the per-node rows plus
//! the fleet-wide merge — as a human table by default, as JSON with
//! `--json`, or as a Prometheus text exposition with `--prom` (per-node
//! series only; Prometheus aggregates across label values itself).
//! `--top-drift K` sweeps every warm stream with one batched
//! `quantile forecast_error 0.99` — routed through the cluster-capable
//! path, so it spans all members of a sharded deployment — and prints
//! the K streams drifting hardest.

use crate::commands::CmdResult;
use crate::fleet_cmd::{fmt_q, fmt_us, validate, warm_start, FleetOpts};
use sofia_datagen::stream::TensorStream;
use sofia_fleet::{CheckpointPolicy, Fleet, FleetConfig, MetricKind, Query, QueryResponse};
use sofia_net::{Client, ClusterClient, ClusterMetrics, NetStats, Server, ServerConfig, ShardMap};
use sofia_tensor::ObservedTensor;
use std::time::Duration;

/// Builds the serve-side engine config from the shared workload opts.
fn engine_config(opts: &FleetOpts) -> FleetConfig {
    FleetConfig {
        shards: opts.shards,
        queue_capacity: opts.queue,
        checkpoint: opts
            .checkpoint_dir
            .as_ref()
            .map(|dir| CheckpointPolicy::new(dir, opts.checkpoint_every)),
        evict_idle_after: opts.evict_idle,
    }
}

/// Entry point of `sofia-cli serve`.
///
/// `cluster` is the deployment spec's full endpoint list (empty for a
/// standalone server): when given, the handshake advertises the
/// deterministic round-robin [`ShardMap`] over those endpoints —
/// `opts.shards` route slots per node — so a `ClusterClient` can
/// bootstrap from any member. `advertise` is the name clients reach
/// this node by when it differs from `bind` (a server bound to
/// `0.0.0.0` or behind a hostname); the cluster membership check runs
/// against it. `empty` starts with no warm streams (cluster members
/// usually receive their streams over the wire). `slow_request_us`
/// overrides the slow-request ring threshold (`0` captures every
/// request — smoke-test mode); `None` keeps the server default.
pub fn serve(
    opts: &FleetOpts,
    bind: &str,
    advertise: Option<String>,
    recover: bool,
    cluster: &[String],
    empty: bool,
    slow_request_us: Option<u64>,
) -> CmdResult {
    validate(opts)?;
    if recover && opts.checkpoint_dir.is_none() {
        return Err("--recover requires --checkpoint-dir".into());
    }
    if recover && empty {
        return Err("--recover and --empty conflict: recovery restores the \
                    checkpointed streams, an empty server starts with none"
            .into());
    }
    // The name this node goes by in shard maps: --advertise when
    // given (multi-host deployments bind 0.0.0.0 but are reached by
    // hostname), the bind address otherwise.
    let advertised = advertise.as_deref().unwrap_or(bind);
    if !cluster.is_empty() && !cluster.iter().any(|ep| ep == advertised) {
        return Err(format!(
            "--cluster list must contain this node's advertised address `{advertised}` \
             (set --advertise when it differs from --bind)"
        )
        .into());
    }

    let fleet = if recover {
        let (fleet, n) = Fleet::recover(engine_config(opts))?;
        println!(
            "serve: recovered {n} streams from {}",
            opts.checkpoint_dir.as_ref().expect("checked").display()
        );
        fleet
    } else if empty {
        println!("serve: starting empty (streams register over the wire)");
        Fleet::new(engine_config(opts))?
    } else {
        let fleet = Fleet::new(engine_config(opts))?;
        let (models, _streams, startup_len) = warm_start(opts);
        for (i, model) in models.iter().enumerate() {
            fleet.register(&format!("stream-{i:04}"), model.handle())?;
        }
        println!(
            "serve: registered {} warm streams (startup window {startup_len}); \
             clients drive ingest from slice index {startup_len}",
            models.len()
        );
        fleet
    };

    // When a name was validated above (explicit --advertise, or a
    // cluster spec naming this node), hand the server that exact name —
    // re-deriving it from the resolved bind address could disagree
    // (`localhost` vs `127.0.0.1`). A plain standalone serve passes
    // None so the server advertises its *resolved* address (an
    // ephemeral `--bind 127.0.0.1:0` must not advertise port 0).
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        advertise: (advertise.is_some() || !cluster.is_empty()).then(|| advertised.to_string()),
        cluster: (!cluster.is_empty()).then(|| ShardMap::round_robin(cluster, opts.shards)),
        slow_request_us: slow_request_us.unwrap_or(defaults.slow_request_us),
        ..defaults
    };
    let server = Server::bind_with(bind, fleet, config)?;
    if let Some(map) = (!cluster.is_empty()).then(|| server.shard_map()) {
        println!(
            "serve: cluster member {advertised} ({} of {} route slots here)",
            map.endpoints()
                .iter()
                .filter(|ep| *ep == advertised)
                .count(),
            map.shards()
        );
    }
    println!(
        "serve: listening on {} ({} shards); send a `shutdown` frame \
         (sofia-cli client --connect {} --shutdown) to stop",
        server.local_addr(),
        server.shard_map().shards(),
        server.local_addr()
    );
    let checkpoints = server.run()?;
    println!("serve: graceful shutdown, wrote {checkpoints} final checkpoints");
    Ok(())
}

/// Parameters of one `client` invocation.
pub struct ClientOpts {
    /// Server address.
    pub connect: String,
    /// Print fleet-wide stats.
    pub stats: bool,
    /// Collect and print the cluster-wide node-health rollup
    /// (per-node [`NetStats`] plus the merged fleet view).
    pub metrics: bool,
    /// Print `--metrics` as JSON instead of the human table.
    pub json: bool,
    /// Print `--metrics` as a Prometheus text exposition.
    pub prom: bool,
    /// Reply-read timeout in seconds for the direct connection
    /// (`0` = block forever); `None` keeps the client default.
    pub timeout_secs: Option<u64>,
    /// Stream to query/ingest against.
    pub stream: Option<String>,
    /// One-line query wire form (e.g. `forecast 4`, `latest`).
    pub query: Option<String>,
    /// Ingest this many synthetic slices into `--stream` (deterministic;
    /// a smoke-test data plane, not a workload).
    pub ingest: usize,
    /// Slice dimensions for `--ingest`; must match what the serving
    /// model expects (defaults to the `serve` default of 12,10).
    pub dims: Vec<usize>,
    /// Print the K streams with the highest forecast-error p99 (0 =
    /// off). Sweeps the whole fleet with one batched quantile query
    /// through the cluster-capable path.
    pub top_drift: usize,
    /// Ask the server to shut down gracefully at the end.
    pub shutdown: bool,
}

/// Entry point of `sofia-cli client`.
pub fn client(opts: &ClientOpts) -> CmdResult {
    if opts.json && opts.prom {
        return Err("--json and --prom are mutually exclusive".into());
    }
    if (opts.json || opts.prom) && !opts.metrics {
        return Err("--json/--prom format --metrics output; add --metrics".into());
    }
    // Machine-readable metrics modes keep stdout parseable: no banner.
    let machine = opts.json || opts.prom;
    let mut client = Client::connect_as(&opts.connect, "sofia-cli")?;
    if let Some(secs) = opts.timeout_secs {
        client.set_read_timeout((secs > 0).then(|| Duration::from_secs(secs)))?;
    }
    if !machine {
        println!(
            "client: connected to {} ({} shards in the handshake shard map)",
            opts.connect,
            client.shard_map().shards()
        );
    }

    if opts.stats {
        let stats = client.stats()?;
        println!(
            "stats: {} resident streams over {} shards, {} steps applied, \
             {} queries answered ({} batched round-trips), {} dropped, \
             {} checkpoint failures, {} quarantines",
            stats.streams(),
            stats.shards.len(),
            stats.steps(),
            stats.queries().total(),
            stats.query_batches(),
            stats.dropped(),
            stats.checkpoint_failures(),
            stats.quarantines()
        );
        let latency = stats.ingest_latency();
        let drift = stats.forecast_error();
        println!(
            "stats: ingest latency p50 {} / p99 {} / p999 {} over {} steps; \
             forecast drift p50 {} / p99 {} over {} residuals",
            fmt_us(latency.p50()),
            fmt_us(latency.p99()),
            fmt_us(latency.p999()),
            latency.count(),
            fmt_q(drift.p50()),
            fmt_q(drift.p99()),
            drift.count()
        );
    }

    if opts.metrics {
        // The rollup spans every cluster member the handshake map
        // names, so point-and-ask works against any seed node.
        let mut cluster = ClusterClient::connect_as(&opts.connect, "sofia-cli")?;
        let report = cluster.metrics()?;
        if opts.json {
            print_metrics_json(&report);
        } else if opts.prom {
            print_metrics_prom(&report);
        } else {
            print_metrics_human(&report);
        }
    }

    if opts.ingest > 0 {
        let stream = opts.stream.as_deref().ok_or("--ingest needs --stream")?;
        // Deterministic smoke slices; real deployments ship their own.
        let s = sofia_datagen::seasonal::SeasonalStream::paper_fig2(&opts.dims, 2, 4, 77);
        let slices: Vec<ObservedTensor> = (0..opts.ingest)
            .map(|t| ObservedTensor::fully_observed(s.clean_slice(t)))
            .collect();
        let retries = client.ingest_blocking(stream, slices)?;
        client.flush()?;
        println!(
            "ingest: {} slices applied to `{stream}` ({retries} backpressure \
             retries); flush makes them visible to every later query",
            opts.ingest
        );
    }

    if let Some(query_line) = &opts.query {
        let stream = opts.stream.as_deref().ok_or("--query needs --stream")?;
        let query = Query::from_wire(query_line)?;
        match client.query(stream, query)? {
            QueryResponse::Latest(out) => match out {
                Some(step) => println!(
                    "latest: |x| = {:.4} over {:?} (outliers: {})",
                    step.completed.frobenius_norm(),
                    step.completed.shape().dims(),
                    step.outliers.is_some()
                ),
                None => println!("latest: none (stream has not stepped yet)"),
            },
            QueryResponse::Forecast(fc) => match fc {
                Some(f) => println!(
                    "forecast: |x| = {:.4} over {:?}",
                    f.frobenius_norm(),
                    f.shape().dims()
                ),
                None => println!("forecast: none (model does not forecast)"),
            },
            QueryResponse::OutlierMask(m) => match m {
                Some(mask) => println!(
                    "outlier-mask: {} of {} entries flagged",
                    (0..mask.shape().len())
                        .filter(|&i| mask.is_observed_flat(i))
                        .count(),
                    mask.shape().len()
                ),
                None => println!("outlier-mask: none"),
            },
            QueryResponse::StreamStats(stats) => println!(
                "stream-stats: `{}` served by {} on shard {}, {} steps, \
                 latency p50 {} / p99 {}, drift p99 {}",
                stats.stream,
                stats.model,
                stats.shard,
                stats.steps,
                fmt_us(stats.ingest_latency.p50()),
                fmt_us(stats.ingest_latency.p99()),
                fmt_q(stats.forecast_error.p99())
            ),
            QueryResponse::Quantile(value) => match value {
                Some(v) => println!("quantile: {v}"),
                None => println!("quantile: none (no observations yet)"),
            },
        }
    }

    if opts.top_drift > 0 {
        top_drift(&opts.connect, opts.top_drift)?;
    }

    if opts.shutdown {
        client.shutdown_server()?;
        println!("shutdown: server acknowledged and is draining");
    }
    Ok(())
}

/// The `--top-drift K` sweep: one `quantile forecast_error 0.99` per
/// warm stream, batched and routed through [`ClusterClient`] so the
/// sweep spans every member of a sharded deployment, then the K
/// hardest-drifting streams printed in descending order.
///
/// Stream ids follow the `serve` warm-start naming (`stream-0000`,
/// `stream-0001`, ...); streams a deployment registered under other
/// names simply come back as routing errors and are skipped, as are
/// streams with no residuals yet.
fn top_drift(seed: &str, k: usize) -> CmdResult {
    let mut cluster = ClusterClient::connect_as(seed, "sofia-cli")?;
    let stats = cluster.stats()?;
    // Evicted streams are still registered (and lazily restored by a
    // query), so the sweep covers them too.
    let total = stats.streams() + stats.evicted();
    if total == 0 {
        println!("top-drift: no streams registered");
        return Ok(());
    }
    let ids: Vec<String> = (0..total).map(|i| format!("stream-{i:04}")).collect();
    let requests: Vec<(&str, Query)> = ids
        .iter()
        .map(|id| {
            (
                id.as_str(),
                Query::Quantile {
                    metric: MetricKind::ForecastError,
                    q: 0.99,
                },
            )
        })
        .collect();
    let replies = cluster.query_batch(&requests)?;

    let mut ranked: Vec<(f64, &str)> = Vec::new();
    let mut skipped = 0usize;
    for (id, reply) in ids.iter().zip(replies) {
        match reply {
            Ok(QueryResponse::Quantile(Some(v))) if v.is_finite() => ranked.push((v, id)),
            _ => skipped += 1,
        }
    }
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    println!(
        "top-drift: forecast-error p99 across {} streams ({} without \
         residuals or unknown)",
        total, skipped
    );
    for (rank, (v, id)) in ranked.iter().take(k).enumerate() {
        println!("top-drift: #{:<2} {id}  p99 {}", rank + 1, fmt_q(Some(*v)));
    }
    Ok(())
}

/// Slow-request records printed per view before eliding the rest —
/// the ring can legitimately hold tens of thousands in smoke mode.
const MAX_SLOW_PRINTED: usize = 16;

/// The default `--metrics` view: one row per node, then the fleet-wide
/// merge (counters summed, highwater maxed, latency sketches merged).
fn print_metrics_human(report: &ClusterMetrics) {
    for node in &report.nodes {
        let ep = node.endpoint.as_deref().unwrap_or("?");
        println!(
            "metrics: node {ep}: {} accepted / {} closed / {} active; \
             {} frames decoded, {} decode errors; settle p99 {} over {} requests",
            node.accepted,
            node.closed,
            node.active,
            node.frames_decoded,
            node.decode_errors,
            fmt_us(node.settle_latency.p99()),
            node.settle_latency.count()
        );
    }
    let m = report.merged();
    println!(
        "metrics: fleet: {} accepted / {} closed / {} active connections \
         across {} node(s)",
        m.accepted,
        m.closed,
        m.active,
        report.nodes.len()
    );
    println!(
        "metrics: fleet: {} frames decoded, {} decode errors, \
         {} read-interest drops, write-buffer highwater {} B",
        m.frames_decoded, m.decode_errors, m.read_interest_drops, m.write_buffer_highwater
    );
    println!(
        "metrics: fleet: {} poll iterations, {} wakeups",
        m.poll_iterations, m.wakeups
    );
    let lat = &m.settle_latency;
    println!(
        "metrics: settle latency p50 {} / p99 {} / p999 {} (mean {}) \
         over {} requests",
        fmt_us(lat.p50()),
        fmt_us(lat.p99()),
        fmt_us(lat.p999()),
        fmt_us(lat.moments().mean()),
        lat.count()
    );
    println!(
        "metrics: slow ring: {} record(s) at/over the {} µs threshold \
         ({} evicted)",
        m.slow.len(),
        m.slow_threshold_us,
        m.slow_dropped
    );
    for (i, r) in m.slow.iter().take(MAX_SLOW_PRINTED).enumerate() {
        println!(
            "metrics: slow #{:<2} {} {} conn {} {} µs",
            i + 1,
            r.verb,
            r.stream.as_deref().unwrap_or("-"),
            r.conn,
            r.latency_us
        );
    }
    if m.slow.len() > MAX_SLOW_PRINTED {
        println!(
            "metrics: slow ... {} more (use --json for all)",
            m.slow.len() - MAX_SLOW_PRINTED
        );
    }
}

/// A string as a JSON string literal (the escapes the wire can carry:
/// stream ids are percent-encoded upstream, endpoints are addresses).
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An optional latency quantile as a JSON number or `null`.
fn jus(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v:.3}"),
        _ => "null".into(),
    }
}

/// One [`NetStats`] as a JSON object, indented for the report layout.
fn json_stats(s: &NetStats, pad: &str) -> String {
    let lat = &s.settle_latency;
    let slow: Vec<String> = s
        .slow
        .iter()
        .map(|r| {
            format!(
                "{{ \"verb\": {}, \"stream\": {}, \"conn\": {}, \"latency_us\": {} }}",
                jstr(&r.verb),
                r.stream.as_deref().map_or("null".into(), jstr),
                r.conn,
                r.latency_us
            )
        })
        .collect();
    let endpoint = s.endpoint.as_deref().map_or("null".into(), jstr);
    format!(
        "{{\n\
         {pad}  \"endpoint\": {endpoint},\n\
         {pad}  \"accepted\": {}, \"closed\": {}, \"active\": {},\n\
         {pad}  \"frames_decoded\": {}, \"decode_errors\": {},\n\
         {pad}  \"read_interest_drops\": {}, \"write_buffer_highwater\": {},\n\
         {pad}  \"poll_iterations\": {}, \"wakeups\": {},\n\
         {pad}  \"settle_latency_us\": {{ \"count\": {}, \"mean\": {}, \
         \"p50\": {}, \"p99\": {}, \"p999\": {} }},\n\
         {pad}  \"slow_threshold_us\": {}, \"slow_dropped\": {},\n\
         {pad}  \"slow\": [{}]\n\
         {pad}}}",
        s.accepted,
        s.closed,
        s.active,
        s.frames_decoded,
        s.decode_errors,
        s.read_interest_drops,
        s.write_buffer_highwater,
        s.poll_iterations,
        s.wakeups,
        lat.count(),
        jus(lat.moments().mean()),
        jus(lat.p50()),
        jus(lat.p99()),
        jus(lat.p999()),
        s.slow_threshold_us,
        s.slow_dropped,
        slow.join(", "),
    )
}

/// `--metrics --json`: the full rollup — every node's snapshot plus
/// the merged fleet view — as one JSON document on stdout.
fn print_metrics_json(report: &ClusterMetrics) {
    let nodes: Vec<String> = report
        .nodes
        .iter()
        .map(|n| format!("    {}", json_stats(n, "    ")))
        .collect();
    println!(
        "{{\n  \"nodes\": [\n{}\n  ],\n  \"merged\": {}\n}}",
        nodes.join(",\n"),
        json_stats(&report.merged(), "  ")
    );
}

/// One Prometheus series: metric name, help text, field reader.
type PromSeries = (&'static str, &'static str, fn(&NetStats) -> u64);

/// `--metrics --prom`: Prometheus text exposition, one series per node
/// keyed by the `endpoint` label. Only per-node series are emitted —
/// Prometheus aggregates across label values itself, and exporting the
/// merged view alongside would double-count on `sum()`.
fn print_metrics_prom(report: &ClusterMetrics) {
    let counters: &[PromSeries] = &[
        (
            "sofia_net_connections_accepted_total",
            "Connections handed from the acceptor to the event loop.",
            |s| s.accepted,
        ),
        (
            "sofia_net_connections_closed_total",
            "Connections torn down (EOF, protocol fault, drain, reap).",
            |s| s.closed,
        ),
        (
            "sofia_net_frames_decoded_total",
            "Complete frames handed to the request parser.",
            |s| s.frames_decoded,
        ),
        (
            "sofia_net_decode_errors_total",
            "Off-protocol input: bad frames, non-UTF-8, malformed bodies.",
            |s| s.decode_errors,
        ),
        (
            "sofia_net_read_interest_drops_total",
            "Backpressure transitions that paused reading a connection.",
            |s| s.read_interest_drops,
        ),
        (
            "sofia_net_poll_iterations_total",
            "Poll calls across the acceptor and all event-loop workers.",
            |s| s.poll_iterations,
        ),
        (
            "sofia_net_wakeups_total",
            "Polls interrupted by an explicit cross-thread wake.",
            |s| s.wakeups,
        ),
        (
            "sofia_net_slow_requests_dropped_total",
            "Slow-request records evicted from the bounded ring.",
            |s| s.slow_dropped,
        ),
    ];
    for (name, help, read) in counters {
        println!("# HELP {name} {help}");
        println!("# TYPE {name} counter");
        for node in &report.nodes {
            let ep = node.endpoint.as_deref().unwrap_or("?");
            println!("{name}{{endpoint={}}} {}", jstr(ep), read(node));
        }
    }
    let gauges: &[PromSeries] = &[
        (
            "sofia_net_connections_active",
            "Connections currently owned by event-loop workers.",
            |s| s.active,
        ),
        (
            "sofia_net_write_buffer_highwater_bytes",
            "Largest buffered-outgoing-bytes peak any connection reached.",
            |s| s.write_buffer_highwater,
        ),
        (
            "sofia_net_slow_request_threshold_microseconds",
            "Slow-request capture threshold.",
            |s| s.slow_threshold_us,
        ),
        (
            "sofia_net_slow_requests_ringsize",
            "Slow-request records currently held in the ring.",
            |s| s.slow.len() as u64,
        ),
    ];
    for (name, help, read) in gauges {
        println!("# HELP {name} {help}");
        println!("# TYPE {name} gauge");
        for node in &report.nodes {
            let ep = node.endpoint.as_deref().unwrap_or("?");
            println!("{name}{{endpoint={}}} {}", jstr(ep), read(node));
        }
    }
    let name = "sofia_net_settle_latency_microseconds";
    println!("# HELP {name} Wire-to-settle latency of settled requests.");
    println!("# TYPE {name} summary");
    for node in &report.nodes {
        let ep = node.endpoint.as_deref().unwrap_or("?");
        let lat = &node.settle_latency;
        for (q, v) in [
            ("0.5", lat.p50()),
            ("0.99", lat.p99()),
            ("0.999", lat.p999()),
        ] {
            if let Some(v) = v {
                println!("{name}{{endpoint={},quantile=\"{q}\"}} {v}", jstr(ep));
            }
        }
        println!(
            "{name}_sum{{endpoint={}}} {}",
            jstr(ep),
            lat.moments().sum()
        );
        println!("{name}_count{{endpoint={}}} {}", jstr(ep), lat.count());
    }
}
