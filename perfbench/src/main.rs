//! The SOFIA serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nyc-sparse|intel-fleet|chicago-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, sets up an in-process
//! `sofia_net::Server` over loopback TCP, drives it for `--seconds`,
//! checks every served output against an in-process replay, and prints
//! one JSON result as the last line of standard output: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `perfbench/README.md`.

mod calib;
mod drive;
mod inputs;
mod ledger;
mod replica;
mod report;
mod serve;
mod trace;
mod workload;

use drive::{Ctx, Cursor, Log, Peeler};
use ledger::Ledger;
use replica::{catch_up, Replica};
use serve::Setup;
use sofia_fleet::Fleet;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::Workload;

const USAGE: &str = "usage: sofia-perfbench --workload <nyc-sparse|intel-fleet|chicago-mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";
/// Run outputs (span files, temporary checkpoints), relative to the
/// directory the benchmark runs in.
const OUT_DIR: &str = ".bench_out";
/// Ticks of the traced phase replayed layer by layer (the rest are
/// replayed untraced, for the output check).
const REPLAY_TICKS: usize = 200;
/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPS: usize = 3;
/// Share of a traced run driven untraced first, as the baseline of the
/// tracing overhead.
const TRACE_BASELINE_SHARE: f64 = 0.4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::named(&args.workload) else {
        eprintln!("perfbench: unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let run_dir = Path::new(OUT_DIR).join(format!("{}-{}", workload.name, std::process::id()));
    let outcome = measure(&workload, &args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match outcome {
        Ok((metrics, ledger)) => {
            let total = ledger.total();
            for (phase, a) in ledger.phases() {
                eprintln!(
                    "perfbench: {phase:<6} attempted {:>7} succeeded {:>7} failed {} refused {} \
                     wrong {} backpressure-retries {} (slices handed back {})",
                    a.attempted,
                    a.succeeded,
                    a.failed,
                    a.refused,
                    a.wrong,
                    a.retries,
                    a.backpressured
                );
            }
            let correct = total.bad() == 0;
            for m in &metrics {
                println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", report::result_json(correct, &total, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: output check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the workload and returns the metrics for the run's mode.
fn measure(
    workload: &Workload,
    args: &Args,
    run_dir: &Path,
) -> Result<(Vec<report::Metric>, Ledger), String> {
    let generated = Instant::now();
    let sources = inputs::generate(workload, args.seed);
    eprintln!(
        "perfbench: {} inputs for seed {} generated in {:.2} s",
        workload.name,
        args.seed,
        generated.elapsed().as_secs_f64()
    );
    let ids = workload.stream_ids();
    let ctx = Ctx {
        workload,
        sources: &sources,
        ids: &ids,
    };
    let mut ledger = Ledger::default();
    let Setup {
        server,
        mut client,
        models,
        init_s,
        setup_s,
        rss_base_kib,
    } = serve::setup(
        workload,
        &sources,
        &ids,
        &run_dir.join("served-0"),
        &mut ledger,
    )?;
    let mut init_s = vec![init_s];
    let mut setup_s = vec![setup_s];
    let mut replicas: Vec<Replica> = models
        .into_iter()
        .map(|m| Replica::new(m, workload.horizon, workload.scored_ticks))
        .collect();

    let total = Duration::from_secs_f64(args.seconds);
    let mut cursor = Cursor { tick: 0, read: 0 };
    let mut reference =
        calib::Reference::start().map_err(|e| format!("reference operation: {e}"))?;
    let mut log = Log::default();
    let mut traced = None;
    let baseline = if args.trace {
        total.mul_f64(TRACE_BASELINE_SHARE)
    } else {
        total
    };
    let mut ok = drive::phase(
        ctx,
        &mut client,
        &mut cursor,
        baseline,
        &mut reference,
        None,
        &mut log,
        &mut ledger,
    );
    if args.trace && ok {
        catch_up(&mut replicas, &sources, cursor.tick);
        let first = cursor.tick;
        let epoch = Instant::now();
        let mut client_tracer = Tracer::new(epoch, "client");
        let mut traced_log = Log::default();
        ok = drive::phase(
            ctx,
            &mut client,
            &mut cursor,
            total - baseline,
            &mut reference,
            Some(&mut client_tracer),
            &mut traced_log,
            &mut ledger,
        );
        // Replay the traced ticks layer by layer, with the server idle.
        let replay_dir = run_dir.join("replay");
        let probe_dir = run_dir.join("probe");
        std::fs::create_dir_all(&probe_dir).map_err(|e| format!("{}: {e}", probe_dir.display()))?;
        let fleet = Fleet::new(serve::fleet_config(workload, &replay_dir))
            .map_err(|e| format!("in-process fleet: {e}"))?;
        let mut peeler = Peeler::new(
            Tracer::new(epoch, "replay"),
            &mut replicas,
            fleet,
            &ids,
            probe_dir,
        )?;
        for k in first..cursor.tick.min(first + REPLAY_TICKS) {
            peeler.replay(ctx, &mut client, k, &mut ledger);
        }
        ledger.check.attempted += peeler.frames;
        ledger.check.succeeded += peeler.frames - peeler.codec_errors;
        ledger.check.failed += peeler.codec_errors;
        let enqueue_accept_ratio = peeler.enqueue_accepted as f64 / peeler.enqueue_attempts as f64;
        let frame_bytes = peeler.frame_bytes as f64 / peeler.frames as f64;
        let replay_tracer = peeler.shutdown();
        let path =
            Path::new(OUT_DIR).join(format!("trace-{}-seed{}.tsv", workload.name, args.seed));
        trace::write_spans(&path, &[&client_tracer, &replay_tracer])
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
        traced = Some(report::Traced {
            tracers: [client_tracer, replay_tracer],
            log: traced_log,
            enqueue_accept_ratio,
            frame_bytes,
        });
    }
    let fleet_stats = ledger.query.record("stats", client.stats());
    let net_stats = ledger.query.record("metrics", client.metrics());

    // Output check against the in-process replay of the same ticks.
    catch_up(&mut replicas, &sources, cursor.tick);
    let last: Vec<_> = replicas.iter().map(|r| r.last.clone()).collect();
    let forecasts: Vec<_> = replicas
        .iter()
        .map(|r| r.model.forecast_slice(workload.horizon))
        .collect();
    serve::check_outputs(
        &mut client,
        workload,
        &ids,
        &last,
        &forecasts,
        &mut ledger.check,
    );
    drop(client);
    server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    if !ok {
        eprintln!("perfbench: the run stopped early on a failed operation");
    }
    // Score quality over the same ticks on every run, replaying past the
    // served ones when a run was short of them.
    catch_up(&mut replicas, &sources, workload.scored_ticks);

    // The remaining set-ups run after the measured run, so that their
    // memory and CPU use stay out of it.
    for rep in 1..SETUP_REPS {
        let dir = run_dir.join(format!("served-{rep}"));
        let again = serve::setup(workload, &sources, &ids, &dir, &mut ledger)?;
        init_s.push(again.init_s);
        setup_s.push(again.setup_s);
        drop(again.client);
        again
            .server
            .shutdown()
            .map_err(|e| format!("server shutdown: {e}"))?;
    }
    eprintln!(
        "perfbench: {} ticks, {} reads served",
        cursor.tick, cursor.read
    );
    for (j, r) in replicas.iter().enumerate() {
        let ((nre, n), (afe, m)) = (r.imputation_nre(), r.forecast_nre());
        eprintln!(
            "perfbench: source {j}: imputation NRE {:.4}, forecast NRE {:.4}",
            nre / n as f64,
            afe / m as f64
        );
    }

    let metrics = match traced {
        None if args.trace => {
            return Err("an operation failed before the traced phase could run".into())
        }
        None => report::end_to_end(&setup_s, &log, rss_base_kib),
        Some(traced) => {
            let stats = fleet_stats.ok_or("the stats request failed")?;
            let net = net_stats.ok_or("the metrics request failed")?;
            report::per_layer(&traced, &log, &init_s, &replicas, &ledger, &stats, &net)?
        }
    };
    Ok((metrics, ledger))
}
