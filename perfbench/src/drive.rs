//! The load generator: a closed loop on one connection, each tick
//! followed by a few reads. After a traced phase, [`Peeler`] replays its
//! ticks in-process, layer by layer.

use crate::calib::Reference;
use crate::inputs::Source;
use crate::ledger::Ledger;
use crate::replica::{traced, Replica};
use crate::serve;
use crate::trace::Tracer;
use crate::workload::Workload;
use sofia_fleet::durability::write_checkpoint;
use sofia_fleet::{Fleet, IngestError, ModelHandle, Query};
use sofia_net::wire::ingest_body;
use sofia_net::{Client, Request};
use sofia_tensor::ObservedTensor;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A traced phase times an explicit checkpoint every this many ticks.
const CHECKPOINT_PROBE_EVERY: usize = 4;
/// Resident memory is sampled about this often, after a tick.
const RSS_SAMPLE_EVERY: Duration = Duration::from_secs(1);
/// The reference operation is timed `REF_SAMPLES` times about this
/// often, after a tick (under 1 % of a run).
const REF_SAMPLE_EVERY: Duration = Duration::from_millis(100);
const REF_SAMPLES: usize = 3;

#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    pub workload: &'a Workload,
    pub sources: &'a [Source],
    pub ids: &'a [String],
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What one phase measured.
#[derive(Default)]
pub struct Log {
    /// Step latency of each tick, send to `flush` return.
    pub tick_us: Vec<f64>,
    /// Ticks that failed or exceeded the latency limit.
    pub misses: u64,
    /// Read latency, send to reply, by kind of read (see
    /// [`serve::read_query`]).
    pub query_us: [Vec<f64>; 3],
    pub slices: u64,
    /// Resident memory of the process in KiB, sampled after ticks.
    pub rss_kib: Vec<f64>,
    /// Latency of the reference operation, sampled after ticks.
    pub ref_us: Vec<f64>,
    /// Summed latency of the ticks that applied their slices.
    pub ingest_wall: Duration,
}

impl Log {
    fn tick(&mut self, workload: &Workload, wall: Duration, ok: bool) {
        self.tick_us.push(us(wall));
        if !ok || wall > workload.limit {
            self.misses += 1;
        }
        if ok {
            self.slices += workload.streams as u64;
            self.ingest_wall += wall;
        }
    }
}

/// The in-process replay of a traced phase's ticks: the replicas, an
/// in-process fleet holding the same models, and the spans around every
/// call.
pub struct Peeler<'a> {
    tracer: Tracer,
    replicas: &'a mut [Replica],
    fleet: Fleet,
    checkpoint_dir: PathBuf,
    pub enqueue_attempts: u64,
    pub enqueue_accepted: u64,
    pub frame_bytes: u64,
    pub frames: u64,
    pub codec_errors: u64,
}

impl<'a> Peeler<'a> {
    /// Registers a copy of each replica's current model with `fleet`.
    pub fn new(
        tracer: Tracer,
        replicas: &'a mut [Replica],
        fleet: Fleet,
        ids: &[String],
        checkpoint_dir: PathBuf,
    ) -> Result<Peeler<'a>, String> {
        for (replica, id) in replicas.iter().zip(ids) {
            fleet
                .register(id, ModelHandle::sofia(replica.model.clone()))
                .map_err(|e| format!("in-process register: {e}"))?;
        }
        Ok(Peeler {
            tracer,
            replicas,
            fleet,
            checkpoint_dir,
            enqueue_attempts: 0,
            enqueue_accepted: 0,
            frame_bytes: 0,
            frames: 0,
            codec_errors: 0,
        })
    }

    pub fn shutdown(self) -> Tracer {
        if let Err(e) = self.fleet.shutdown() {
            eprintln!("perfbench: in-process fleet shutdown: {e}");
        }
        self.tracer
    }

    /// Replays tick `k` of every source through each layer's public
    /// calls: the wire codec, the model (drift probe, Lemma 2 update,
    /// Eq. 27 reconstruction), and the in-process fleet; then times the
    /// read path, the transport floor and a checkpoint.
    pub fn replay(&mut self, ctx: Ctx, client: &mut Client, k: usize, ledger: &mut Ledger) {
        let tick = k as u64;
        let tracer = &mut self.tracer;
        let fleet = &self.fleet;
        let root = tracer.enter("replay", tick);
        for (j, source) in ctx.sources.iter().enumerate() {
            // Stream j is fed by source j (j < sources).
            let id = &ctx.ids[j];
            let tagged = [(tick, source.slice(k).clone())];
            let body = tracer.span("net.encode", tick, || ingest_body(tick, None, id, &tagged));
            self.frame_bytes += body.len() as u64;
            self.frames += 1;
            if tracer
                .span("net.decode", tick, || Request::from_body(&body))
                .is_err()
            {
                self.codec_errors += 1;
            }
            self.replicas[j].advance(source, Some(&mut *tracer));

            let [(_, mut slice)] = tagged;
            let apply = tracer.enter("fleet.apply", tick);
            loop {
                self.enqueue_attempts += 1;
                match tracer.span("fleet.enqueue", tick, || fleet.try_ingest_id(id, slice)) {
                    Ok(()) => {
                        self.enqueue_accepted += 1;
                        break;
                    }
                    Err(IngestError::Backpressure(back)) => {
                        slice = *back;
                        std::thread::yield_now();
                    }
                    Err(e) => {
                        eprintln!("perfbench: in-process ingest: {e}");
                        break;
                    }
                }
            }
            if let Err(e) = tracer.span("fleet.flush", tick, || fleet.flush()) {
                eprintln!("perfbench: in-process flush: {e}");
            }
            tracer.exit(apply);
        }

        let j = k % ctx.sources.len();
        let id = &ctx.ids[j];
        let ask = |q: Query| fleet.query(id, q).and_then(|t| t.wait());
        // The same request on the idle served stack and in-process: the
        // difference is the transport floor of a request that waits on
        // the fleet.
        tracer.span("net.flush_rt", tick, || {
            serve::flush(client, &mut ledger.flush)
        });
        let idle_flush = tracer.span("fleet.flush_idle", tick, || fleet.flush());
        let latest = tracer.span("fleet.query_latest", tick, || ask(Query::Latest));
        let horizon = ctx.workload.horizon;
        let forecast = tracer.span("fleet.query_forecast", tick, || {
            ask(Query::Forecast { horizon })
        });
        let stats = tracer.span("sketch.stats", tick, || fleet.fleet_stats().map(|_| ()));
        let failed = [idle_flush.err(), latest.err(), forecast.err(), stats.err()];
        if let Some(e) = failed.into_iter().flatten().next() {
            eprintln!("perfbench: in-process read: {e}");
        }
        if k.is_multiple_of(CHECKPOINT_PROBE_EVERY) {
            let model = &self.replicas[j].model;
            let dir = &self.checkpoint_dir;
            let written = tracer.span("fleet.checkpoint", tick, || {
                write_checkpoint(dir, id, &serve::envelope(model))
            });
            if let Err(e) = written {
                eprintln!("perfbench: checkpoint: {e}");
            }
        }
        tracer.exit(root);
    }
}

/// Copies of tick `k`'s slices, one per stream, made before the tick is
/// timed so that the copy is not counted as serving work.
fn payload(ctx: Ctx, k: usize) -> Vec<Option<ObservedTensor>> {
    (0..ctx.ids.len())
        .map(|i| Some(ctx.sources[ctx.workload.source_of(i)].slice(k).clone()))
        .collect()
}

/// Sends one tick: every stream's slice, then a `flush`. With `probe`,
/// that stream's slice goes first and is flushed alone, so its served
/// time is one serialized slice (the peel's end-to-end sample).
fn send_tick(
    ctx: Ctx,
    client: &mut Client,
    tick: u64,
    mut payload: Vec<Option<ObservedTensor>>,
    probe: Option<usize>,
    tracer: &mut Option<&mut Tracer>,
    ledger: &mut Ledger,
) -> bool {
    let mut ok = true;
    let mut send = |i: usize,
                    span: &'static str,
                    client: &mut Client,
                    tracer: &mut Option<&mut Tracer>,
                    ledger: &mut Ledger| {
        let slice = payload[i].take().expect("each slice is sent once");
        traced(tracer, span, tick, || {
            serve::ingest(client, &ctx.ids[i], slice, &mut ledger.ingest)
        })
    };
    if let Some(p) = probe {
        let span = tracer.as_deref_mut().map(|t| t.enter("peel.probe", tick));
        ok &= send(p, "peel.ingest", client, tracer, ledger);
        ok &= traced(tracer, "peel.flush", tick, || {
            serve::flush(client, &mut ledger.flush)
        });
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
            t.exit(span);
        }
    }
    for i in 0..ctx.ids.len() {
        if Some(i) != probe {
            ok &= send(i, "net.ingest", client, tracer, ledger);
        }
    }
    ok && traced(tracer, "net.flush", tick, || {
        serve::flush(client, &mut ledger.flush)
    })
}

/// Sends tick `k` and logs it; when tracing, with a peel probe.
fn run_tick(
    ctx: Ctx,
    client: &mut Client,
    k: usize,
    tracer: &mut Option<&mut Tracer>,
    log: &mut Log,
    ledger: &mut Ledger,
) -> bool {
    let tick = k as u64;
    let data = payload(ctx, k);
    let probe = tracer.is_some().then(|| k % ctx.ids.len());
    let sent = Instant::now();
    let root = tracer.as_deref_mut().map(|t| t.enter("tick", tick));
    let ok = send_tick(ctx, client, tick, data, probe, tracer, ledger);
    if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
        t.exit(root);
    }
    log.tick(ctx.workload, sent.elapsed(), ok);
    ok
}

/// Sends the next read of the mix and logs it.
fn run_read(
    ctx: Ctx,
    client: &mut Client,
    cursor: &mut Cursor,
    tracer: &mut Option<&mut Tracer>,
    log: &mut Log,
    ledger: &mut Ledger,
) -> bool {
    let (stream, kind, q) = serve::read_query(cursor.read, ctx.workload);
    let sent = Instant::now();
    let ok = traced(tracer, "net.query", cursor.read as u64, || {
        serve::query(client, &ctx.ids[stream], q, &mut ledger.query)
    });
    log.query_us[kind].push(us(sent.elapsed()));
    cursor.read += 1;
    ok
}

/// Tick and read counters that continue across phases.
pub struct Cursor {
    pub tick: usize,
    pub read: usize,
}

/// Runs one phase of `length`, timing the reference operation and
/// sampling resident memory as it goes. Returns `false` once an
/// operation failed (the phase stops there).
#[allow(clippy::too_many_arguments)]
pub fn phase(
    ctx: Ctx,
    client: &mut Client,
    cursor: &mut Cursor,
    length: Duration,
    reference: &mut Reference,
    mut tracer: Option<&mut Tracer>,
    log: &mut Log,
    ledger: &mut Ledger,
) -> bool {
    if cursor.tick == 0 {
        // One untimed tick first, so every stream has a step to read.
        if !run_tick(ctx, client, 0, &mut None, &mut Log::default(), ledger) {
            return false;
        }
        cursor.tick = 1;
    }
    let end = Instant::now() + length;
    let mut next_rss = Instant::now() + RSS_SAMPLE_EVERY;
    let mut next_ref = Instant::now();
    while Instant::now() < end {
        if !run_tick(ctx, client, cursor.tick, &mut tracer, log, ledger) {
            return false;
        }
        cursor.tick += 1;
        // Between the tick and its reads the last reply was a small one
        // (the `flush`'s), so no large reply buffer is in flight.
        if Instant::now() >= next_ref {
            for _ in 0..REF_SAMPLES {
                match reference.time_us() {
                    Ok(v) => log.ref_us.push(v),
                    Err(e) => {
                        eprintln!("perfbench: reference operation: {e}");
                        return false;
                    }
                }
            }
            next_ref = Instant::now() + REF_SAMPLE_EVERY;
        }
        if Instant::now() >= next_rss {
            log.rss_kib.push(serve::rss_kib() as f64);
            next_rss = Instant::now() + RSS_SAMPLE_EVERY;
        }
        for _ in 0..ctx.workload.reads_per_tick {
            if !run_read(ctx, client, cursor, &mut tracer, log, ledger) {
                return false;
            }
        }
    }
    true
}
