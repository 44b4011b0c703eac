//! Shard workers: one thread per shard owning its streams' models.
//!
//! Each shard has a **bounded** command queue. The data plane
//! (`Ingest`) uses non-blocking `try_send` — a full queue surfaces as
//! [`crate::IngestError::Backpressure`] with the slice handed back —
//! while control-plane messages use blocking `send` (they are rare and
//! may wait behind queued data). The worker drains the *entire* queue on
//! every wakeup and applies the drained commands in arrival order, so a
//! burst of slices for many streams is served in one batch without
//! re-parking between items, and per-stream slice order is preserved
//! (one stream always lives on exactly one shard).
//!
//! Models are owned exclusively by their worker thread: the hot path
//! takes no lock anywhere — routing is hashing, the queue is the only
//! synchronization point, and per-shard queue depth is a shared atomic
//! counter maintained on both ends.
//!
//! ## Query queue
//!
//! Queries travel on a **separate, unbounded** per-shard queue
//! ([`QueryRequest`]), drained inside the worker loop after every
//! applied command batch — so queries always observe post-batch state
//! and never compete with the data plane for the bounded ingest
//! capacity (`ShardStats::query_queue_depth` gauges the backlog
//! instead). The trade: queries are not FIFO-ordered with in-flight
//! ingests; `Fleet::flush` is the read-your-writes barrier. A parked worker is woken by a lightweight
//! [`Command::PumpQueries`] marker sent with `try_send`: if the command
//! queue is full the marker is dropped on purpose — a full queue means
//! the worker has work pending and will drain the query queue right
//! after it anyway. One [`crate::Fleet::query_batch`] enqueues a whole
//! per-shard group and pumps once, costing exactly one queue round-trip
//! per involved shard.
//!
//! ## Stream lifecycle (evict / lazy restore)
//!
//! With an eviction threshold configured, the worker sweeps its slots
//! after every drained batch: a snapshot-capable stream that has not
//! ingested for `evict_idle` shard steps (LRU by last-ingest step on the
//! shard's step clock) is checkpointed one last time and unloaded from
//! memory. The stream stays registered; its next ingest or query
//! transparently restores it from the checkpoint directory (bit-exact,
//! like crash recovery — only the not-checkpointed "latest output" is
//! forgotten). Transient models are never evicted: there is no durable
//! state to bring them back from.

use crate::durability::{load_stream, write_checkpoint, CheckpointPolicy};
use crate::error::FleetError;
use crate::model::ModelHandle;
use crate::protocol::{Query, QueryResponse};
use crate::registry::Registry;
use crate::stats::{MetricKind, QueryCounters, ShardStats, StreamStats};
use sofia_core::traits::StepOutput;
use sofia_sketch::MetricSummary;
use sofia_tensor::{DenseTensor, Mask, ObservedTensor};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

/// Commands a shard worker processes.
pub(crate) enum Command {
    /// Data plane: apply one slice to a stream's model.
    Ingest {
        stream: Arc<str>,
        slice: ObservedTensor,
    },
    /// Install a model for a (registry-vetted) stream id.
    Register {
        stream: Arc<str>,
        model: ModelHandle,
        reply: Sender<()>,
    },
    /// Wakeup marker for the query queue: carries nothing — queries are
    /// drained after every batch regardless; this only unparks a worker
    /// whose command queue is otherwise empty.
    PumpQueries,
    /// Shard-wide statistics snapshot.
    ShardStats { reply: Sender<ShardStats> },
    /// Checkpoint every checkpointable stream now; replies with the
    /// number of streams written.
    Checkpoint {
        reply: Sender<Result<usize, FleetError>>,
    },
    /// Barrier: processed strictly after everything enqueued before it
    /// (the queue is FIFO), so a reply means the shard has applied all
    /// previously ingested slices.
    Flush { reply: Sender<()> },
    /// Serialize a stream's current model as checkpoint-envelope text.
    /// Rides the FIFO command queue, so the snapshot includes every
    /// slice enqueued before it — the read half of a migration
    /// (`register` over the wire is the write half).
    Export {
        stream: Arc<str>,
        reply: Sender<Result<String, FleetError>>,
    },
    /// Remove a stream from serving entirely: drop the model (resident
    /// or evicted), free the registry id, and delete its checkpoint
    /// file so a later recovery cannot resurrect it here — the final
    /// step of a migration hand-off.
    Deregister {
        stream: Arc<str>,
        reply: Sender<Result<(), FleetError>>,
    },
    /// Checkpoint one stream now (no-op `Ok(false)` without a policy or
    /// for a transient model). The durability handshake of a migration:
    /// the target persists the received envelope before the source's
    /// copy is deleted.
    CheckpointStream {
        stream: Arc<str>,
        reply: Sender<Result<bool, FleetError>>,
    },
    /// Final checkpoint (if configured) and exit.
    Shutdown {
        reply: Sender<Result<usize, FleetError>>,
    },
}

/// One queued query: the routed stream, the typed request, and the
/// completion channel backing the caller's `QueryTicket`.
pub(crate) struct QueryRequest {
    pub(crate) stream: Arc<str>,
    pub(crate) query: Query,
    pub(crate) reply: Sender<Result<QueryResponse, FleetError>>,
}

/// One stream's serving state inside a shard.
struct StreamSlot {
    model: ModelHandle,
    steps_since_checkpoint: u64,
    /// Mergeable ingest-latency summary (µs per applied slice). It is
    /// in-memory observability state, not model state: it is not
    /// checkpointed and starts fresh on restore.
    ingest_latency: MetricSummary,
    /// Mergeable one-step-ahead forecast-error summary: the relative
    /// residual of the model's own pre-step forecast against the slice
    /// it then ingested, over the slice's observed entries.
    forecast_error: MetricSummary,
    last: Option<StepOutput>,
    /// Shard step-clock reading at this stream's last ingest (or its
    /// registration/restore); the eviction sweep compares against it.
    last_active: u64,
}

impl StreamSlot {
    fn new(model: ModelHandle, last_active: u64) -> StreamSlot {
        StreamSlot {
            model,
            steps_since_checkpoint: 0,
            ingest_latency: MetricSummary::new(),
            forecast_error: MetricSummary::new(),
            last: None,
            last_active,
        }
    }

    /// The slot's summary for one observable metric.
    fn metric(&self, kind: MetricKind) -> &MetricSummary {
        match kind {
            MetricKind::IngestLatency => &self.ingest_latency,
            MetricKind::ForecastError => &self.forecast_error,
        }
    }
}

/// Relative residual of a one-step forecast against the slice that was
/// actually ingested, over the slice's **observed** entries only:
/// `‖pred − obs‖_Ω / ‖obs‖_Ω` (the raw residual norm when the observed
/// values are all zero). `None` when the shapes disagree — a reshaped
/// stream's first post-reshape slice is not a forecast failure.
fn forecast_residual(prediction: &DenseTensor, slice: &ObservedTensor) -> Option<f64> {
    if prediction.shape().dims() != slice.values().shape().dims() {
        return None;
    }
    let pred = prediction.data();
    let mut num = 0.0;
    let mut den = 0.0;
    let mut any = false;
    for (idx, obs) in slice.observed_entries() {
        any = true;
        let d = pred[idx] - obs;
        num += d * d;
        den += obs * obs;
    }
    if !any {
        return None;
    }
    Some(if den > 0.0 {
        (num / den).sqrt()
    } else {
        num.sqrt()
    })
}

/// The worker-side state of one shard.
pub(crate) struct ShardWorker {
    shard: usize,
    rx: Receiver<Command>,
    depth: Arc<AtomicUsize>,
    /// Unbounded query queue, drained after every applied batch.
    query_rx: Receiver<QueryRequest>,
    query_depth: Arc<AtomicUsize>,
    policy: Option<CheckpointPolicy>,
    /// Evict a snapshot-capable stream after this many shard steps
    /// without an ingest; `None` disables the lifecycle.
    evict_idle: Option<u64>,
    /// Shared with the engine so a quarantine can free the stream id for
    /// re-registration (control plane only — never touched on ingest).
    registry: Arc<Registry>,
    slots: HashMap<Arc<str>, StreamSlot>,
    /// Streams checkpointed and unloaded by the eviction sweep; still
    /// registered, restored lazily on the next ingest/query.
    evicted: HashSet<Arc<str>>,
    /// Shard-level mergeable summaries, observed directly by this worker
    /// (not folded from slots, so they also cover streams that were
    /// since evicted or quarantined). These are the canonical per-shard
    /// partials: every rollup — fleet-wide, cluster-wide, over the wire —
    /// merges these, which is what makes the cluster totals bit-exact.
    ingest_latency: MetricSummary,
    forecast_error: MetricSummary,
    steps: u64,
    batches: u64,
    max_batch: usize,
    dropped: u64,
    evictions: u64,
    restores: u64,
    checkpoint_failures: u64,
    quarantines: u64,
    /// Per-kind counts of queries answered (failures included).
    queries: QueryCounters,
    /// Query-queue drains that answered at least one query (a
    /// `query_batch` costs one per involved shard).
    query_batches: u64,
    /// Step-clock reading before which no resident stream can be idle:
    /// the eviction sweep is skipped until the clock reaches it, so the
    /// per-batch cost is O(1) while nothing is evictable.
    next_evict_check: u64,
}

impl ShardWorker {
    /// The worker loop: park on the queue, drain it fully, apply the
    /// batch, answer queued queries (post-batch state), sweep for idle
    /// streams, repeat until shutdown.
    pub(crate) fn run(mut self) {
        loop {
            let Ok(first) = self.rx.recv() else {
                // All senders dropped without an explicit Shutdown: the
                // crash path (`Fleet::abort` models it). Write nothing —
                // recovery must come from the last *durable* checkpoint,
                // exactly as after a real crash.
                return;
            };
            let mut batch = vec![first];
            while let Ok(cmd) = self.rx.try_recv() {
                batch.push(cmd);
            }
            self.batches += 1;
            self.max_batch = self.max_batch.max(batch.len());
            for cmd in batch {
                if self.apply(cmd) {
                    // Graceful shutdown honours "drains every queue":
                    // queries enqueued before the Shutdown marker get
                    // their answer (against the final, checkpointed
                    // state) instead of a spurious ShuttingDown. The
                    // crash path (`recv` disconnect above) skips this —
                    // dropping `query_rx` resolves still-queued tickets
                    // to `ShuttingDown`.
                    self.drain_queries();
                    return;
                }
            }
            self.drain_queries();
            self.evict_idle_streams();
        }
    }

    /// Answers queued queries against the just-applied state. Runs
    /// after each batch, so a query never observes a half-applied
    /// burst; counts one round-trip if anything was drained.
    ///
    /// The drain is bounded by the backlog present at entry: a query
    /// arriving *while* answering waits for the next batch (its pump
    /// marker guarantees a wakeup), so sustained query traffic cannot
    /// starve the data plane or wedge a pending flush/shutdown behind
    /// an unbounded drain loop.
    fn drain_queries(&mut self) {
        let budget = self.query_depth.load(Ordering::Acquire);
        let mut drained = false;
        for _ in 0..budget {
            let Ok(req) = self.query_rx.try_recv() else {
                // The gauge can transiently exceed the channel contents
                // (senders count before sending); just stop early.
                break;
            };
            drained = true;
            self.query_depth.fetch_sub(1, Ordering::Release);
            let result = self.answer(&req.stream, &req.query);
            let _ = req.reply.send(result);
        }
        if drained {
            self.query_batches += 1;
        }
    }

    /// Answers one typed query, lazily restoring an evicted stream
    /// first ("restored on the next ingest or query").
    fn answer(&mut self, stream: &Arc<str>, query: &Query) -> Result<QueryResponse, FleetError> {
        self.queries.record(query.kind());
        // The engine validates at the API boundary; revalidate here so
        // the network data plane (`sofia-net` feeds decoded wire queries
        // straight into shards) gets the same guarantee.
        query.validate()?;
        if !self.slots.contains_key(stream) && self.evicted.contains(stream) {
            // A failed restore fails this query with the typed error
            // instead of a fake UnknownStream; the durable checkpoint is
            // still the truth and a later attempt may succeed.
            self.restore_stream(stream)?;
        }
        let slot = self
            .slots
            .get(stream)
            .ok_or_else(|| FleetError::UnknownStream(stream.to_string()))?;
        Ok(match query {
            Query::Latest => QueryResponse::Latest(slot.last.clone()),
            Query::Forecast { horizon } => match slot.model.forecast_guarded(*horizon) {
                Ok(f) => QueryResponse::Forecast(f),
                Err(()) => {
                    return Err(FleetError::ModelPanicked {
                        stream: stream.to_string(),
                    })
                }
            },
            Query::OutlierMask => QueryResponse::OutlierMask(slot.last.as_ref().and_then(|out| {
                out.outliers.as_ref().map(|o| {
                    Mask::from_vec(
                        o.shape().clone(),
                        o.data().iter().map(|&v| v != 0.0).collect(),
                    )
                })
            })),
            Query::StreamStats => {
                let stats = StreamStats {
                    stream: stream.to_string(),
                    model: slot.model.name().to_string(),
                    shard: self.shard,
                    steps: slot.model.model_steps(),
                    queue_depth: self.depth.load(Ordering::Acquire),
                    steps_since_checkpoint: slot.steps_since_checkpoint,
                    ingest_latency: slot.ingest_latency.clone(),
                    forecast_error: slot.forecast_error.clone(),
                };
                QueryResponse::StreamStats(stats)
            }
            Query::Quantile { metric, q } => {
                QueryResponse::Quantile(slot.metric(*metric).quantile(*q))
            }
        })
    }

    /// Brings an evicted stream back from its checkpoint. On success the
    /// stream is resident again (with `latest` reset, as after recovery).
    fn restore_stream(&mut self, stream: &Arc<str>) -> Result<(), FleetError> {
        let dir = self
            .policy
            .as_ref()
            .map(|p| p.dir.clone())
            .expect("eviction implies a checkpoint policy");
        // The parsers reject malformed files with typed errors, but this
        // runs on the shard thread: uphold the "a bad stream never takes
        // down its shard" invariant against any parser panic too.
        let loaded =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| load_stream(&dir, stream)))
                .unwrap_or_else(|_| {
                    Err(FleetError::Corrupt {
                        stream: stream.to_string(),
                        reason: "restore panicked".to_string(),
                    })
                });
        let handle = loaded?.ok_or_else(|| FleetError::Corrupt {
            stream: stream.to_string(),
            reason: "evicted stream has no checkpoint file".to_string(),
        })?;
        self.evicted.remove(stream);
        self.restores += 1;
        self.note_residency_deadline();
        self.slots
            .insert(Arc::clone(stream), StreamSlot::new(handle, self.steps));
        Ok(())
    }

    /// A stream just became resident: it can become idle no sooner than
    /// one threshold from now, so pull the sweep deadline forward.
    fn note_residency_deadline(&mut self) {
        if let Some(idle) = self.evict_idle {
            self.next_evict_check = self.next_evict_check.min(self.steps.saturating_add(idle));
        }
    }

    /// Checkpoints and unloads every snapshot-capable stream idle for at
    /// least the configured number of shard steps. A stream whose
    /// checkpoint write fails stays resident (its state must not be
    /// dropped) and is not re-tried until another full idle interval
    /// passes, so a broken checkpoint directory does not burn I/O on
    /// every batch; transient models are skipped outright.
    ///
    /// The scan itself is gated on a deadline watermark — while no
    /// resident stream can possibly be idle yet, each batch pays O(1)
    /// here, not O(streams).
    fn evict_idle_streams(&mut self) {
        let Some(idle) = self.evict_idle else { return };
        if self.steps < self.next_evict_check {
            return;
        }
        let Some(dir) = self.policy.as_ref().map(|p| p.dir.clone()) else {
            return;
        };
        let now = self.steps;
        let victims: Vec<Arc<str>> = self
            .slots
            .iter()
            .filter(|(_, slot)| {
                slot.model.snapshot_kind().is_some() && now.saturating_sub(slot.last_active) >= idle
            })
            .map(|(id, _)| Arc::clone(id))
            .collect();
        for id in victims {
            let slot = self.slots.get_mut(&id).expect("victim is resident");
            match Self::checkpoint_slot(&dir, &id, slot) {
                Ok(_) => {
                    self.slots.remove(&id);
                    self.evicted.insert(id);
                    self.evictions += 1;
                }
                Err(e) => {
                    eprintln!(
                        "sofia-fleet: evicting stream `{id}` failed to checkpoint: {e}; \
                         stream stays resident"
                    );
                    self.checkpoint_failures += 1;
                    // Natural backoff: treat the failed attempt as
                    // activity so the stream is not re-selected until
                    // another idle interval elapses.
                    slot.last_active = now;
                }
            }
        }
        // Next possible idle moment across the remaining resident,
        // snapshot-capable slots; sweeps before then are skipped.
        self.next_evict_check = self
            .slots
            .values()
            .filter(|s| s.model.snapshot_kind().is_some())
            .map(|s| s.last_active.saturating_add(idle))
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Applies one command; returns `true` on shutdown.
    fn apply(&mut self, cmd: Command) -> bool {
        match cmd {
            Command::Ingest { stream, slice } => {
                self.depth.fetch_sub(1, Ordering::Release);
                if !self.slots.contains_key(&stream) {
                    if self.evicted.contains(&stream) {
                        // Lazy restore on the data plane. Failure is
                        // counted as a drop but the stream stays evicted:
                        // the durable checkpoint is still the truth and a
                        // later attempt (or query) may succeed.
                        if let Err(e) = self.restore_stream(&stream) {
                            eprintln!(
                                "sofia-fleet: restoring evicted stream `{stream}` failed: {e}; \
                                 slice dropped"
                            );
                            self.dropped += 1;
                            return false;
                        }
                    } else {
                        // The slice raced a quarantine (a StreamKey can
                        // outlive its stream); count the drop so
                        // producers can detect the loss through stats.
                        self.dropped += 1;
                        return false;
                    }
                }
                let slot = self.slots.get_mut(&stream).expect("resident");
                // One-step-ahead drift probe: what the model would have
                // predicted for this slice, captured *before* the slice
                // updates it. `forecast_guarded` already shields the
                // shard from a panicking model; a model that cannot
                // forecast (or has not warmed up) contributes nothing.
                let prediction = slot.model.forecast_guarded(1).ok().flatten();
                let start = Instant::now();
                // A panicking model (e.g. a shape assert on a malformed
                // slice) must quarantine only its own stream — never take
                // down the shard and every other stream hashed onto it.
                // The model may be mid-update when it panics, so the slot
                // is removed rather than kept in an unknown state; its
                // last durable checkpoint stays on disk.
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    slot.model.step(&slice)
                }));
                match out {
                    Err(_) => {
                        eprintln!(
                            "sofia-fleet: model for stream `{stream}` panicked \
                             on step {}; stream quarantined",
                            slot.model.model_steps() + 1
                        );
                        self.slots.remove(&stream);
                        // Free the id so a fresh model can be registered
                        // in its place.
                        self.registry.remove(&stream);
                        self.quarantines += 1;
                    }
                    Ok(out) => {
                        let us = start.elapsed().as_secs_f64() * 1e6;
                        slot.ingest_latency.observe(us);
                        self.ingest_latency.observe(us);
                        if let Some(residual) = prediction
                            .as_ref()
                            .and_then(|pred| forecast_residual(pred, &slice))
                        {
                            slot.forecast_error.observe(residual);
                            self.forecast_error.observe(residual);
                        }
                        slot.steps_since_checkpoint += 1;
                        self.steps += 1;
                        slot.last_active = self.steps;
                        slot.last = Some(out);
                        if let Some(policy) = &self.policy {
                            // Periodic checkpoints are best-effort (I/O
                            // trouble must not take the shard down; an
                            // explicit Checkpoint command reports errors)
                            // but counted. They fall due at each interval
                            // boundary since the last durable one, so a
                            // failed write is retried one interval later,
                            // not on every ingest. The interval is a
                            // public field: 0 means 1.
                            let every = policy.every_steps.max(1);
                            if slot.steps_since_checkpoint.is_multiple_of(every) {
                                match Self::checkpoint_slot(&policy.dir, &stream, slot) {
                                    Ok(_) => slot.steps_since_checkpoint = 0,
                                    Err(e) => {
                                        eprintln!(
                                            "sofia-fleet: periodic checkpoint of stream \
                                             `{stream}` failed: {e}; retrying in {every} steps"
                                        );
                                        self.checkpoint_failures += 1;
                                    }
                                }
                            }
                        }
                    }
                }
                false
            }
            Command::Register {
                stream,
                model,
                reply,
            } => {
                self.note_residency_deadline();
                self.slots
                    .insert(stream, StreamSlot::new(model, self.steps));
                let _ = reply.send(());
                false
            }
            // The queries themselves live on the query queue, drained
            // after the batch; the marker exists only to unpark the
            // worker.
            Command::PumpQueries => false,
            Command::ShardStats { reply } => {
                let stats = ShardStats {
                    shard: self.shard,
                    streams: self.slots.len(),
                    evicted: self.evicted.len(),
                    steps: self.steps,
                    queue_depth: self.depth.load(Ordering::Acquire),
                    batches: self.batches,
                    max_batch: self.max_batch,
                    dropped: self.dropped,
                    evictions: self.evictions,
                    restores: self.restores,
                    checkpoint_failures: self.checkpoint_failures,
                    quarantines: self.quarantines,
                    queries: self.queries,
                    query_batches: self.query_batches,
                    query_queue_depth: self.query_depth.load(Ordering::Acquire),
                    ingest_latency: self.ingest_latency.clone(),
                    forecast_error: self.forecast_error.clone(),
                    endpoint: None,
                };
                let _ = reply.send(stats);
                false
            }
            Command::Checkpoint { reply } => {
                let _ = reply.send(self.checkpoint_all());
                false
            }
            Command::Flush { reply } => {
                let _ = reply.send(());
                false
            }
            Command::Export { stream, reply } => {
                let _ = reply.send(self.export_stream(&stream));
                false
            }
            Command::Deregister { stream, reply } => {
                let _ = reply.send(self.deregister_stream(&stream));
                false
            }
            Command::CheckpointStream { stream, reply } => {
                let _ = reply.send(self.checkpoint_stream(&stream));
                false
            }
            Command::Shutdown { reply } => {
                let _ = reply.send(self.checkpoint_all());
                true
            }
        }
    }

    /// Serializes a stream's model as its checkpoint-envelope text —
    /// the same bit-exact form the durability layer writes to disk and
    /// `sofia-net` registration ships over the socket. An evicted
    /// stream's envelope is read straight from its checkpoint file
    /// (current by definition: eviction checkpoints before unloading)
    /// without restoring the model.
    fn export_stream(&mut self, stream: &Arc<str>) -> Result<String, FleetError> {
        if let Some(slot) = self.slots.get(stream) {
            return slot
                .model
                .checkpoint_text()
                .ok_or_else(|| FleetError::InvalidQuery {
                    reason: format!(
                        "stream `{stream}` serves a transient model (no snapshot \
                         capability), so it has no exportable envelope"
                    ),
                });
        }
        if self.evicted.contains(stream) {
            let dir = self
                .policy
                .as_ref()
                .map(|p| p.dir.clone())
                .expect("eviction implies a checkpoint policy");
            return std::fs::read_to_string(crate::durability::checkpoint_path(&dir, stream))
                .map_err(FleetError::Io);
        }
        Err(FleetError::UnknownStream(stream.to_string()))
    }

    /// Removes a stream from serving: the model is dropped (resident or
    /// evicted), the registry id freed for re-registration, and the
    /// checkpoint file deleted so this process can never resurrect the
    /// stream on recovery — its state now lives wherever the exported
    /// envelope was registered. The file goes first: if its deletion
    /// fails, no in-memory state has changed yet, so the stream keeps
    /// serving and the caller can simply retry.
    fn deregister_stream(&mut self, stream: &Arc<str>) -> Result<(), FleetError> {
        if !self.slots.contains_key(stream) && !self.evicted.contains(stream) {
            return Err(FleetError::UnknownStream(stream.to_string()));
        }
        if let Some(policy) = &self.policy {
            crate::durability::remove_checkpoint(&policy.dir, stream)?;
        }
        self.slots.remove(stream);
        self.evicted.remove(stream);
        self.registry.remove(stream);
        Ok(())
    }

    /// Checkpoints one stream immediately. `Ok(true)` when a file was
    /// written (or an evicted stream's file is already current),
    /// `Ok(false)` when there is nothing to persist (no policy, or a
    /// transient model), `Err` when the stream is unknown or the write
    /// failed.
    fn checkpoint_stream(&mut self, stream: &Arc<str>) -> Result<bool, FleetError> {
        let Some(policy) = self.policy.clone() else {
            return Ok(false);
        };
        if let Some(slot) = self.slots.get_mut(stream) {
            let written = Self::checkpoint_slot(&policy.dir, stream, slot)?;
            if written {
                slot.steps_since_checkpoint = 0;
            }
            return Ok(written);
        }
        if self.evicted.contains(stream) {
            // Eviction checkpointed the stream as it left memory; its
            // file is the current state by definition.
            return Ok(true);
        }
        Err(FleetError::UnknownStream(stream.to_string()))
    }

    fn checkpoint_slot(
        dir: &std::path::Path,
        stream: &str,
        slot: &StreamSlot,
    ) -> Result<bool, FleetError> {
        match slot.model.checkpoint_text() {
            Some(text) => {
                write_checkpoint(dir, stream, &text)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Checkpoints every checkpointable resident stream; returns how many
    /// were written (evicted streams were checkpointed when they left
    /// memory, so their files are already current). One stream's write
    /// failure must not cost its neighbours their checkpoints, so every
    /// slot is attempted and the first error is reported afterwards.
    fn checkpoint_all(&mut self) -> Result<usize, FleetError> {
        let Some(policy) = self.policy.clone() else {
            return Ok(0);
        };
        let mut written = 0;
        let mut first_error = None;
        for (stream, slot) in self.slots.iter_mut() {
            match Self::checkpoint_slot(&policy.dir, stream, slot) {
                Ok(true) => {
                    slot.steps_since_checkpoint = 0;
                    written += 1;
                }
                Ok(false) => {}
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(written),
        }
    }
}

/// The engine-side handle of one shard: its command-queue sender, query
/// queue sender, depth counters, and join handle.
pub(crate) struct ShardHandle {
    pub(crate) tx: SyncSender<Command>,
    query_tx: Sender<QueryRequest>,
    pub(crate) depth: Arc<AtomicUsize>,
    query_depth: Arc<AtomicUsize>,
    pub(crate) join: Option<std::thread::JoinHandle<()>>,
}

impl ShardHandle {
    /// Spawns a shard worker with a queue of `capacity` commands.
    pub(crate) fn spawn(
        shard: usize,
        capacity: usize,
        policy: Option<CheckpointPolicy>,
        evict_idle: Option<u64>,
        registry: Arc<Registry>,
    ) -> ShardHandle {
        let (tx, rx) = std::sync::mpsc::sync_channel(capacity);
        let (query_tx, query_rx) = std::sync::mpsc::channel();
        let depth = Arc::new(AtomicUsize::new(0));
        let query_depth = Arc::new(AtomicUsize::new(0));
        let worker = ShardWorker {
            shard,
            rx,
            depth: Arc::clone(&depth),
            query_rx,
            query_depth: Arc::clone(&query_depth),
            policy,
            evict_idle,
            registry,
            slots: HashMap::new(),
            evicted: HashSet::new(),
            ingest_latency: MetricSummary::new(),
            forecast_error: MetricSummary::new(),
            steps: 0,
            batches: 0,
            max_batch: 0,
            dropped: 0,
            evictions: 0,
            restores: 0,
            checkpoint_failures: 0,
            quarantines: 0,
            queries: QueryCounters::default(),
            query_batches: 0,
            next_evict_check: 0,
        };
        let join = std::thread::Builder::new()
            .name(format!("sofia-fleet-shard-{shard}"))
            .spawn(move || worker.run())
            .expect("spawn shard worker");
        ShardHandle {
            tx,
            query_tx,
            depth,
            query_depth,
            join: Some(join),
        }
    }

    /// Queues one query without waking the worker (used by
    /// `query_batch` to stage a whole per-shard group before a single
    /// [`ShardHandle::pump_queries`]).
    pub(crate) fn enqueue_query(&self, req: QueryRequest) -> Result<(), FleetError> {
        self.query_depth.fetch_add(1, Ordering::AcqRel);
        if self.query_tx.send(req).is_err() {
            self.query_depth.fetch_sub(1, Ordering::AcqRel);
            return Err(FleetError::ShuttingDown);
        }
        Ok(())
    }

    /// Wakes the worker so it drains the query queue. A full command
    /// queue drops the marker on purpose: full means the worker has
    /// commands pending and drains queries right after them anyway.
    pub(crate) fn pump_queries(&self) -> Result<(), FleetError> {
        match self.tx.try_send(Command::PumpQueries) {
            Ok(()) | Err(TrySendError::Full(_)) => Ok(()),
            Err(TrySendError::Disconnected(_)) => Err(FleetError::ShuttingDown),
        }
    }

    /// Queues one query and wakes the worker (the single-query path).
    pub(crate) fn send_query(&self, req: QueryRequest) -> Result<(), FleetError> {
        self.enqueue_query(req)?;
        self.pump_queries()
    }

    /// Non-blocking data-plane send with depth accounting.
    pub(crate) fn try_ingest(
        &self,
        stream: Arc<str>,
        slice: ObservedTensor,
    ) -> Result<(), crate::error::IngestError> {
        // Optimistically count, then undo on failure: counting after a
        // successful send could transiently read a negative depth on the
        // worker side.
        self.depth.fetch_add(1, Ordering::Acquire);
        match self.tx.try_send(Command::Ingest { stream, slice }) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(Command::Ingest { slice, .. })) => {
                self.depth.fetch_sub(1, Ordering::Release);
                Err(crate::error::IngestError::Backpressure(Box::new(slice)))
            }
            Err(TrySendError::Disconnected(_)) => {
                self.depth.fetch_sub(1, Ordering::Release);
                Err(crate::error::IngestError::ShuttingDown)
            }
            Err(TrySendError::Full(_)) => unreachable!("sent command is Ingest"),
        }
    }

    /// Blocking control-plane send.
    pub(crate) fn send(&self, cmd: Command) -> Result<(), FleetError> {
        self.tx.send(cmd).map_err(|_| FleetError::ShuttingDown)
    }
}
