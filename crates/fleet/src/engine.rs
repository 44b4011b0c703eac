//! The [`Fleet`] engine: registration, ingest, queries, durability,
//! shutdown.

use crate::durability::{recover_all, CheckpointPolicy};
use crate::error::{FleetError, IngestError};
use crate::model::ModelHandle;
use crate::protocol::{Query, QueryResponse, QueryTicket};
use crate::registry::{Registry, StreamKey};
use crate::shard::{Command, QueryRequest, ShardHandle};
use crate::stats::FleetStats;
use sofia_tensor::ObservedTensor;
use std::sync::mpsc;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads / registry partitions. Streams are hash-partitioned
    /// across shards; steps for streams on different shards run in
    /// parallel.
    pub shards: usize,
    /// Bound of each shard's ingest queue, in commands. A full queue
    /// surfaces as [`IngestError::Backpressure`] instead of blocking.
    pub queue_capacity: usize,
    /// Optional durability policy; `None` disables checkpointing.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Evict a snapshot-capable stream after this many shard steps
    /// without an ingest (LRU by last-ingest step): the stream is
    /// checkpointed, unloaded from memory, and lazily restored on its
    /// next ingest or query. Requires a checkpoint policy; `None`
    /// disables the lifecycle.
    pub evict_idle_after: Option<u64>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            queue_capacity: 1024,
            checkpoint: None,
            evict_idle_after: None,
        }
    }
}

impl FleetConfig {
    /// A config with `shards` shards and defaults elsewhere.
    pub fn with_shards(shards: usize) -> Self {
        FleetConfig {
            shards,
            ..Default::default()
        }
    }
}

/// A sharded multi-stream serving engine.
///
/// `Fleet` manages many named model instances — SOFIA or any
/// [`sofia_core::traits::StreamingFactorizer`] — behind one API:
///
/// * **registration** installs a model for a stream id on its
///   hash-assigned shard;
/// * **ingest** ([`Fleet::try_ingest`]) hands one observed slice to the
///   owning shard's bounded queue without blocking and without locks;
/// * **queries** ([`Fleet::query`], [`Fleet::query_batch`]) send typed
///   [`Query`] requests through the owning shard's query queue — the
///   worker answers them against post-batch state, so no torn reads are
///   possible; [`Fleet::query`] returns a [`QueryTicket`] so callers
///   can pipeline many in-flight queries, and [`Fleet::query_batch`]
///   groups requests by shard into one queue round-trip per involved
///   shard;
/// * **durability** checkpoints every snapshot-capable stream (SOFIA and
///   durable baselines alike) periodically and on shutdown, as tagged v2
///   checkpoint envelopes; [`Fleet::recover`] restores every stream from
///   such a directory, dispatching on the envelope's model kind;
/// * **lifecycle** ([`FleetConfig::evict_idle_after`]) checkpoints and
///   unloads idle streams, restoring them lazily on the next ingest or
///   query.
///
/// See `examples/fleet_serving.rs` for a walkthrough.
pub struct Fleet {
    registry: std::sync::Arc<Registry>,
    shards: Vec<ShardHandle>,
}

impl Fleet {
    /// Starts an engine with the given configuration. Creates the
    /// checkpoint directory if durability is enabled.
    pub fn new(config: FleetConfig) -> Result<Fleet, FleetError> {
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.queue_capacity > 0, "need a positive queue bound");
        assert!(
            config.evict_idle_after.is_none() || config.checkpoint.is_some(),
            "eviction requires a checkpoint policy (an evicted stream is \
             restored from its checkpoint file)"
        );
        assert!(
            config.evict_idle_after != Some(0),
            "evict_idle_after must be positive"
        );
        if let Some(policy) = &config.checkpoint {
            std::fs::create_dir_all(&policy.dir)?;
        }
        let registry = std::sync::Arc::new(Registry::new(config.shards));
        let shards = (0..config.shards)
            .map(|s| {
                ShardHandle::spawn(
                    s,
                    config.queue_capacity,
                    config.checkpoint.clone(),
                    config.evict_idle_after,
                    std::sync::Arc::clone(&registry),
                )
            })
            .collect();
        Ok(Fleet { registry, shards })
    }

    /// Starts an engine and restores every stream checkpointed in the
    /// config's checkpoint directory — SOFIA streams and durable
    /// baselines alike, dispatched on the checkpoint envelope's model
    /// kind (bare pre-envelope v1 SOFIA files load too). Returns the
    /// engine and the number of streams recovered.
    ///
    /// Restored models are bit-exact: their subsequent step outputs
    /// match an uninterrupted run. The latest completed slice is *not*
    /// part of a checkpoint, so a [`Query::Latest`] answers `None` for a
    /// recovered stream until its next step.
    pub fn recover(config: FleetConfig) -> Result<(Fleet, usize), FleetError> {
        let policy = config.checkpoint.clone().ok_or_else(|| {
            FleetError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "recovery requires a checkpoint policy",
            ))
        })?;
        let recovered = recover_all(&policy.dir)?;
        let fleet = Fleet::new(config)?;
        let n = recovered.len();
        for stream in recovered {
            fleet.register(&stream.id, stream.handle)?;
        }
        Ok((fleet, n))
    }

    /// Registers a model under `id` and returns the stream's routing key.
    ///
    /// The key ingests with zero registry involvement; id-based entry
    /// points ([`Fleet::try_ingest_id`], the query methods) look the key
    /// up per call.
    pub fn register(&self, id: &str, model: ModelHandle) -> Result<StreamKey, FleetError> {
        let key = self.registry.insert(id)?;
        let (reply, ready) = mpsc::channel();
        self.shards[key.shard()].send(Command::Register {
            stream: key.interned(),
            model,
            reply,
        })?;
        ready.recv().map_err(|_| FleetError::ShuttingDown)?;
        Ok(key)
    }

    /// Routing key of a registered stream.
    pub fn key(&self, id: &str) -> Option<StreamKey> {
        self.registry.get(id)
    }

    /// Registered stream ids, sorted.
    pub fn stream_ids(&self) -> Vec<String> {
        self.registry.ids()
    }

    /// Number of registered streams.
    pub fn streams(&self) -> usize {
        self.registry.len()
    }

    /// Number of shards (worker threads) the engine runs; what a
    /// network front end advertises in its shard-ownership map.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Data plane: hands `slice` to the owning shard without blocking.
    ///
    /// On a full queue the slice comes back inside
    /// [`IngestError::Backpressure`] — nothing is dropped; the caller
    /// decides whether to retry, shed, or spill. The path takes no lock:
    /// the key carries the route and the bounded queue is the only
    /// synchronization point.
    pub fn try_ingest(&self, key: &StreamKey, slice: ObservedTensor) -> Result<(), IngestError> {
        self.shards[key.shard()].try_ingest(key.interned(), slice)
    }

    /// Id-based [`Fleet::try_ingest`] (one registry lookup per call).
    pub fn try_ingest_id(&self, id: &str, slice: ObservedTensor) -> Result<(), IngestError> {
        match self.registry.get(id) {
            Some(key) => self.try_ingest(&key, slice),
            None => Err(IngestError::UnknownStream(id.to_string())),
        }
    }

    /// Blocking convenience over [`Fleet::try_ingest`]: yields between
    /// retries until the slice is accepted. Returns the number of
    /// backpressure retries taken.
    pub fn ingest_blocking(
        &self,
        key: &StreamKey,
        mut slice: ObservedTensor,
    ) -> Result<u64, IngestError> {
        let mut retries = 0;
        loop {
            match self.try_ingest(key, slice) {
                Ok(()) => return Ok(retries),
                Err(IngestError::Backpressure(returned)) => {
                    slice = *returned;
                    retries += 1;
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one typed [`Query`] to `id`'s shard and returns its
    /// [`QueryTicket`] immediately.
    ///
    /// The request is validated at this boundary ([`Query::validate`] —
    /// e.g. a zero forecast horizon is a typed
    /// [`FleetError::InvalidQuery`], never a model panic) and routed to
    /// the owning shard's query queue, where the worker answers it
    /// against post-batch state. Settle the ticket with
    /// [`QueryTicket::wait`] or poll it with [`QueryTicket::try_take`];
    /// issuing several queries before settling any pipelines them.
    ///
    /// Queries ride their own per-shard queue, so they are **not**
    /// FIFO-ordered with in-flight ingests: a query issued right after
    /// [`Fleet::try_ingest`] may be answered before that slice applies.
    /// For read-your-writes, [`Fleet::flush`] first — anything ingested
    /// before a returned `flush` is visible to every later query.
    pub fn query(&self, id: &str, query: Query) -> Result<QueryTicket, FleetError> {
        query.validate()?;
        let key = self
            .registry
            .get(id)
            .ok_or_else(|| FleetError::UnknownStream(id.to_string()))?;
        let (reply, result) = mpsc::channel();
        self.shards[key.shard()].send_query(QueryRequest {
            stream: key.interned(),
            query,
            reply,
        })?;
        Ok(QueryTicket::new(result))
    }

    /// Answers many queries — possibly against many streams — with
    /// exactly **one queue round-trip per involved shard**.
    ///
    /// Requests are validated and routed up front; each shard's group is
    /// staged onto its query queue and the worker answers the whole
    /// group in one drain. The returned vector is aligned with
    /// `requests`: element `i` answers `requests[i]`, with per-request
    /// failures (unknown stream, invalid query, a panicking model) as
    /// item-level errors. The outer error is reserved for the engine
    /// shutting down underneath the call.
    pub fn query_batch(
        &self,
        requests: &[(&str, Query)],
    ) -> Result<Vec<Result<QueryResponse, FleetError>>, FleetError> {
        Ok(self
            .query_batch_tickets(requests)?
            .into_iter()
            .map(|ticket| ticket.and_then(QueryTicket::wait))
            .collect())
    }

    /// The non-blocking half of [`Fleet::query_batch`]: stages every
    /// request and pumps each involved shard exactly once, then returns
    /// the [`QueryTicket`]s **without waiting** — element `i` settles
    /// `requests[i]` (per-request routing/validation failures are
    /// item-level `Err`s).
    ///
    /// This is what a pipelined front end (e.g. the `sofia-net` TCP
    /// server) builds on: it can stage a whole wire batch, keep reading
    /// the socket, and settle the tickets as it writes replies.
    pub fn query_batch_tickets(
        &self,
        requests: &[(&str, Query)],
    ) -> Result<Vec<Result<QueryTicket, FleetError>>, FleetError> {
        let mut tickets: Vec<Option<Result<QueryTicket, FleetError>>> =
            (0..requests.len()).map(|_| None).collect();
        let mut involved = vec![false; self.shards.len()];
        for (i, (id, query)) in requests.iter().enumerate() {
            if let Err(e) = query.validate() {
                tickets[i] = Some(Err(e));
                continue;
            }
            let Some(key) = self.registry.get(id) else {
                tickets[i] = Some(Err(FleetError::UnknownStream(id.to_string())));
                continue;
            };
            let (reply, result) = mpsc::channel();
            self.shards[key.shard()].enqueue_query(QueryRequest {
                stream: key.interned(),
                query: query.clone(),
                reply,
            })?;
            involved[key.shard()] = true;
            tickets[i] = Some(Ok(QueryTicket::new(result)));
        }
        // One wakeup per involved shard, after its whole group is
        // staged: the worker drains the group in a single round-trip.
        for (shard, involved) in involved.into_iter().enumerate() {
            if involved {
                self.shards[shard].pump_queries()?;
            }
        }
        Ok(tickets
            .into_iter()
            .map(|t| t.expect("every request slot is filled"))
            .collect())
    }

    /// Fleet-wide statistics snapshot (one barrier-free query per shard).
    pub fn fleet_stats(&self) -> Result<FleetStats, FleetError> {
        let mut pending = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (reply, result) = mpsc::channel();
            shard.send(Command::ShardStats { reply })?;
            pending.push(result);
        }
        let mut shards = Vec::with_capacity(pending.len());
        for result in pending {
            shards.push(result.recv().map_err(|_| FleetError::ShuttingDown)?);
        }
        Ok(FleetStats { shards })
    }

    /// Barrier: returns once every slice ingested before this call has
    /// been applied (queues are FIFO, so the flush marker drains last).
    pub fn flush(&self) -> Result<(), FleetError> {
        let mut pending = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (reply, done) = mpsc::channel();
            shard.send(Command::Flush { reply })?;
            pending.push(done);
        }
        for done in pending {
            done.recv().map_err(|_| FleetError::ShuttingDown)?;
        }
        Ok(())
    }

    /// Serializes a stream's current model as checkpoint-envelope text —
    /// the same bit-exact form the durability layer writes to disk and a
    /// `sofia-net` `register` frame accepts.
    ///
    /// The command rides the owning shard's FIFO command queue, so the
    /// returned envelope includes every slice accepted by
    /// [`Fleet::try_ingest`] before this call. Together with
    /// [`Fleet::deregister`] this is the engine half of **stream
    /// migration**: export here, register the envelope on another
    /// process (over the wire or in-process), then deregister the
    /// original. Transient models (no snapshot capability) have no
    /// exportable form and fail with [`FleetError::InvalidQuery`];
    /// evicted streams are exported from their checkpoint file without
    /// being restored.
    pub fn export_stream(&self, id: &str) -> Result<String, FleetError> {
        self.shard_call(id, |stream, reply| Command::Export { stream, reply })
    }

    /// Routes one per-stream control command to the owning shard and
    /// waits for its typed reply — the shared shape of
    /// [`Fleet::export_stream`], [`Fleet::deregister`], and
    /// [`Fleet::checkpoint_stream`].
    fn shard_call<T>(
        &self,
        id: &str,
        command: impl FnOnce(std::sync::Arc<str>, mpsc::Sender<Result<T, FleetError>>) -> Command,
    ) -> Result<T, FleetError> {
        let key = self
            .registry
            .get(id)
            .ok_or_else(|| FleetError::UnknownStream(id.to_string()))?;
        let (reply, result) = mpsc::channel();
        self.shards[key.shard()].send(command(key.interned(), reply))?;
        result.recv().map_err(|_| FleetError::ShuttingDown)?
    }

    /// Removes a stream from serving entirely: the model is unloaded
    /// (resident or evicted), the id freed for re-registration, and the
    /// stream's checkpoint file deleted — a later [`Fleet::recover`]
    /// over the same directory will *not* bring it back. This is the
    /// hand-off half of a migration (see [`Fleet::export_stream`]);
    /// slices already queued for the stream are applied first (the
    /// command is FIFO with ingests), slices sent through a stale
    /// [`StreamKey`] afterwards are counted as drops, exactly like a
    /// quarantine.
    pub fn deregister(&self, id: &str) -> Result<(), FleetError> {
        self.shard_call(id, |stream, reply| Command::Deregister { stream, reply })
    }

    /// Checkpoints one stream immediately: `Ok(true)` when its state is
    /// durable on disk after the call (written now, or already current
    /// for an evicted stream), `Ok(false)` when there is nothing to
    /// persist (no checkpoint policy, or a transient model).
    ///
    /// This is the durability handshake a migration needs: the
    /// `sofia-net` server persists a wire-registered stream through
    /// this before the coordinator deletes the source's copy, so there
    /// is no window in which the stream's only durable state is a file
    /// that is about to be removed.
    pub fn checkpoint_stream(&self, id: &str) -> Result<bool, FleetError> {
        self.shard_call(id, |stream, reply| Command::CheckpointStream {
            stream,
            reply,
        })
    }

    /// Checkpoints every checkpointable stream now; returns how many
    /// checkpoints were written. No-op (0) without a checkpoint policy.
    pub fn checkpoint_now(&self) -> Result<usize, FleetError> {
        let mut pending = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (reply, result) = mpsc::channel();
            shard.send(Command::Checkpoint { reply })?;
            pending.push(result);
        }
        let mut written = 0;
        for result in pending {
            written += result.recv().map_err(|_| FleetError::ShuttingDown)??;
        }
        Ok(written)
    }

    /// Graceful shutdown: drains every queue, writes a final checkpoint
    /// per checkpointable stream, and joins the workers. Returns the
    /// number of final checkpoints written.
    pub fn shutdown(mut self) -> Result<usize, FleetError> {
        self.shutdown_inner()
    }

    /// Ungraceful exit: tears the engine down **without** draining queues
    /// or writing final checkpoints, leaving only state already made
    /// durable by the periodic policy — exactly the on-disk picture a
    /// crash leaves behind. Exists so crash recovery can be tested
    /// honestly; production callers want [`Fleet::shutdown`].
    pub fn abort(mut self) {
        for shard in std::mem::take(&mut self.shards) {
            // Dropping the sender disconnects the worker, which exits
            // without checkpointing (see the shard loop).
            drop(shard.tx);
            if let Some(join) = shard.join {
                let _ = join.join();
            }
        }
    }

    fn shutdown_inner(&mut self) -> Result<usize, FleetError> {
        let mut pending = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (reply, result) = mpsc::channel();
            // The Shutdown marker is FIFO-ordered behind queued slices,
            // so the worker applies everything before exiting.
            if shard.send(Command::Shutdown { reply }).is_ok() {
                pending.push(Some(result));
            } else {
                pending.push(None);
            }
        }
        let mut written = 0;
        for result in pending.into_iter().flatten() {
            if let Ok(count) = result.recv() {
                written += count?;
            }
        }
        for shard in &mut self.shards {
            if let Some(join) = shard.join.take() {
                let _ = join.join();
            }
        }
        Ok(written)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Best-effort graceful exit if the caller never called
        // `shutdown()`; errors are unreportable here.
        if self.shards.iter().any(|s| s.join.is_some()) {
            let _ = self.shutdown_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{MetricKind, StreamStats};
    use sofia_core::traits::{StepOutput, StreamingFactorizer};
    use sofia_tensor::{DenseTensor, Shape};
    use std::time::Duration;

    /// Test model: completion counts the steps taken, so outputs encode
    /// per-stream ordering; forecast reports the count too.
    #[derive(Debug, Clone)]
    struct Counter {
        steps: u64,
        sleep: Duration,
    }

    impl Counter {
        fn new() -> Self {
            Counter {
                steps: 0,
                sleep: Duration::ZERO,
            }
        }
        fn slow(ms: u64) -> Self {
            Counter {
                steps: 0,
                sleep: Duration::from_millis(ms),
            }
        }
    }

    impl StreamingFactorizer for Counter {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn step(&mut self, slice: &ObservedTensor) -> StepOutput {
            if !self.sleep.is_zero() {
                std::thread::sleep(self.sleep);
            }
            self.steps += 1;
            let mut completed = slice.values().clone();
            for v in completed.data_mut() {
                *v = self.steps as f64;
            }
            StepOutput {
                completed,
                outliers: None,
            }
        }
        fn forecast(&self, _h: usize) -> Option<DenseTensor> {
            Some(DenseTensor::full(Shape::new(&[1]), self.steps as f64))
        }
    }

    fn slice(v: f64) -> ObservedTensor {
        ObservedTensor::fully_observed(DenseTensor::full(Shape::new(&[2, 2]), v))
    }

    /// Typed-plane shorthands: the tests below exercise serving
    /// semantics, not response matching, so unwrap the variant once
    /// here.
    fn latest(fleet: &Fleet, id: &str) -> Result<Option<StepOutput>, FleetError> {
        Ok(fleet.query(id, Query::Latest)?.wait()?.expect_latest())
    }

    fn forecast(fleet: &Fleet, id: &str, h: usize) -> Result<Option<DenseTensor>, FleetError> {
        Ok(fleet
            .query(id, Query::Forecast { horizon: h })?
            .wait()?
            .expect_forecast())
    }

    fn stream_stats(fleet: &Fleet, id: &str) -> Result<StreamStats, FleetError> {
        Ok(fleet
            .query(id, Query::StreamStats)?
            .wait()?
            .expect_stream_stats())
    }

    fn small_fleet(shards: usize) -> Fleet {
        Fleet::new(FleetConfig {
            shards,
            queue_capacity: 64,
            checkpoint: None,
            evict_idle_after: None,
        })
        .unwrap()
    }

    #[test]
    fn register_ingest_flush_query() {
        let fleet = small_fleet(2);
        let key = fleet
            .register("s1", ModelHandle::boxed(Box::new(Counter::new())))
            .unwrap();
        for t in 0..5 {
            fleet.try_ingest(&key, slice(t as f64)).unwrap();
        }
        fleet.flush().unwrap();
        let last = latest(&fleet, "s1").unwrap().expect("has stepped");
        assert_eq!(last.completed.get(&[0, 0]), 5.0);
        let fc = forecast(&fleet, "s1", 1).unwrap().expect("forecasts");
        assert_eq!(fc.get(&[0]), 5.0);
        let stats = stream_stats(&fleet, "s1").unwrap();
        assert_eq!(stats.steps, 5);
        assert_eq!(stats.ingest_latency.count(), 5);
        assert!(stats.ingest_latency.p99().is_some());
        // Counter forecasts shape [1] against [2, 2] slices: the drift
        // probe's shape guard must keep the sketch empty, not poison it.
        assert!(stats.forecast_error.is_empty());
    }

    #[test]
    fn drift_sketch_records_prediction_residuals() {
        /// Forecasts the value of its last slice, shaped like it — so
        /// the residual of the pre-step forecast against the next slice
        /// is exactly the step-to-step relative change.
        struct Echo {
            last: Option<DenseTensor>,
        }
        impl StreamingFactorizer for Echo {
            fn name(&self) -> &'static str {
                "echo-forecast"
            }
            fn step(&mut self, slice: &ObservedTensor) -> StepOutput {
                self.last = Some(slice.values().clone());
                StepOutput {
                    completed: slice.values().clone(),
                    outliers: None,
                }
            }
            fn forecast(&self, _h: usize) -> Option<DenseTensor> {
                self.last.clone()
            }
        }

        let fleet = small_fleet(1);
        let key = fleet
            .register("drift", ModelHandle::boxed(Box::new(Echo { last: None })))
            .unwrap();
        // Constant stream of 2s after the first slice: every recorded
        // residual is ‖2−2‖/‖2‖ = 0 except the second step's ‖1−2‖/‖2‖.
        fleet.try_ingest(&key, slice(1.0)).unwrap();
        for _ in 0..4 {
            fleet.try_ingest(&key, slice(2.0)).unwrap();
        }
        fleet.flush().unwrap();
        let stats = stream_stats(&fleet, "drift").unwrap();
        // Slice 1 has no forecast yet; slices 2..=5 each record one.
        assert_eq!(stats.forecast_error.count(), 4);
        assert_eq!(stats.forecast_error.max(), Some(0.5));
        assert_eq!(stats.forecast_error.min(), Some(0.0));
        // The same numbers answer as a typed quantile query.
        let p_max = fleet
            .query(
                "drift",
                Query::Quantile {
                    metric: MetricKind::ForecastError,
                    q: 1.0,
                },
            )
            .unwrap()
            .wait()
            .unwrap()
            .expect_quantile();
        assert_eq!(p_max, Some(0.5));
        let empty_metric = fleet
            .query(
                "drift",
                Query::Quantile {
                    metric: MetricKind::IngestLatency,
                    q: 0.5,
                },
            )
            .unwrap()
            .wait()
            .unwrap()
            .expect_quantile();
        assert!(empty_metric.is_some(), "latency sketch has samples");
        fleet.shutdown().unwrap();
    }

    #[test]
    fn many_streams_keep_independent_state() {
        let fleet = small_fleet(3);
        let keys: Vec<StreamKey> = (0..12)
            .map(|i| {
                fleet
                    .register(
                        &format!("stream-{i}"),
                        ModelHandle::boxed(Box::new(Counter::new())),
                    )
                    .unwrap()
            })
            .collect();
        // Stream i gets i+1 slices.
        for (i, key) in keys.iter().enumerate() {
            for _ in 0..=i {
                fleet.try_ingest(key, slice(0.0)).unwrap();
            }
        }
        fleet.flush().unwrap();
        for (i, key) in keys.iter().enumerate() {
            let last = latest(&fleet, key.id()).unwrap().unwrap();
            assert_eq!(last.completed.get(&[0, 0]), (i + 1) as f64, "stream {i}");
        }
        let stats = fleet.fleet_stats().unwrap();
        assert_eq!(stats.streams(), 12);
        assert_eq!(stats.steps(), (1..=12).sum::<usize>() as u64);
        assert_eq!(stats.queue_depth(), 0);
    }

    #[test]
    fn duplicate_and_unknown_streams_error() {
        let fleet = small_fleet(1);
        fleet
            .register("s1", ModelHandle::boxed(Box::new(Counter::new())))
            .unwrap();
        assert!(matches!(
            fleet.register("s1", ModelHandle::boxed(Box::new(Counter::new()))),
            Err(FleetError::DuplicateStream(_))
        ));
        assert!(matches!(
            latest(&fleet, "ghost"),
            Err(FleetError::UnknownStream(_))
        ));
        assert!(matches!(
            fleet.try_ingest_id("ghost", slice(0.0)),
            Err(IngestError::UnknownStream(_))
        ));
    }

    #[test]
    fn backpressure_returns_the_slice() {
        let fleet = Fleet::new(FleetConfig {
            shards: 1,
            queue_capacity: 1,
            checkpoint: None,
            evict_idle_after: None,
        })
        .unwrap();
        let key = fleet
            .register("slow", ModelHandle::boxed(Box::new(Counter::slow(50))))
            .unwrap();
        // Fill until the bounded queue pushes back. The worker consumes
        // one slice every 50 ms, so a tight loop must hit Backpressure.
        let mut sent = 0u64;
        let mut hit = None;
        for t in 0..200 {
            match fleet.try_ingest(&key, slice(t as f64)) {
                Ok(()) => sent += 1,
                Err(IngestError::Backpressure(returned)) => {
                    hit = Some((t, returned));
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let (t, returned) = hit.expect("tight loop should outrun a 50ms/step worker");
        // The exact rejected slice came back — nothing was dropped.
        assert_eq!(returned.values().get(&[0, 0]), t as f64);
        // Everything accepted before the rejection is eventually applied.
        fleet.flush().unwrap();
        assert_eq!(stream_stats(&fleet, "slow").unwrap().steps, sent);
    }

    #[test]
    fn ingest_blocking_retries_until_accepted() {
        let fleet = Fleet::new(FleetConfig {
            shards: 1,
            queue_capacity: 1,
            checkpoint: None,
            evict_idle_after: None,
        })
        .unwrap();
        let key = fleet
            .register("slow", ModelHandle::boxed(Box::new(Counter::slow(5))))
            .unwrap();
        let mut total_retries = 0;
        for t in 0..20 {
            total_retries += fleet.ingest_blocking(&key, slice(t as f64)).unwrap();
        }
        fleet.flush().unwrap();
        assert_eq!(stream_stats(&fleet, "slow").unwrap().steps, 20);
        assert!(total_retries > 0, "a 1-deep queue must push back");
    }

    #[test]
    fn shards_process_in_parallel() {
        // Two streams, 20 ms per step, 10 steps each. Serial would take
        // ≥ 400 ms of step work; two shards overlap the sleeps (sleeping
        // threads overlap even on one core), so the barrier returns in
        // well under the serial total. The 320 ms bound leaves ~120 ms
        // of scheduler slack over the 200 ms ideal so a loaded CI
        // machine doesn't flake it, while staying 80 ms below serial.
        let fleet = small_fleet(2);
        let pick = |shard: usize| {
            (0..100)
                .map(|i| format!("s{i}"))
                .find(|id| crate::registry::shard_of(id, 2) == shard)
                .expect("some id routes to each shard")
        };
        let a = fleet
            .register(&pick(0), ModelHandle::boxed(Box::new(Counter::slow(20))))
            .unwrap();
        let b = fleet
            .register(&pick(1), ModelHandle::boxed(Box::new(Counter::slow(20))))
            .unwrap();
        assert_ne!(a.shard(), b.shard());
        let start = std::time::Instant::now();
        for _ in 0..10 {
            fleet.try_ingest(&a, slice(0.0)).unwrap();
            fleet.try_ingest(&b, slice(0.0)).unwrap();
        }
        fleet.flush().unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(320),
            "two shards should overlap sleeps: {elapsed:?}"
        );
    }

    #[test]
    fn panicking_model_is_quarantined_not_the_shard() {
        struct PanicAfter {
            steps: u64,
            after: u64,
        }
        impl StreamingFactorizer for PanicAfter {
            fn name(&self) -> &'static str {
                "panic-after"
            }
            fn step(&mut self, slice: &ObservedTensor) -> StepOutput {
                self.steps += 1;
                assert!(self.steps < self.after, "synthetic model failure");
                StepOutput {
                    completed: slice.values().clone(),
                    outliers: None,
                }
            }
        }

        // One shard, so both streams share the worker the bad model
        // panics on.
        let fleet = small_fleet(1);
        let bad = fleet
            .register(
                "bad",
                ModelHandle::boxed(Box::new(PanicAfter { steps: 0, after: 2 })),
            )
            .unwrap();
        let good = fleet
            .register("good", ModelHandle::boxed(Box::new(Counter::new())))
            .unwrap();
        for t in 0..3 {
            fleet.try_ingest(&bad, slice(t as f64)).unwrap();
            fleet.try_ingest(&good, slice(t as f64)).unwrap();
        }
        fleet.flush().unwrap();
        // The good stream kept serving through its neighbour's panic…
        assert_eq!(stream_stats(&fleet, "good").unwrap().steps, 3);
        // …and the bad stream is quarantined, not wedging the shard.
        assert!(matches!(
            latest(&fleet, "bad"),
            Err(FleetError::UnknownStream(_))
        ));
        // Slices sent through the stale key are counted as drops (one of
        // the three above raced the quarantine already).
        fleet.try_ingest(&bad, slice(9.0)).unwrap();
        fleet.flush().unwrap();
        let stats = fleet.fleet_stats().unwrap();
        assert_eq!(stats.dropped(), 2, "post-panic slices are counted");
        assert_eq!(stats.quarantines(), 1, "the panic is counted once");
        // The id is freed, so a replacement model can take over.
        let bad2 = fleet
            .register("bad", ModelHandle::boxed(Box::new(Counter::new())))
            .unwrap();
        fleet.try_ingest(&bad2, slice(0.0)).unwrap();
        fleet.flush().unwrap();
        assert_eq!(stream_stats(&fleet, "bad").unwrap().steps, 1);
    }

    /// A tiny snapshot-capable model, so the checkpoint paths really
    /// write (the `Counter` test model is transient).
    fn durable_sgd(seed: u64) -> ModelHandle {
        let f = |s: u64| {
            sofia_tensor::Matrix::from_fn(2, 2, |i, j| 0.5 + (i + 2 * j) as f64 * 0.1 + s as f64)
        };
        ModelHandle::durable(sofia_baselines::OnlineSgd::new(
            vec![f(seed), f(seed + 1)],
            0.1,
        ))
    }

    /// A fresh per-process checkpoint directory path (any stale copy
    /// removed; the engine creates it on start).
    fn scratch_checkpoint_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sofia-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn failed_periodic_checkpoints_are_counted_and_retried_per_interval() {
        use crate::durability::{checkpoint_path, CheckpointPolicy};
        const EVERY: u64 = 2;
        let dir = scratch_checkpoint_dir("ckpt-fail");
        let fleet = Fleet::new(FleetConfig {
            shards: 1,
            queue_capacity: 64,
            checkpoint: Some(CheckpointPolicy::new(&dir, EVERY)),
            evict_idle_after: None,
        })
        .unwrap();
        let durable = fleet.register("durable", durable_sgd(1)).unwrap();
        // Same shard (there is only one), no checkpoints of its own.
        let sibling = fleet
            .register("sibling", ModelHandle::boxed(Box::new(Counter::new())))
            .unwrap();
        // Deleting the directory makes every write fail whatever the
        // process's privileges (a root process ignores permission bits).
        std::fs::remove_dir_all(&dir).unwrap();

        for t in 0..3 * EVERY {
            fleet.try_ingest(&durable, slice(t as f64)).unwrap();
            fleet.try_ingest(&sibling, slice(t as f64)).unwrap();
        }
        fleet.flush().unwrap();
        // One attempt per interval boundary, not one per ingest after
        // the first failure (which would read 2·EVERY + 1).
        assert_eq!(fleet.fleet_stats().unwrap().checkpoint_failures(), 3);
        let stats = stream_stats(&fleet, "durable").unwrap();
        assert_eq!(stats.steps, 3 * EVERY, "the failing stream keeps serving");
        assert_eq!(
            stats.steps_since_checkpoint,
            3 * EVERY,
            "nothing is durable yet"
        );
        assert_eq!(stream_stats(&fleet, "sibling").unwrap().steps, 3 * EVERY);
        assert!(forecast(&fleet, "sibling", 1).unwrap().is_some());

        // Once the directory is back, the next boundary write succeeds.
        std::fs::create_dir_all(&dir).unwrap();
        for t in 0..EVERY {
            fleet.try_ingest(&durable, slice(t as f64)).unwrap();
        }
        fleet.flush().unwrap();
        assert_eq!(
            stream_stats(&fleet, "durable")
                .unwrap()
                .steps_since_checkpoint,
            0
        );
        assert!(checkpoint_path(&dir, "durable").exists());
        assert_eq!(fleet.fleet_stats().unwrap().checkpoint_failures(), 3);
        fleet.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_checkpoint_interval_checkpoints_every_step() {
        use crate::durability::{checkpoint_path, CheckpointPolicy};
        let dir = scratch_checkpoint_dir("ckpt-zero");
        // The field is public, so 0 can bypass `CheckpointPolicy::new`.
        let policy = CheckpointPolicy {
            dir: dir.clone(),
            every_steps: 0,
        };
        let fleet = Fleet::new(FleetConfig {
            shards: 1,
            queue_capacity: 64,
            checkpoint: Some(policy),
            evict_idle_after: None,
        })
        .unwrap();
        let key = fleet.register("s", durable_sgd(1)).unwrap();
        for t in 0..2 {
            fleet.try_ingest(&key, slice(t as f64)).unwrap();
        }
        fleet.flush().unwrap();
        let stats = stream_stats(&fleet, "s").unwrap();
        assert_eq!((stats.steps, stats.steps_since_checkpoint), (2, 0));
        assert!(checkpoint_path(&dir, "s").exists());
        fleet.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_eviction_checkpoints_are_counted() {
        use crate::durability::CheckpointPolicy;
        let dir = scratch_checkpoint_dir("evict-fail");
        let fleet = Fleet::new(FleetConfig {
            shards: 1,
            queue_capacity: 64,
            checkpoint: Some(CheckpointPolicy::new(&dir, 1_000_000)),
            evict_idle_after: Some(2),
        })
        .unwrap();
        fleet.register("idle", durable_sgd(1)).unwrap();
        let busy = fleet
            .register("busy", ModelHandle::boxed(Box::new(Counter::new())))
            .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        // Two idle intervals: the eviction is attempted, fails, backs
        // off one interval, and fails again.
        for t in 0..4 {
            fleet.try_ingest(&busy, slice(t as f64)).unwrap();
            fleet.flush().unwrap();
        }
        let stats = fleet.fleet_stats().unwrap();
        assert_eq!(stats.checkpoint_failures(), 2);
        assert_eq!(stats.evictions(), 0);
        assert_eq!(stats.streams(), 2, "the unsaved stream stays resident");
        assert_eq!(stream_stats(&fleet, "idle").unwrap().steps, 0);
    }

    #[test]
    fn query_panic_fails_the_query_not_the_shard() {
        struct AssertingForecast;
        impl StreamingFactorizer for AssertingForecast {
            fn name(&self) -> &'static str {
                "asserting-forecast"
            }
            fn step(&mut self, slice: &ObservedTensor) -> StepOutput {
                StepOutput {
                    completed: slice.values().clone(),
                    outliers: None,
                }
            }
            fn forecast(&self, h: usize) -> Option<DenseTensor> {
                // A concrete-model limit the protocol cannot know about
                // (the universally invalid h == 0 never gets this far:
                // `Query::validate` rejects it at the API boundary).
                assert!(h < 10, "synthetic horizon limit");
                Some(DenseTensor::full(Shape::new(&[1]), h as f64))
            }
        }

        let fleet = small_fleet(1);
        let key = fleet
            .register("s", ModelHandle::boxed(Box::new(AssertingForecast)))
            .unwrap();
        fleet.try_ingest(&key, slice(1.0)).unwrap();
        fleet.flush().unwrap();
        // h == 0 is a typed boundary rejection — no shard, no model, no
        // panic guard involved…
        assert!(matches!(
            fleet.query("s", Query::Forecast { horizon: 0 }),
            Err(FleetError::InvalidQuery { .. })
        ));
        // …while a model-specific assert deeper in still fails only the
        // one query, as ModelPanicked…
        assert!(matches!(
            forecast(&fleet, "s", 10),
            Err(FleetError::ModelPanicked { .. })
        ));
        // …and the stream (and the shard) keep serving.
        let fc = forecast(&fleet, "s", 2).unwrap().expect("forecasts");
        assert_eq!(fc.get(&[0]), 2.0);
        fleet.try_ingest(&key, slice(2.0)).unwrap();
        fleet.flush().unwrap();
        assert_eq!(stream_stats(&fleet, "s").unwrap().steps, 2);
    }

    #[test]
    fn export_and_deregister_migrate_a_stream_between_fleets() {
        use crate::durability::{checkpoint_path, restore_handle, CheckpointPolicy};
        use sofia_baselines::OnlineSgd;

        let dir = std::env::temp_dir().join(format!("sofia-fleet-migrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let make_model = || {
            let f = |s: u64| {
                sofia_tensor::Matrix::from_fn(2, 2, |i, j| {
                    1.0 + (i + 2 * j) as f64 * 0.1 + s as f64
                })
            };
            OnlineSgd::new(vec![f(3), f(4)], 0.1)
        };

        // Source engine with durability; the stream steps 3 times and is
        // checkpointed so deregister has a file to delete.
        let source = Fleet::new(FleetConfig {
            shards: 2,
            queue_capacity: 64,
            checkpoint: Some(CheckpointPolicy::new(&dir, 1_000)),
            evict_idle_after: None,
        })
        .unwrap();
        let key = source
            .register("mig", ModelHandle::durable(make_model()))
            .unwrap();
        for t in 0..3 {
            source.try_ingest(&key, slice(0.5 + t as f64)).unwrap();
        }
        source.flush().unwrap();
        assert_eq!(source.checkpoint_now().unwrap(), 1);
        assert!(checkpoint_path(&dir, "mig").exists());

        // Export rides the command queue, so it reflects all 3 steps.
        let envelope = source.export_stream("mig").unwrap();

        // The envelope registers on a second engine through the same
        // restore path crash recovery (and the wire) uses…
        let target = small_fleet(1);
        target
            .register("mig", restore_handle("mig", &envelope).unwrap())
            .unwrap();
        assert_eq!(stream_stats(&target, "mig").unwrap().steps, 3);

        // …and the source lets go completely: model unloaded, id freed,
        // checkpoint file gone (recovery cannot resurrect the stream).
        source.deregister("mig").unwrap();
        assert!(!checkpoint_path(&dir, "mig").exists());
        assert!(matches!(
            latest(&source, "mig"),
            Err(FleetError::UnknownStream(_))
        ));
        assert!(matches!(
            source.deregister("mig"),
            Err(FleetError::UnknownStream(_))
        ));
        // The freed id is immediately reusable.
        source
            .register("mig", ModelHandle::boxed(Box::new(Counter::new())))
            .unwrap();

        // Continuing on the target is bit-exact against a control model
        // that never migrated.
        let control = small_fleet(1);
        let ckey = control
            .register("mig", ModelHandle::durable(make_model()))
            .unwrap();
        for t in 0..5 {
            control.try_ingest(&ckey, slice(0.5 + t as f64)).unwrap();
        }
        for t in 3..5 {
            target.try_ingest_id("mig", slice(0.5 + t as f64)).unwrap();
        }
        control.flush().unwrap();
        target.flush().unwrap();
        let a = latest(&control, "mig").unwrap().expect("stepped");
        let b = latest(&target, "mig").unwrap().expect("stepped");
        assert_eq!(a.completed.data(), b.completed.data(), "migration diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_rejects_unknown_and_transient_streams() {
        let fleet = small_fleet(1);
        assert!(matches!(
            fleet.export_stream("ghost"),
            Err(FleetError::UnknownStream(_))
        ));
        // A transient model has no snapshot capability, hence no
        // exportable envelope — typed rejection, not a panic.
        fleet
            .register("t", ModelHandle::boxed(Box::new(Counter::new())))
            .unwrap();
        assert!(matches!(
            fleet.export_stream("t"),
            Err(FleetError::InvalidQuery { .. })
        ));
    }

    #[test]
    fn shutdown_is_clean_and_drop_safe() {
        let fleet = small_fleet(2);
        let key = fleet
            .register("s", ModelHandle::boxed(Box::new(Counter::new())))
            .unwrap();
        fleet.try_ingest(&key, slice(1.0)).unwrap();
        assert_eq!(fleet.shutdown().unwrap(), 0);
        // Dropping without shutdown must also not hang or panic.
        let fleet2 = small_fleet(1);
        fleet2
            .register("s", ModelHandle::boxed(Box::new(Counter::new())))
            .unwrap();
        drop(fleet2);
    }

    #[test]
    fn graceful_shutdown_answers_in_flight_queries() {
        // A ticket issued before `shutdown()` gets its answer — shutdown
        // "drains every queue", the query queue included — even when the
        // query sat behind a slow ingest batch the whole time. (A crash
        // via `abort()` resolves such tickets to ShuttingDown instead.)
        // Back-to-back sends (no sleeps) so ingest, query, and the
        // Shutdown marker usually land before the worker's first
        // wakeup — the exact interleaving a missing final drain drops.
        let fleet = small_fleet(1);
        let key = fleet
            .register("slow", ModelHandle::boxed(Box::new(Counter::slow(30))))
            .unwrap();
        fleet.try_ingest(&key, slice(1.0)).unwrap();
        let ticket = fleet.query("slow", Query::StreamStats).unwrap();
        fleet.shutdown().unwrap();
        let stats = ticket
            .wait()
            .expect("answered, not ShuttingDown")
            .expect_stream_stats();
        assert!(
            stats.steps <= 1,
            "a stats answer, whichever drain served it"
        );
    }

    // The concurrent-query contract: one engine, many caller threads.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Fleet>();
    };

    #[test]
    fn tickets_poll_and_pipeline() {
        let fleet = small_fleet(1);
        let key = fleet
            .register("slow", ModelHandle::boxed(Box::new(Counter::slow(30))))
            .unwrap();
        // Queries are not FIFO-ordered with in-flight ingests; flush
        // gives read-your-writes, after which every query must see the
        // step.
        fleet.try_ingest(&key, slice(1.0)).unwrap();
        fleet.flush().unwrap();
        let mut ticket = fleet.query("slow", Query::StreamStats).unwrap();
        let response = loop {
            match ticket.try_take() {
                Some(res) => break res.unwrap(),
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let QueryResponse::StreamStats(stats) = response else {
            panic!("mismatched response variant");
        };
        assert_eq!(stats.steps, 1, "flushed ingest is visible to the query");
        // A spent ticket polls as None forever after.
        assert!(ticket.try_take().is_none());

        // Pipelining: both tickets in flight before either is settled,
        // settled in reverse order.
        let t1 = fleet.query("slow", Query::Latest).unwrap();
        let t2 = fleet.query("slow", Query::Forecast { horizon: 1 }).unwrap();
        assert!(matches!(
            t2.wait().unwrap(),
            QueryResponse::Forecast(Some(_))
        ));
        assert!(matches!(t1.wait().unwrap(), QueryResponse::Latest(Some(_))));
    }

    #[test]
    fn query_batch_aligns_responses_and_isolates_failures() {
        let fleet = small_fleet(2);
        for id in ["a", "b"] {
            let key = fleet
                .register(id, ModelHandle::boxed(Box::new(Counter::new())))
                .unwrap();
            fleet.try_ingest(&key, slice(1.0)).unwrap();
        }
        fleet.flush().unwrap();
        let responses = fleet
            .query_batch(&[
                ("a", Query::Latest),
                ("ghost", Query::Latest),
                ("b", Query::Forecast { horizon: 0 }),
                ("b", Query::StreamStats),
            ])
            .unwrap();
        assert_eq!(responses.len(), 4);
        assert!(matches!(responses[0], Ok(QueryResponse::Latest(Some(_)))));
        assert!(matches!(responses[1], Err(FleetError::UnknownStream(_))));
        assert!(matches!(responses[2], Err(FleetError::InvalidQuery { .. })));
        let Ok(QueryResponse::StreamStats(ref stats)) = responses[3] else {
            panic!("aligned response");
        };
        assert_eq!(stats.stream, "b");
        assert_eq!(stats.steps, 1);
    }

    #[test]
    fn stats_reflect_batching() {
        let fleet = small_fleet(1);
        let key = fleet
            .register("s", ModelHandle::boxed(Box::new(Counter::slow(10))))
            .unwrap();
        // While the worker sleeps on the first slice, the rest pile up
        // and must drain as one batch.
        for t in 0..8 {
            fleet.try_ingest(&key, slice(t as f64)).unwrap();
        }
        fleet.flush().unwrap();
        let stats = fleet.fleet_stats().unwrap();
        assert_eq!(stats.steps(), 8);
        assert!(
            stats.shards[0].max_batch >= 2,
            "queued slices should drain in one wakeup: {:?}",
            stats.shards[0]
        );
    }
}
