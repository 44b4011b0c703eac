//! In-process replays of the served ticks.
//!
//! A [`Replica`] is a `Sofia` fed exactly the slices its source's
//! streams were fed over the wire. It is the reference for the output
//! check (served `latest`/`forecast` must match it bit for bit) and the
//! source of the quality metrics. When a traced phase is replayed, the
//! benchmark times each layer's public call on the same input.

use crate::inputs::Source;
use crate::trace::Tracer;
use sofia_core::Sofia;
use sofia_eval::metrics::nre;
use sofia_tensor::kruskal::kruskal_slice;
use sofia_tensor::{DenseTensor, Matrix, ObservedTensor};

pub struct Replica {
    pub model: Sofia,
    /// `(completed, outliers)` of the latest step.
    pub last: Option<(DenseTensor, DenseTensor)>,
    /// Ticks applied so far.
    pub ticks: usize,
    horizon: usize,
    /// Only the first `scored` ticks count towards the quality metrics,
    /// so they do not depend on how many ticks a run got through.
    scored: usize,
    nre_sum: f64,
    nre_n: usize,
    afe_sum: f64,
    afe_n: usize,
    pub observed: u64,
    pub outliers: u64,
}

/// Runs `f` inside a span when tracing, plainly otherwise.
pub fn traced<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    tick: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, tick, f),
        None => f(),
    }
}

impl Replica {
    pub fn new(model: Sofia, horizon: usize, scored: usize) -> Replica {
        Replica {
            model,
            last: None,
            ticks: 0,
            horizon,
            scored,
            nre_sum: 0.0,
            nre_n: 0,
            afe_sum: 0.0,
            afe_n: 0,
            observed: 0,
            outliers: 0,
        }
    }

    /// Applies the source's slice for the next tick the way the serving
    /// shard does: the one-step drift probe, then `Sofia::step`, called
    /// as its two halves (the Lemma 2 update and the Eq. 27
    /// reconstruction) so each can be timed.
    pub fn advance(&mut self, source: &Source, mut tracer: Option<&mut Tracer>) {
        let k = self.ticks;
        let tick = k as u64;
        let slice: &ObservedTensor = source.slice(k);
        let model = &mut self.model;
        let probe = traced(&mut tracer, "core.forecast1", tick, || {
            model.forecast_slice(1)
        });
        std::hint::black_box(probe);
        let (u, outliers) = traced(&mut tracer, "core.update", tick, || {
            model.update_only(slice)
        });
        let refs: Vec<&Matrix> = model.factors().iter().collect();
        let completed = traced(&mut tracer, "tensor.kruskal", tick, || {
            kruskal_slice(&refs, &u)
        });

        if k < self.scored {
            self.nre_sum += nre(&completed, source.truth(k));
            self.nre_n += 1;
        }
        self.observed += slice.count_observed() as u64;
        self.outliers += outliers.data().iter().filter(|v| **v != 0.0).count() as u64;
        self.last = Some((completed, outliers));
        self.ticks += 1;
        // AFE over the next `horizon` ticks, once per horizon.
        if self.ticks.is_multiple_of(self.horizon) && self.ticks + self.horizon <= self.scored {
            for h in 1..=self.horizon {
                let forecast = self.model.forecast_slice(h);
                self.afe_sum += nre(&forecast, source.truth(k + h));
                self.afe_n += 1;
            }
        }
    }

    /// Sum and count of the reconstructions' NREs against the truth.
    pub fn imputation_nre(&self) -> (f64, usize) {
        (self.nre_sum, self.nre_n)
    }

    /// Sum and count of the forecast errors (the paper's AFE terms).
    pub fn forecast_nre(&self) -> (f64, usize) {
        (self.afe_sum, self.afe_n)
    }
}

/// Brings every replica up to `ticks`, splitting the replicas over two
/// threads (untraced, so the output check costs no more than it must).
pub fn catch_up(replicas: &mut [Replica], sources: &[Source], ticks: usize) {
    let half = replicas.len().div_ceil(2);
    std::thread::scope(|scope| {
        for (chunk, srcs) in replicas.chunks_mut(half).zip(sources.chunks(half)) {
            scope.spawn(move || {
                for (replica, source) in chunk.iter_mut().zip(srcs) {
                    while replica.ticks < ticks {
                        replica.advance(source, None);
                    }
                }
            });
        }
    });
}
