//! Spans recorded by the benchmark around its own calls into each layer
//! (the program itself is not instrumented). Held in memory, written out
//! when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub tick: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// One thread's span recorder. Spans nest: a span opened while another
/// is open becomes its child.
pub struct Tracer {
    epoch: Instant,
    thread: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: &'static str) -> Tracer {
        Tracer {
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, tick: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            tick,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn span<R>(&mut self, name: &'static str, tick: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, tick);
        let out = f();
        self.exit(id);
        out
    }

    pub fn thread(&self) -> &'static str {
        self.thread
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children lie inside their parent's interval).
    pub fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.us();
            }
        }
        own
    }

    /// Durations of the spans named `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }
}

/// Writes every span as one tab-separated line:
/// `thread id name tick start_ns end_ns parent self_us`.
pub fn write_spans(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "thread\tid\tname\ttick\tstart_ns\tend_ns\tparent\tself_us"
    )?;
    for t in tracers {
        for (i, (s, own)) in t.spans.iter().zip(t.self_us()).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{i}\t{}\t{}\t{}\t{}\t{parent}\t{own:.3}",
                t.thread, s.name, s.tick, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}
