//! In-memory spans recorded around calls into the emulator's layers,
//! written out as Chrome-trace JSON when the run ends.
//!
//! Spans are recorded by the benchmark, never inside the program: each
//! one brackets a call into a layer's public entry.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The operation (GEMM call, request or burst) the span belongs to;
    /// every span of one operation shares it.
    pub op: u64,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Display row in the trace viewer (overlapping requests get their own).
    pub lane: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was made.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; [`Recorder::close`] ends it.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let t = self.now();
        self.record(name, op, parent, t, t, 0)
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now();
    }

    /// Time `f` as a closed span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.open(name, op, parent);
        let r = f();
        self.close(idx);
        r
    }

    /// Record an already-finished interval.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        lane: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
            lane,
        });
        self.spans.len() - 1
    }

    /// Durations in ms of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that the union of its children covers.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.ns() - covered
            })
            .collect()
    }

    /// Chrome `trace_event` JSON (complete events, microsecond times),
    /// each event carrying its operation id, parent name and self time.
    pub fn chrome_json(&self) -> String {
        let self_ns = self.self_ns();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("", |p| self.spans[p].name);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"parent\":\"{}\",\"self_us\":{:.3}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.op,
                parent,
                self_ns[i] as f64 / 1e3,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_union_of_children() {
        let mut r = Recorder::default();
        let root = r.record("root", 0, None, 0, 100, 0);
        r.record("a", 0, Some(root), 10, 40, 0);
        r.record("b", 0, Some(root), 30, 60, 1);
        r.record("c", 0, Some(root), 90, 120, 0);
        assert_eq!(r.self_ns()[root], 100 - 50 - 10);
    }
}
