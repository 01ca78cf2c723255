//! The span recorder.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions: a root span per request, child spans for the layer
//! calls it makes. They stay in memory until the run ends. Code that
//! records spans is generic over [`Recorder`], so the untraced passes run
//! the same code with [`NoTrace`], whose methods compile to nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// Where spans go.
pub trait Recorder {
    /// Opens a span and returns its id.
    fn begin(&mut self, name: &'static str, parent: u32, request: u32) -> u32;
    /// Closes span `id`.
    fn end(&mut self, id: u32);
}

/// Records nothing.
pub struct NoTrace;

impl Recorder for NoTrace {
    #[inline(always)]
    fn begin(&mut self, _: &'static str, _: u32, _: u32) -> u32 {
        0
    }
    #[inline(always)]
    fn end(&mut self, _: u32) {}
}

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `xml.tape_build`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Index of the parent span, or [`ROOT`].
    pub parent: u32,
    /// Request (item index) the span belongs to.
    pub request: u32,
}

/// An in-memory span log.
pub struct Tracer {
    base: Instant,
    /// Spans in open order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Each span's self time: its duration minus the union of its
    /// children's intervals (clipped to it).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// The log as CSV, one span per line.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("request,id,parent,name,start_ns,end_ns,self_ns\n");
        for (id, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = if s.parent == ROOT {
                String::from("-")
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{},{id},{parent},{},{},{},{own}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Recorder for Tracer {
    fn begin(&mut self, name: &'static str, parent: u32, request: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    fn end(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end_ns = now;
    }
}

/// Per-name totals folded over one or more span logs.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    /// name → (total ns, self ns, span count).
    pub by_name: BTreeMap<&'static str, (u64, u64, u64)>,
}

impl Profile {
    /// Adds a log.
    pub fn fold(&mut self, tracer: &Tracer) {
        for (s, own) in tracer.spans.iter().zip(tracer.self_times()) {
            let e = self.by_name.entry(s.name).or_default();
            e.0 += s.end_ns - s.start_ns;
            e.1 += own;
            e.2 += 1;
        }
    }

    /// Total seconds in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.0 as f64 * 1e-9)
    }

    /// Self seconds in spans named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.1 as f64 * 1e-9)
    }

    /// Number of spans.
    pub fn spans(&self) -> u64 {
        self.by_name.values().map(|e| e.2).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        t.spans = vec![
            span("request", 0, 100, ROOT),
            span("a", 10, 30, 0),
            span("b", 20, 50, 0),
            span("c", 60, 70, 0),
        ];
        assert_eq!(t.self_times(), vec![100 - 40 - 10, 20, 30, 10]);
        let mut p = Profile::default();
        p.fold(&t);
        assert_eq!(p.by_name["request"], (100, 50, 1));
        assert!(t.to_csv().lines().count() == 5);
    }

    #[test]
    fn recorded_children_nest_inside_their_root() {
        let mut t = Tracer::new();
        let root = t.begin("request", ROOT, 7);
        let child = t.begin("x", root, 7);
        t.end(child);
        t.end(root);
        let own = t.self_times();
        let (r, c) = (t.spans[0], t.spans[1]);
        assert!(r.start_ns <= c.start_ns && c.end_ns <= r.end_ns);
        assert_eq!(own[0] + (c.end_ns - c.start_ns), r.end_ns - r.start_ns);
    }
}
