//! In-memory spans around calls into the crates' public functions.
//!
//! The crates carry no instrumentation yet, so every span is recorded here,
//! from outside: `id`, `parent`, `name`, `request`, `start_us`, `end_us`.
//! Spans of one click / refresh / build share `request`. Spans stay in
//! memory until the workload ends and are written out once.

use std::fmt::Write as _;
use std::time::Instant;

/// Parent id of a span nothing else encloses.
pub const ROOT: u32 = 0;

/// One recorded call. Times are microseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub request: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A per-thread span recorder. Each thread owns one (no lock on the timed
/// path); [`Tracer::absorb`] folds a worker's spans into the main one.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread, sharing this one's time origin.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.origin)
    }

    /// Record a span from timestamps already taken, so traced and untraced
    /// runs time the call itself identically. Returns the span's id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            end_us: end.duration_since(self.origin).as_secs_f64() * 1e6,
        });
        id
    }

    /// Time `f` and record it as a span; returns its result and its duration
    /// in microseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, request, parent, start, end);
        (out, end.duration_since(start).as_secs_f64() * 1e6)
    }

    /// Reserve a span that encloses later children; returns its id.
    pub fn open(&mut self, name: &'static str, request: u64, parent: u32) -> u32 {
        let start = Instant::now();
        self.record(name, request, parent, start, start)
    }

    /// Close a span reserved with [`Tracer::open`].
    pub fn close(&mut self, id: u32) -> f64 {
        let end = Instant::now().duration_since(self.origin).as_secs_f64() * 1e6;
        let span = &mut self.spans[id as usize - 1];
        span.end_us = end;
        span.duration_us()
    }

    /// Fold another thread's spans in, renumbering ids past this tracer's.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += shift;
            if s.parent != ROOT {
                s.parent += shift;
            }
            s
        }));
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Self times (µs) of every span called `name`.
    pub fn self_times_of(&self, name: &str) -> Vec<f64> {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{{header},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, s.parent, s.name, s.request, s.start_us, s.end_us
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover (overlapping children are counted once, and a child
/// reaching outside its parent only counts where it overlaps). Returned in
/// span order.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize - 1];
            let (lo, hi) = (s.start_us.max(p.start_us), s.end_us.min(p.end_us));
            if hi > lo {
                children[s.parent as usize - 1].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.partial_cmp(b).expect("finite span times"));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            request: 1,
            start_us,
            end_us,
        }
    }

    /// Self time = duration minus the interval the children cover.
    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, ROOT, 0.0, 100.0),
            span(2, 1, 10.0, 40.0),
            // Overlaps span 2 on [30, 40]: the union is [10, 60].
            span(3, 1, 30.0, 60.0),
            // Sticks out of the parent: only [90, 100] counts.
            span(4, 1, 90.0, 130.0),
            // A grandchild shortens its own parent only.
            span(5, 2, 10.0, 25.0),
        ];
        assert_eq!(self_times(&spans), vec![40.0, 15.0, 30.0, 40.0, 15.0]);
    }

    #[test]
    fn children_and_self_sum_to_the_parent() {
        let spans = vec![
            span(1, ROOT, 5.0, 50.0),
            span(2, 1, 5.0, 20.0),
            span(3, 1, 22.0, 45.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0] + selfs[1] + selfs[2], spans[0].duration_us());
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let origin = Instant::now();
        let mut main = Tracer::new(origin);
        let root = main.open("main.root", 7, ROOT);
        main.close(root);
        let mut worker = main.fork();
        let outer = worker.open("w.outer", 8, ROOT);
        worker.time("w.inner", 8, outer, || ());
        worker.close(outer);
        main.absorb(worker);
        let ids: Vec<(u32, u32)> = main.spans.iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, vec![(1, ROOT), (2, ROOT), (3, 2)]);
        assert_eq!(main.durations("w.inner").len(), 1);
        assert!(main
            .to_json("\"workload\":\"t\"")
            .contains("\"name\":\"w.inner\""));
    }
}
