//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A span has a name, the request class it belongs to, the request (trace)
//! id shared by all spans of one request, and an optional parent. A span's
//! *self time* is its duration minus the part of it covered by its
//! children. Spans stay in memory until [`Tracer::write_tsv`] at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer function the span times, e.g. `json.parse`.
    pub name: &'static str,
    /// Request class, e.g. `warm`.
    pub class: &'static str,
    /// Request id shared by every span of one request.
    pub trace: u32,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start time.
    pub start: u64,
    /// End time (`0` while open).
    pub end: u64,
}

/// Span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        class: &'static str,
        trace: u32,
        parent: Option<usize>,
    ) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            class,
            trace,
            parent,
            start,
            end: 0,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Record a span from explicit times.
    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the union of its children's
    /// intervals clipped to it.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Self times grouped by `(name, class)`.
    pub fn by_layer(&self) -> BTreeMap<(&'static str, &'static str), Vec<f64>> {
        let mut out: BTreeMap<_, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            out.entry((s.name, s.class)).or_default().push(t as f64);
        }
        out
    }

    /// Write every span as a tab-separated line:
    /// `trace name class parent start_ns end_ns self_ns`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "trace\tname\tclass\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{}\t{}\t{}\t{parent}\t{}\t{}\t{t}",
                s.trace, s.name, s.class, s.start, s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            class: "c",
            trace: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::default();
        let root = t.push(span("root", None, 0, 100));
        // Overlapping children count once; a child running past its parent
        // is clipped to the parent.
        t.push(span("a", Some(root), 10, 30));
        t.push(span("b", Some(root), 20, 50));
        let c = t.push(span("c", Some(root), 90, 120));
        t.push(span("d", Some(c), 95, 100));
        assert_eq!(t.self_times(), vec![50, 20, 30, 25, 5]);
        let layers = t.by_layer();
        assert_eq!(layers[&("root", "c")], vec![50.0]);
    }

    #[test]
    fn open_close_records_nested_intervals() {
        let mut t = Tracer::default();
        let root = t.open("root", "x", 1, None);
        let child = t.open("child", "x", 1, Some(root));
        std::hint::black_box((0..1000).sum::<u64>());
        t.close(child);
        t.close(root);
        let s = t.spans();
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let selfs = t.self_times();
        assert_eq!(selfs[0] + selfs[1], s[0].end - s[0].start);
    }
}
