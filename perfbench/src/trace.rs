//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the library
//! crates — the library itself carries no tracing.  A span's name starts
//! with the layer it measures (`graph.`, `sim.`, `core.`); the benchmark's
//! own `trial` span belongs to no library layer.  Spans stay in
//! memory until the run ends and are then written out as one JSON document.

// gossip-lint: allow(wall-clock): the benchmark times library calls from outside; no simulated result reads the clock
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, `<layer>.<call>` for calls into a library crate.
    pub name: &'static str,
    /// Trial the span belongs to; `None` for set-up spans.
    pub trial: Option<usize>,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in seconds since the tracer was created.
    pub start: f64,
    /// End, in seconds since the tracer was created.
    pub end: f64,
}

impl Span {
    /// Wall-clock length of the span in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The layer the span measures: the part of its name before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans in call order.
#[derive(Debug)]
pub struct Tracer {
    // gossip-lint: allow(wall-clock): the benchmark times library calls from outside; no simulated result reads the clock
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trial: Option<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            // gossip-lint: allow(wall-clock): the benchmark times library calls from outside; no simulated result reads the clock
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trial: None,
        }
    }
}

impl Tracer {
    /// Tags the spans opened from now on with `trial` (`None` = set-up).
    pub fn set_trial(&mut self, trial: Option<usize>) {
        self.trial = trial;
    }

    /// Runs `f` inside a span called `name`, nested in the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            trial: self.trial,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Every recorded span, in the order the spans were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Summed durations of the direct children of the span at `index` (the
    /// children of one span never overlap: they run one after another).
    fn children_time(&self, index: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration)
            .sum()
    }

    /// Duration of the span at `index` minus the time its direct children cover.
    pub fn self_time(&self, index: usize) -> f64 {
        self.spans[index].duration() - self.children_time(index)
    }

    /// Summed direct-children time of each span called `name`, in recording order.
    pub fn child_time(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.children_time(i))
            .collect()
    }

    /// For each span called `root`, the summed self time of the spans of
    /// `layer` nested anywhere below it, in recording order.
    pub fn layer_self_time(&self, root: &str, layer: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == root)
            .map(|r| {
                (0..self.spans.len())
                    .filter(|&i| self.spans[i].layer() == layer && self.descends_from(i, r))
                    .map(|i| self.self_time(i))
                    .sum()
            })
            .collect()
    }

    fn descends_from(&self, mut index: usize, root: usize) -> bool {
        while let Some(parent) = self.spans[index].parent {
            if parent == root {
                return true;
            }
            index = parent;
        }
        false
    }

    /// The spans as a JSON array of `{name, trial, parent, start, end}` objects.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<usize>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"trial\": {}, \"parent\": {}, \"start\": {}, \"end\": {}}}",
                    s.name,
                    opt(s.trial),
                    opt(s.parent),
                    s.start,
                    s.end
                )
            })
            .collect();
        format!("[\n  {}\n]\n", rows.join(",\n  "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::default();
        t.set_trial(Some(3));
        t.span("trial", |t| {
            t.span("core.a", |t| t.span("sim.b", |_| ()));
            t.span("graph.c", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(1), Some(0)]
        );
        assert!(s.iter().all(|s| s.trial == Some(3) && s.end >= s.start));
        let children = s[1].duration() + s[3].duration();
        assert!((t.self_time(0) - (s[0].duration() - children)).abs() < 1e-12);
        assert_eq!(t.layer_self_time("trial", "sim"), vec![s[2].duration()]);
        assert_eq!(t.child_time("core.a"), vec![s[2].duration()]);
        assert!(t
            .to_json()
            .contains("\"name\": \"sim.b\", \"trial\": 3, \"parent\": 1"));
    }
}
