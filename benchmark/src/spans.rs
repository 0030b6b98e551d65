//! Per-layer self time from a drained span set: a span's self time is
//! its duration minus the part of that interval its child spans cover.

use em_obs::SpanRecord;

/// The layer a span name belongs to. Benchmark-owned spans are named
/// `<layer>.<what>`; the crates' own spans are listed here.
pub fn layer_of(name: &str) -> &str {
    match name {
        "op" => "harness",
        "frontier_setup" | "queue_wait" => "mwd_core",
        // The tile update is the row kernels, called from the executor.
        "diamond_update" => "em_kernels",
        "job" => "em_scenarios",
        "tune_resolve" => "autotune",
        "dist_period" => "em_dist",
        other => other.split_once('.').map_or("other", |(layer, _)| layer),
    }
}

/// Root spans recorded while `op` was open become its children: the
/// batch runner and the executor start their timelines at the root
/// when the caller cannot hand them a parent id, and the op span is the
/// identifier every span of one op shares.
pub fn adopt_roots(spans: &mut [SpanRecord], op: u64) {
    let Some((start, end)) = spans
        .iter()
        .find(|s| s.id == op)
        .map(|s| (s.t_start_us, s.t_end_us))
    else {
        return;
    };
    for s in spans.iter_mut() {
        if s.parent == 0 && s.id != op && s.t_start_us >= start && s.t_end_us <= end {
            s.parent = op;
        }
    }
}

/// Microseconds of `[start, end]` covered by the union of `intervals`.
fn covered_us(start: f64, end: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut covered, mut upto) = (0.0, start);
    for (s, e) in intervals {
        let (s, e) = (s.max(upto), e.min(end));
        if e > s {
            covered += e - s;
            upto = e;
        }
    }
    covered
}

/// Totals of all spans sharing a name.
#[derive(Clone, Debug, PartialEq)]
pub struct NameTotal {
    pub name: &'static str,
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

/// Total and self time per span name, sorted by name. Children may run
/// on other threads and overlap each other; only the covered part of
/// the parent's interval is subtracted, once.
pub fn self_times(spans: &[SpanRecord]) -> Vec<NameTotal> {
    let mut totals: Vec<NameTotal> = Vec::new();
    for span in spans {
        let children: Vec<(f64, f64)> = spans
            .iter()
            .filter(|c| c.parent == span.id && c.id != span.id)
            .map(|c| (c.t_start_us, c.t_end_us))
            .collect();
        let dur = span.t_end_us - span.t_start_us;
        let own = dur - covered_us(span.t_start_us, span.t_end_us, children);
        match totals.iter_mut().find(|t| t.name == span.name) {
            Some(t) => {
                t.count += 1;
                t.total_us += dur;
                t.self_us += own;
            }
            None => totals.push(NameTotal {
                name: span.name,
                count: 1,
                total_us: dur,
                self_us: own,
            }),
        }
    }
    totals.sort_by_key(|t| t.name);
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, t0: f64, t1: f64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            thread: 0,
            t_start_us: t0,
            t_end_us: t1,
            kv: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        // op [0,100] has children a [10,40], a [30,60] (overlapping, on
        // another thread) and b [70,80]; b has a grandchild c [72,75].
        let spans = vec![
            span(1, 0, "op", 0.0, 100.0),
            span(2, 1, "a", 10.0, 40.0),
            span(3, 1, "a", 30.0, 60.0),
            span(4, 1, "b", 70.0, 80.0),
            span(5, 4, "c", 72.0, 75.0),
        ];
        let t = self_times(&spans);
        let by = |n: &str| t.iter().find(|x| x.name == n).unwrap().clone();
        // Children cover [10,60] and [70,80] = 60 of op's 100.
        assert_eq!(by("op").self_us, 40.0);
        assert_eq!(
            (by("a").count, by("a").total_us, by("a").self_us),
            (2, 60.0, 60.0)
        );
        assert_eq!((by("b").total_us, by("b").self_us), (10.0, 7.0));
        assert_eq!(by("c").self_us, 3.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span(1, 0, "p", 10.0, 20.0), span(2, 1, "c", 5.0, 15.0)];
        assert_eq!(self_times(&spans)[1].self_us, 5.0);
    }

    #[test]
    fn roots_inside_the_op_are_adopted() {
        let mut spans = vec![
            span(1, 0, "op", 0.0, 100.0),
            span(2, 0, "job", 5.0, 95.0),
            span(3, 0, "late", 90.0, 120.0),
        ];
        adopt_roots(&mut spans, 1);
        assert_eq!(spans[1].parent, 1);
        assert_eq!(spans[2].parent, 0, "not contained, not adopted");
        assert_eq!(self_times(&spans)[2].self_us, 10.0);
    }

    #[test]
    fn layers_by_name() {
        assert_eq!(layer_of("diamond_update"), "em_kernels");
        assert_eq!(layer_of("service.cached_gets"), "service");
        assert_eq!(layer_of("mystery"), "other");
    }
}
