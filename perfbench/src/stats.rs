//! The benchmark's statistics: percentiles that say how many samples back
//! them, ratios that carry their base, and spans with self time.

use std::collections::BTreeMap;
use std::fmt;

/// A percentile of `values` (nearest rank), reported only when at least 10
/// samples lie beyond it; `None` otherwise.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let beyond = sorted.len() - rank;
    if p < 100.0 && p > 50.0 && beyond < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median, which needs no samples beyond it.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A ratio that prints its base: `0.75 (3 of 4)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// The value, 0 for an empty base.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let part = |x: f64| {
            if x.fract() == 0.0 {
                format!("{x:.0}")
            } else {
                format!("{x:.4}")
            }
        };
        write!(
            f,
            "{:.4} ({} of {})",
            self.value(),
            part(self.num),
            part(self.den)
        )
    }
}

/// One timed interval: name, start, end (nanoseconds on the run's clock),
/// the span that caused it, and the request it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Spans kept in memory until the run ends.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn push(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Self time of every span: its duration minus the part of it that the
    /// *union* of its children covers (overlapping children count once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| {
                let mut intervals: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start.max(span.start), c.end.min(span.end))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                intervals.sort_unstable();
                let mut covered = 0;
                let mut cursor = span.start;
                for (a, b) in intervals {
                    let a = a.max(cursor);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (span.end - span.start) - covered
            })
            .collect()
    }

    /// Mean self time per span name, in microseconds, with the span count.
    pub fn mean_self_us(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut acc: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = acc.entry(span.name).or_insert((0.0, 0));
            e.0 += self_ns as f64 / 1000.0;
            e.1 += 1;
        }
        for v in acc.values_mut() {
            v.0 /= v.1 as f64;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&values, 99.0), None);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 99.0), Some(990.0));
        // The median needs no tail.
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        // p90 of 100 samples has exactly 10 beyond it.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), Some(90.0));
        let values: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut t = Trace::default();
        let root = t.push("root", 1, None, 0, 100);
        // Two children overlapping on [20, 30]: together they cover [10, 40].
        let a = t.push("a", 1, Some(root), 10, 30);
        t.push("b", 1, Some(root), 20, 40);
        // A child sticking out of its parent counts only inside it.
        t.push("c", 1, Some(root), 90, 120);
        // A grandchild is the child's business, not the root's.
        t.push("d", 1, Some(a), 12, 14);
        let self_times = t.self_times();
        assert_eq!(self_times[root], 100 - 30 - 10);
        assert_eq!(self_times[a], 20 - 2);
        assert_eq!(self_times[2], 20);
        // Nested children inside one another do not double-count.
        let mut t = Trace::default();
        let root = t.push("root", 2, None, 0, 50);
        t.push("x", 2, Some(root), 0, 50);
        t.push("y", 2, Some(root), 10, 20);
        assert_eq!(t.self_times()[root], 0);
    }

    #[test]
    fn every_ratio_prints_its_base() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!(r.to_string(), "0.7500 (3 of 4)");
        assert_eq!(Ratio::new(0.0, 0.0).value(), 0.0);
        assert!(Ratio::new(0.0, 0.0).to_string().contains("of 0"));
        assert_eq!(Ratio::new(1.25, 10.0).to_string(), "0.1250 (1.2500 of 10)");
    }
}
