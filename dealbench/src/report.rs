//! Turns a run's measurements into named metrics and renders the result line.

use std::collections::BTreeMap;

use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{self_times, Span};
use crate::workloads::{Recorder, GAS_COUNTERS, GAS_PHASES};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Span totals for one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub spans: u64,
    /// Summed span lengths, in ns.
    pub len_ns: u64,
    /// Summed self times, in ns.
    pub self_ns: u64,
    /// Allocations inside the spans.
    pub allocs: u64,
    /// Bytes requested inside the spans.
    pub bytes: u64,
}

/// Everything one run measured. Times are nominal-host times (see
/// [`crate::calib`]).
#[derive(Default)]
pub struct Measurements {
    /// Seconds each set-up took.
    pub setup_s: Vec<f64>,
    /// The exact pass of the last set-up.
    pub exact: Recorder,
    /// Operations the measured loop's untraced passes performed.
    pub ops: u64,
    /// Seconds those passes took.
    pub loop_s: f64,
    /// Library-call latencies of those passes, in µs.
    pub latencies_us: Vec<f64>,
    /// `VmHWM` of the process after its set-ups, in kB.
    pub peak_rss_kb: u64,
    /// Operations the traced passes performed.
    pub traced_ops: u64,
    /// Seconds the traced passes took.
    pub traced_s: f64,
    /// Span totals of the traced passes, by span name.
    pub layers: BTreeMap<&'static str, LayerTotals>,
    /// Worker threads the workload ran on.
    pub threads: usize,
}

/// `a / b`, or 0 when nothing was counted.
fn per(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl Measurements {
    /// Adds one traced pass's spans to the layer totals, their times
    /// multiplied by `scale` (the pass's nominal-host factor).
    pub fn add_spans(&mut self, spans: &[Span], scale: f64) {
        let nominal = |ns: u64| (ns as f64 * scale) as u64;
        for (span, self_ns) in spans.iter().zip(self_times(spans)) {
            let t = self.layers.entry(span.name).or_default();
            t.spans += 1;
            t.len_ns += nominal(span.len());
            t.self_ns += nominal(self_ns);
            t.allocs += span.heap.allocs;
            t.bytes += span.heap.bytes;
        }
    }

    fn layer(&self, name: &str) -> LayerTotals {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// The tail percentile reported as `deal_p99_us` (the highest one with
    /// at least ten samples beyond it), with the sample count.
    pub fn tail(&self) -> (Option<u32>, usize) {
        (
            tail_percentile(self.latencies_us.len()),
            self.latencies_us.len(),
        )
    }

    /// The end-to-end metrics, measured with tracing off.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_by(f64::total_cmp);
        let at = |p: Option<u32>| match (p, sorted.is_empty()) {
            (Some(p), false) => percentile(&sorted, p),
            _ => 0.0,
        };
        let ops = self.exact.ops as f64;
        vec![
            metric("deals_per_s", "deals/s", per(self.ops as f64, self.loop_s)),
            metric("deal_p50_us", "us", at(Some(50))),
            metric("deal_p99_us", "us", at(self.tail().0)),
            metric(
                "allocs_per_deal",
                "count",
                per(self.exact.heap.allocs as f64, ops),
            ),
            metric(
                "alloc_bytes_per_deal",
                "bytes",
                per(self.exact.heap.bytes as f64, ops),
            ),
            metric("peak_rss_mb", "MB", self.peak_rss_kb as f64 / 1024.0),
            metric("setup_s", "s", median(&self.setup_s)),
        ]
    }

    /// The per-layer metrics, from the traced passes and the exact pass.
    pub fn per_layer(&self) -> Vec<Metric> {
        let ops = self.traced_ops as f64;
        let us = |t: LayerTotals| per(t.self_ns as f64 / 1e3, ops);
        let mut out = Vec::new();
        for name in ["plan", "setup"] {
            let t = self.layer(name);
            out.push(metric(format!("{name}.us_per_deal"), "us", us(t)));
            out.push(metric(
                format!("{name}.allocs_per_deal"),
                "count",
                per(t.allocs as f64, ops),
            ));
        }
        for engine in ["timelock", "cbc", "swap"] {
            let t = self.layer(&format!("execute.{engine}"));
            let runs = t.spans as f64;
            out.push(metric(
                format!("execute.{engine}.us_per_deal"),
                "us",
                per(t.self_ns as f64 / 1e3, runs),
            ));
            out.push(metric(
                format!("execute.{engine}.allocs_per_deal"),
                "count",
                per(t.allocs as f64, runs),
            ));
            out.push(metric(
                format!("execute.{engine}.alloc_bytes_per_deal"),
                "bytes",
                per(t.bytes as f64, runs),
            ));
        }
        let exact_ops = self.exact.ops as f64;
        for ((_, phase), row) in GAS_PHASES.iter().zip(&self.exact.gas) {
            for (counter, sum) in GAS_COUNTERS.iter().zip(row) {
                out.push(metric(
                    format!("gas.{phase}.{counter}"),
                    "count",
                    per(*sum as f64, exact_ops),
                ));
            }
        }
        let deal = self.layer("deal");
        out.push(metric(
            "properties.us_per_deal",
            "us",
            us(self.layer("properties")),
        ));
        out.push(metric(
            "deal.us_per_deal",
            "us",
            per(deal.len_ns as f64 / 1e3, ops),
        ));
        out.push(metric(
            "deal.unattributed_pct",
            "%",
            per(100.0 * deal.self_ns as f64, deal.len_ns as f64),
        ));
        out.push(metric("drop.us_per_deal", "us", us(self.layer("drop"))));

        let run = self.layer("sweep.run");
        let sweeps = run.spans as f64;
        let busy_ns: u64 = ["timelock", "cbc", "swap"]
            .iter()
            .map(|e| self.layer(&format!("execute.{e}")).len_ns)
            .sum();
        let (check, drop) = if sweeps > 0.0 {
            (self.layer("properties"), self.layer("drop"))
        } else {
            (LayerTotals::default(), LayerTotals::default())
        };
        out.extend([
            metric("sweep.run_ms", "ms", per(run.len_ns as f64 / 1e6, sweeps)),
            metric("sweep.drop_ms", "ms", per(drop.len_ns as f64 / 1e6, sweeps)),
            metric(
                "sweep.check_ms",
                "ms",
                per(check.len_ns as f64 / 1e6, sweeps),
            ),
            metric("sweep.cells", "count", per(ops, sweeps)),
            metric("sweep.skipped", "count", self.exact.skipped as f64),
            metric(
                "sweep.worker_busy_ratio",
                "ratio",
                per(busy_ns as f64, self.threads as f64 * run.len_ns as f64),
            ),
            metric(
                "sweep.retained_bytes",
                "bytes",
                self.exact.retained_bytes as f64,
            ),
            metric(
                "trace.overhead_pct",
                "%",
                100.0
                    * (1.0
                        - per(
                            per(self.traced_ops as f64, self.traced_s),
                            per(self.ops as f64, self.loop_s),
                        )),
            ),
        ]);
        out
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name` values of one metric list in `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits next to the benchmark directory");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section is declared");
        let list = &text[start..];
        let list = &list[..list.find(']').expect("section is a list")];
        list.split("\"name\":")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<String> {
        metrics.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn rendered_names_match_the_declared_metrics() {
        let m = Measurements::default();
        assert_eq!(names(&m.end_to_end()), declared("end_to_end"));
        assert_eq!(names(&m.per_layer()), declared("per_layer"));
    }

    #[test]
    fn names_do_not_depend_on_what_was_measured() {
        let mut m = Measurements {
            threads: 2,
            ops: 100,
            loop_s: 1.0,
            traced_ops: 90,
            traced_s: 1.0,
            latencies_us: vec![5.0; 40],
            setup_s: vec![0.5],
            ..Measurements::default()
        };
        m.add_spans(
            &[Span {
                name: "sweep.run",
                parent: None,
                start: 0,
                end: 1_000_000,
                heap: Default::default(),
            }],
            0.5,
        );
        let empty = Measurements::default();
        assert_eq!(names(&m.end_to_end()), names(&empty.end_to_end()));
        assert_eq!(names(&m.per_layer()), names(&empty.per_layer()));
        let overhead = m.per_layer().pop().expect("overhead is last");
        assert!((overhead.value - 10.0).abs() < 1e-9);
        assert_eq!(m.layer("sweep.run").len_ns, 500_000);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[
                metric("deals_per_s", "deals/s", 12.5),
                metric("setup_s", "s", 0.25),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"deals_per_s\": \
             {\"value\": 12.5, \"unit\": \"deals/s\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
