//! `dealbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path dealbench/Cargo.toml -- \
//!     --workload <market_mix|ring9_timelock|adversarial_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets the workload up several times (generating its inputs from the
//! seed, resolving shared plans, a warm-up pass and an exact pass), then runs
//! passes closed-loop for `--seconds`. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it alternates untraced and traced
//! passes and reports the per-layer metrics. The last line of standard output
//! is the JSON result; the lines before it are the same metrics for people.
//! See `NOTES.md` for what each workload and metric is for.

mod alloc_count;
mod calib;
mod digest;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::HostSpeed;
use report::{result_line, Measurements, Metric};
use trace::Tracer;
use workloads::{AdversarialSweep, Deals, Recorder, Workload};

#[global_allocator]
static ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// How long the measured loop runs passes between two runs of the
/// calibration kernel. The kernel leaves the caches cold for the operations
/// after it, so it runs rarely enough that those stay out of the tail.
const CALIBRATION_INTERVAL: Duration = Duration::from_millis(100);

const USAGE: &str = "usage: dealbench --workload <market_mix|ring9_timelock|adversarial_sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The worker threads the named workload runs on: the sweep uses up to
/// two, the single-deal workloads one.
fn threads_for(name: &str) -> usize {
    match name {
        "adversarial_sweep" => xchain_harness::executor::available_threads().min(2),
        _ => 1,
    }
}

/// Builds the named workload's inputs from the seed.
fn make_workload(name: &str, seed: u64, threads: usize) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "market_mix" => Box::new(Deals::market_mix(seed)),
        "ring9_timelock" => {
            Box::new(Deals::ring9_timelock(seed).map_err(|e| format!("planning failed: {e}"))?)
        }
        "adversarial_sweep" => Box::new(AdversarialSweep::new(seed, threads)),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// `VmHWM` (peak resident set) of this process, in kB.
fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs one pass and returns the operations it performed and its seconds.
fn timed_pass(rec: &mut Recorder, pass: impl FnOnce(&mut Recorder)) -> (u64, f64) {
    let ops = rec.ops;
    let start = Instant::now();
    pass(rec);
    (rec.ops - ops, start.elapsed().as_secs_f64())
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    m: Measurements,
    digest: u64,
    /// Mean nominal-to-measured speed of the host over the measured loop.
    host_speed: f64,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut m = Measurements::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut digests = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    m.threads = threads_for(&args.workload);
    let mut speed = HostSpeed::new(m.threads);
    for _ in 0..SETUPS {
        let mut exact = Recorder::exact();
        let mut warm = Recorder::default();
        let start = Instant::now();
        let w = make_workload(&args.workload, args.seed, m.threads)?;
        w.pass(&mut warm);
        w.pass(&mut exact);
        let secs = start.elapsed().as_secs_f64();
        m.setup_s.push(secs * speed.scale());
        attempted += warm.ops + exact.ops;
        failed += warm.failed + exact.failed;
        digests.push(exact.digest_value().expect("exact passes digest"));
        m.exact = exact;
        workload = Some(w);
    }
    let w = workload.expect("at least one set-up");
    m.peak_rss_kb = peak_rss_kb()?;
    let digest = digests[0];
    let mut correct = digests.iter().all(|d| *d == digest);

    let mut tracer = Tracer::default();
    if args.trace {
        // The decomposed calls must reach exactly the outcomes the public
        // calls reach.
        let mut exact = Recorder::exact();
        w.traced_pass(&mut tracer, &mut exact);
        tracer.drain();
        attempted += exact.ops;
        failed += exact.failed;
        correct &= exact.digest_value() == Some(digest);
    }

    let mut loop_rec = Recorder::default();
    let mut traced_rec = Recorder::default();
    let mut raw_s = 0.0;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    loop {
        // Passes for one calibration interval, then one kernel run whose
        // scale converts all of them.
        let samples = loop_rec.latencies_us.len();
        let (mut secs, mut traced_secs, mut traced_spans) = (0.0, 0.0, Vec::new());
        let interval = Instant::now();
        while interval.elapsed() < CALIBRATION_INTERVAL {
            let (ops, s) = timed_pass(&mut loop_rec, |rec| w.pass(rec));
            m.ops += ops;
            secs += s;
            if args.trace {
                let (ops, s) = timed_pass(&mut traced_rec, |rec| w.traced_pass(&mut tracer, rec));
                m.traced_ops += ops;
                traced_secs += s;
                traced_spans.push(tracer.drain());
            }
        }
        let scale = speed.scale();
        for l in &mut loop_rec.latencies_us[samples..] {
            *l *= scale;
        }
        m.loop_s += secs * scale;
        raw_s += secs;
        m.traced_s += traced_secs * scale;
        for spans in &traced_spans {
            m.add_spans(spans, scale);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    m.latencies_us = std::mem::take(&mut loop_rec.latencies_us);
    attempted += loop_rec.ops + traced_rec.ops;
    failed += loop_rec.failed + traced_rec.failed;
    Ok(Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        host_speed: m.loop_s / raw_s,
        m,
        digest,
    })
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dealbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("dealbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let m = &out.m;
    println!(
        "workload {} seed {} trace {} threads {}",
        args.workload, args.seed, args.trace as u8, m.threads
    );
    let end_to_end = m.end_to_end();
    let per_layer = m.per_layer();
    print_metrics(&end_to_end);
    let (tail, samples) = m.tail();
    match tail {
        Some(p) => println!("  deal_p99_us is p{p} of {samples} latency samples"),
        None => println!("  too few latency samples ({samples}) for a tail percentile"),
    }
    println!(
        "  deal_error_ratio {} fraction ({} of {} operations failed)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!("  outcome_digest 0x{:016x}", out.digest);
    if m.exact.unsafe_outside_model > 0 {
        println!(
            "  {} cell(s) of the exact pass lost a compliant party's assets outside their \
             protocol's timing model (HTLC swap before GST); not counted as failures",
            m.exact.unsafe_outside_model
        );
    }
    println!(
        "  times are nominal-host times; the host ran at {:.3} of nominal speed",
        out.host_speed
    );
    if args.trace {
        print_metrics(&per_layer);
    }
    let metrics = if args.trace { &per_layer } else { &end_to_end };
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, metrics)
    );
    ExitCode::SUCCESS
}
