//! `vexus-benchmark`: the VEXUS benchmark.
//!
//! One command runs four lifecycle workloads, checks their outputs, and
//! prints every end-to-end metric by name with unit, sample count and
//! regression bound; `--trace 1` reruns a workload with a span around every
//! call into the crates' public functions and prints the per-layer split.
//! See `README.md` beside this package and `BENCHMARK.json` at the repo root.

mod inputs;
mod metrics;
mod report;
mod scratch;
mod stats;
mod trace;
mod workloads {
    pub mod build;
    pub mod explore;
    pub mod live;
}

use report::Report;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The run length the workload sizes are calibrated for; `--seconds` scales
/// the iteration counts linearly from here. `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: u64 = 15;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// The median unit latency `trace_overhead_pct` compares between the
    /// traced and the untraced pass.
    pub headline: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "build",
        why: "offline pipeline and cold start on the x4 dataset: LCM, the 4-shard merge/exchange and the index build do the work, greedy does none",
        headline: "build_s",
    },
    Workload {
        name: "explore-converged",
        why: "64 scripted sessions, pool 96 and a budget that never binds: click time is pure greedy/quality work and trajectories are exactly checkable",
        headline: "click_p50_ms",
    },
    Workload {
        name: "explore-paper",
        why: "same engines and scripts under EngineConfig::paper(): a quarter or more of clicks exhaust the 100 ms budget, so faster greedy shows as quality, not tail",
        headline: "click_p50_ms",
    },
    Workload {
        name: "live-durable",
        why: "the only writer: WAL, stream mining, apply_delta and checkpoints beside a reader on the x4 dataset, then crash and recovery",
        headline: "refresh_p50_ms",
    },
];

/// What one run is asked to do.
pub struct Params {
    pub seed: u64,
    pub seconds: u64,
}

struct Args {
    workloads: Vec<&'static Workload>,
    params: Params,
    trace: bool,
    repeat: usize,
}

const USAGE: &str = "usage: vexus-benchmark [--workload <name>|all] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--repeat <n>] | --glossary | --emit-benchmark-json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        params: Params {
            seed: 1,
            seconds: DEFAULT_SECONDS,
        },
        trace: false,
        repeat: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let w = WORKLOADS
                        .iter()
                        .find(|w| w.name == name.as_str())
                        .ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?;
                    args.workloads = vec![w];
                }
            }
            "--seed" => args.params.seed = number(value()?)?,
            "--seconds" => args.params.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => args.trace = number(value()?)? != 0,
            "--repeat" => args.repeat = number(value()?)?.max(1) as usize,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, p: &Params, tracer: Option<&mut Tracer>) -> Report {
    use workloads::explore::Mode;
    let mut report = Report::default();
    match name {
        "build" => workloads::build::run(p, tracer, &mut report),
        "explore-converged" => workloads::explore::run(Mode::Converged, p, tracer, &mut report),
        "explore-paper" => workloads::explore::run(Mode::Paper, p, tracer, &mut report),
        "live-durable" => workloads::live::run(p, tracer, &mut report),
        other => unreachable!("workload {other} passed argument parsing"),
    }
    finish(name, &mut report);
    report
}

/// Fill the contract's slots: `setup_s` from the units' set-up times, the
/// others from the workload's own metric that fills each (see
/// [`metrics::NAMED`]).
fn finish(workload: &str, report: &mut Report) {
    for filler in metrics::NAMED
        .iter()
        .filter(|n| n.workloads.contains(&workload))
    {
        let Some(slot) = filler.slot.and_then(metrics::contract) else {
            continue;
        };
        if slot.name == filler.name {
            continue;
        }
        let measured = report
            .end_to_end
            .iter()
            .find(|v| v.name == filler.name)
            .unwrap_or_else(|| panic!("{workload} did not measure {}", filler.name))
            .clone();
        // Slots are in milliseconds; named timings may be in seconds.
        let scale = if filler.unit == "s" && slot.unit == "ms" {
            1e3
        } else {
            1.0
        };
        report.e2e(slot.name, measured.value * scale, measured.samples);
    }
    let setups = std::mem::take(&mut report.setup_s);
    report.e2e("setup_s", stats::median(&setups), setups.len());
}

/// The environment block printed with every result.
fn env_block(seed: u64) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"cores\":{cores},\"rustc\":\"{}\",\"profile\":\"{profile}\",\"commit\":\"{}\",\"seed\":{seed}}}",
        env!("VEXUS_BENCH_RUSTC"),
        commit(),
    )
}

/// The checked-out commit, read from `.git` without starting a process
/// (`unknown` in an exported checkout).
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(str::to_string))
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let id: String = resolved.trim().chars().take(12).collect();
    if id.is_empty() {
        "unknown".into()
    } else {
        id
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics` — every `end_to_end` metric untraced, every `per_layer` metric
/// traced (0 where a layer has no part in the workload).
fn result_line(report: &Report, traced: bool) -> String {
    let pairs: Vec<(&str, &str, f64)> = if traced {
        metrics::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, report.get(m.name).unwrap_or(0.0)))
            .collect()
    } else {
        metrics::CONTRACT
            .iter()
            .map(|m| (m.name, m.unit, report.get(m.name).unwrap_or(f64::NAN)))
            .collect()
    };
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.checks.failed == 0,
        report.checks.attempted.max(1),
        report.checks.failed
    );
    for (i, (name, unit, value)) in pairs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

/// Print one result: the end-to-end table of `report` and, for a traced
/// invocation, the per-layer table of its traced pass.
fn print_report(w: &Workload, args: &Args, report: &Report, traced: Option<&Report>, env: &str) {
    println!(
        "== {} | seed {} | seconds {} | {} ==",
        w.name,
        args.params.seed,
        args.params.seconds,
        if traced.is_some() {
            "untraced pass, then traced pass"
        } else {
            "untraced"
        }
    );
    println!("env: {env}");
    println!("sizes: {}", report.sizes);
    println!(
        "{:<26} {:>14} {:<6} {:>7}  {:<22} bound",
        "end-to-end metric", "value", "unit", "n", "tail"
    );
    for v in &report.end_to_end {
        let (unit, bound) = match (metrics::contract(v.name), metrics::named(v.name)) {
            (Some(m), _) => (m.unit, format!("{:.0} %", m.bound * 100.0)),
            (None, Some(m)) => (
                m.unit,
                m.slot
                    .and_then(metrics::contract)
                    .map_or("-".into(), |s| format!("via {}", s.name)),
            ),
            (None, None) => ("?", "-".into()),
        };
        let tail = v
            .tail
            .map_or(String::new(), |(label, t)| format!("{label} {t:.4}"));
        println!(
            "{:<26} {:>14.4} {:<6} {:>7}  {:<22} {}",
            v.name, v.value, unit, v.samples, tail, bound
        );
    }
    let checks = traced.map_or(&report.checks, |t| &t.checks);
    println!(
        "{:<26} {:>14.6} {:<6} {:>7}  {:<22} any rise",
        "failed_share",
        checks.failed_share(),
        "ratio",
        checks.attempted,
        format!("{} failed", checks.failed),
    );
    for message in &checks.messages {
        println!("  FAILED: {message}");
    }
    if let Some(traced) = traced {
        println!(
            "{:<30} {:>16} {:<6} {:>7}",
            "per-layer metric", "value", "unit", "n"
        );
        for m in metrics::PER_LAYER {
            if let Some(v) = traced.per_layer.iter().find(|v| v.name == m.name) {
                println!(
                    "{:<30} {:>16.4} {:<6} {:>7}",
                    m.name, v.value, m.unit, v.samples
                );
            }
        }
    }
}

/// Write `benchmark/out/<file>`; the directory is ignored by git.
fn write_out(file: &str, contents: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(file), contents));
    if let Err(e) = written {
        eprintln!("warning: could not write out/{file}: {e}");
    }
}

/// A result as a JSON document: the run's environment, sizes and `values`.
fn result_document(
    w: &Workload,
    args: &Args,
    report: &Report,
    values: &[report::Value],
    env: &str,
) -> String {
    let mut out = format!(
        "{{\"workload\":\"{}\",\"seconds\":{},\"env\":{env},\"sizes\":\"{}\",\
         \"attempted\":{},\"failed\":{},\"metrics\":[",
        w.name,
        args.params.seconds,
        report.sizes.replace('"', "'"),
        report.checks.attempted,
        report.checks.failed
    );
    for (i, v) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{{\"name\":\"{}\",\"value\":{},\"samples\":{}}}",
            v.name,
            json_number(v.value),
            v.samples
        );
    }
    out.push_str("\n]}\n");
    out
}

/// One invocation of one workload: the untraced pass, and for `--trace 1`
/// a traced pass after it. End-to-end numbers always come from the untraced
/// pass; the traced pass supplies the per-layer numbers, and the difference
/// between the two passes' median unit latency is the tracing overhead.
fn run_once(w: &Workload, args: &Args) -> Report {
    let env = env_block(args.params.seed);
    let mut untraced = run_workload(w.name, &args.params, None);
    write_out(
        &format!("result-{}.json", w.name),
        &result_document(w, args, &untraced, &untraced.end_to_end, &env),
    );
    if !args.trace {
        print_report(w, args, &untraced, None, &env);
        return untraced;
    }
    let mut tracer = Tracer::new(Instant::now());
    let mut traced = run_workload(w.name, &args.params, Some(&mut tracer));
    if let (Some(plain), Some(spanned)) = (untraced.get(w.headline), traced.get(w.headline)) {
        traced.layer("trace_overhead_pct", (spanned / plain - 1.0) * 100.0, 1);
    }
    // A failed check in either pass fails the invocation.
    traced.checks.absorb(std::mem::take(&mut untraced.checks));
    print_report(w, args, &untraced, Some(&traced), &env);
    let header = format!(
        "\"workload\":\"{}\",\"seconds\":{},\"env\":{env}",
        w.name, args.params.seconds
    );
    write_out(&format!("trace-{}.json", w.name), &tracer.to_json(&header));
    write_out(
        &format!("result-{}-traced.json", w.name),
        &result_document(w, args, &traced, &traced.per_layer, &env),
    );
    traced
}

/// `--repeat`: per-metric min / median / max and quartile spread over runs.
fn print_repeat_summary(w: &Workload, runs: &[Report], traced: bool) {
    println!(
        "== {} | {} runs: min / median / max (quartile spread) ==",
        w.name,
        runs.len()
    );
    let first = &runs[0];
    let values = if traced {
        &first.per_layer
    } else {
        &first.end_to_end
    };
    for v in values {
        let across: Vec<f64> = runs.iter().filter_map(|r| r.get(v.name)).collect();
        let min = across.iter().copied().fold(f64::INFINITY, f64::min);
        let max = across.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{:<30} {:>14.4} / {:>14.4} / {:>14.4}  ({:.2} %)",
            v.name,
            min,
            stats::median(&across),
            max,
            stats::quartile_spread(&across) * 100.0
        );
    }
}

/// `BENCHMARK.json`, generated from the ledger so the two cannot drift.
fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {DEFAULT_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in metrics::CONTRACT.iter().enumerate() {
        let sep = if i + 1 == metrics::CONTRACT.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in metrics::PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == metrics::PER_LAYER.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// `--glossary`: every metric, what it means and what it should move.
fn print_glossary() {
    println!("end-to-end metrics of BENCHMARK.json (every workload reports each):");
    for m in metrics::CONTRACT {
        println!(
            "  {:<16} {:<6} {} is better, bound {:.0} %: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.meaning
        );
    }
    println!("\nthe workloads' own end-to-end metrics and the slot each fills:");
    for m in metrics::NAMED {
        println!(
            "  {:<22} {:<6} {} is better, on {}, {}: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.workloads.join(" and "),
            m.slot
                .map_or("printed only".to_string(), |s| format!("fills {s}")),
            m.meaning
        );
    }
    println!("\nper-layer metrics (traced runs) and what each should move:");
    for m in metrics::PER_LAYER {
        println!("  {:<30} {:<6} {}", m.name, m.unit, m.moves);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--emit-benchmark-json") => {
            print!("{}", benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("--glossary") => {
            print_glossary();
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for w in &args.workloads {
        let runs: Vec<Report> = (0..args.repeat).map(|_| run_once(w, &args)).collect();
        if runs.len() > 1 {
            print_repeat_summary(w, &runs, args.trace);
        }
        let last = runs.last().expect("at least one run");
        failed |= runs.iter().any(|r| r.checks.failed > 0);
        println!("{}", result_line(last, args.trace));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload explore-paper --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(a.workloads[0].name, "explore-paper");
        assert_eq!(
            (a.params.seed, a.params.seconds, a.trace, a.repeat),
            (7, 10, true, 1)
        );
        let all = parse_args(&argv("--workload all --repeat 3")).unwrap();
        assert_eq!(
            (all.workloads.len(), all.repeat, all.trace),
            (WORKLOADS.len(), 3, false)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed x")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }

    #[test]
    fn workloads_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.checks.check(true, String::new);
        for m in metrics::CONTRACT {
            r.e2e(m.name, 1.5, 3);
        }
        let line = result_line(&r, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        for m in metrics::CONTRACT {
            assert!(line.contains(&format!(
                "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                m.name, m.unit
            )));
        }
        assert_eq!(line.matches("\"value\"").count(), metrics::CONTRACT.len());
        let traced = result_line(&r, true);
        assert_eq!(
            traced.matches("\"value\"").count(),
            metrics::PER_LAYER.len()
        );
        assert!(traced.contains("\"trace_overhead_pct\": {\"value\": 0, \"unit\": \"%\"}"));
    }

    /// `BENCHMARK.json` at the repo root is the ledger, byte for byte.
    #[test]
    fn benchmark_json_matches_the_ledger() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            text,
            benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
    }
}
