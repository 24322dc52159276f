//! CLI driver: `experiments [id…] [--json <path>] [--gate
//! <id>.<metric>=<min>…]` runs all experiments (or a subset) and prints
//! the tables EXPERIMENTS.md records. With `--json`, the reports are
//! additionally written to `path` as a JSON document (`{"scale": N,
//! "experiments": [{"id", "report", "metrics"}, …]}`) so CI can upload
//! them as a build artifact; `metrics` is the experiment's structured
//! per-stage map (milliseconds for the perf experiments like `d5`,
//! ratios for quality metrics like `d2`'s recall columns).
//!
//! `--gate` turns a metric into a hard pass/fail check: the run exits
//! non-zero when the named metric is missing (a renamed or dropped metric
//! must not silently pass) or below the given minimum. CI gates
//! `d2.recount_recall_min=1.0` — the sharded support-recount merge must
//! reproduce the unsharded group space exactly — and
//! `d5.session_determinism=1.0` — every concurrently served session's
//! display trajectory must be byte-identical to its single-threaded
//! reference, with or without the shared neighbor cache.

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A `--gate <id>.<metric>=<min>` check: the metric must exist in the
/// named experiment's report and be at least `min`.
struct Gate {
    experiment: String,
    metric: String,
    min: f64,
}

fn parse_gate(spec: &str) -> Option<Gate> {
    let (name, min) = spec.split_once('=')?;
    let (experiment, metric) = name.split_once('.')?;
    Some(Gate {
        experiment: experiment.to_string(),
        metric: metric.to_string(),
        min: min.parse().ok()?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut gates: Vec<Gate> = Vec::new();
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--json" {
            match it.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires a path argument");
                    std::process::exit(2);
                }
            }
        } else if arg == "--gate" {
            match it.next().as_deref().map(parse_gate) {
                Some(Some(gate)) => gates.push(gate),
                _ => {
                    eprintln!("--gate requires an <id>.<metric>=<min> argument");
                    std::process::exit(2);
                }
            }
        } else {
            ids.push(arg);
        }
    }
    let ids: Vec<&str> = if ids.is_empty() {
        vexus_bench::experiments::ALL.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    let scale = vexus_bench::workloads::scale();
    println!("VEXUS experiment harness (scale={scale})");
    let mut reports: Vec<(&str, vexus_bench::experiments::Report)> = Vec::new();
    let mut unknown = false;
    for id in ids {
        match vexus_bench::experiments::run(id) {
            Some(report) => {
                print!("{}", report.text);
                reports.push((id, report));
            }
            None => {
                eprintln!(
                    "unknown experiment id {id:?} (known: {:?})",
                    vexus_bench::experiments::ALL
                );
                unknown = true;
            }
        }
    }
    if let Some(path) = json_path {
        let mut doc = format!("{{\"scale\":{scale},\"experiments\":[");
        for (i, (id, report)) in reports.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            let mut metrics = String::new();
            for (j, (name, value)) in report.metrics.iter().enumerate() {
                if j > 0 {
                    metrics.push(',');
                }
                metrics.push_str(&format!("\"{}\":{:.3}", json_escape(name), value));
            }
            doc.push_str(&format!(
                "{{\"id\":\"{}\",\"report\":\"{}\",\"metrics\":{{{metrics}}}}}",
                json_escape(id),
                json_escape(&report.text)
            ));
        }
        doc.push_str("]}\n");
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote JSON report to {path}");
    }
    // A typo'd or removed id must fail loudly (CI uploads the JSON as an
    // artifact; a silently missing experiment would look like coverage).
    if unknown {
        std::process::exit(2);
    }
    let mut gate_failed = false;
    for gate in &gates {
        let value = reports
            .iter()
            .find(|(id, _)| *id == gate.experiment)
            .and_then(|(_, r)| {
                r.metrics
                    .iter()
                    .find(|(name, _)| *name == gate.metric)
                    .map(|&(_, v)| v)
            });
        match value {
            Some(v) if v >= gate.min => {
                eprintln!(
                    "gate {}.{} = {v} >= {} — ok",
                    gate.experiment, gate.metric, gate.min
                );
            }
            Some(v) => {
                eprintln!(
                    "gate FAILED: {}.{} = {v} < {}",
                    gate.experiment, gate.metric, gate.min
                );
                gate_failed = true;
            }
            None => {
                eprintln!(
                    "gate FAILED: metric {}.{} not found in this run",
                    gate.experiment, gate.metric
                );
                gate_failed = true;
            }
        }
    }
    if gate_failed {
        std::process::exit(3);
    }
}
