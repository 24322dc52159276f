//! CLI driver: `experiments [id…]` runs all experiments (or a subset),
//! prints the paper tables the README's Experiments section indexes and
//! writes `f2`'s SVG renders under `target/vexus-renders/`. The tables are
//! a record, not a check: the claims are asserted on the same results by
//! `tests/paper_claims.rs`, timings are measured by `benchmark/`.

use std::path::Path;
use vexus_bench::experiments::{run, ALL};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known: Vec<&str> = ALL.iter().map(|&(id, _)| id).collect();
    let ids: Vec<&str> = if args.is_empty() {
        known.clone()
    } else {
        args.iter().map(String::as_str).collect()
    };
    println!("VEXUS experiment harness");
    let render_dir = Path::new("target/vexus-renders");
    let mut unknown = false;
    for id in ids {
        let Some(record) = run(id) else {
            eprintln!("unknown experiment id {id:?} (known: {known:?})");
            unknown = true;
            continue;
        };
        print!("{record}");
        for (name, svg) in record.renders() {
            let path = render_dir.join(name);
            let written =
                std::fs::create_dir_all(render_dir).and_then(|()| std::fs::write(&path, svg));
            if let Err(e) = written {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("wrote {}", path.display());
        }
    }
    // A typo'd or removed id must fail loudly; the known ids on the same
    // command line have already run and printed.
    if unknown {
        eprintln!(
            "this binary only prints the paper tables: invariants are `cargo test`, \
             timings are `benchmark/`"
        );
        std::process::exit(2);
    }
}
