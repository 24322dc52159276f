//! CLI driver: `experiments [id…]` runs all experiments (or a subset) and
//! prints the paper tables the README's Experiments section indexes. The
//! tables are a record, not a check: invariants are asserted by `cargo
//! test`, timings are measured by `benchmark/`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = if args.is_empty() {
        vexus_bench::experiments::ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    println!(
        "VEXUS experiment harness (scale={})",
        vexus_bench::workloads::scale()
    );
    let mut unknown = false;
    for id in ids {
        match vexus_bench::experiments::run(id) {
            Some(report) => print!("{report}"),
            None => {
                eprintln!(
                    "unknown experiment id {id:?} (known: {:?})",
                    vexus_bench::experiments::ALL
                );
                unknown = true;
            }
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
