//! Exact costs asserted in `cargo test` (ROADMAP item 15): allocation
//! counts, bytes allocated and peak live bytes, read by a counting global
//! allocator. Wall clock on a shared machine moves with the machine;
//! these counts do not, so the assertions here are about shapes — equal
//! across scales, equal across runs, smaller than — never pinned digits.
//!
//! The allocator counts only the calling thread while [`costs`] runs its
//! closure, so tests in this binary may run in parallel. Work a closure
//! hands to other threads is not counted: the index build's workers are
//! not part of the build figure printed below.
//!
//! `cargo test --release --test costs -- --nocapture` prints the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;
use vexus::core::{EngineConfig, OwnedSession, Vexus};
use vexus::data::synthetic::{bookcrossing, BookCrossingConfig};

/// What one closure cost on its thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Costs {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    allocs: u64,
    /// Bytes those calls asked for.
    bytes: u64,
    /// Peak of bytes allocated minus bytes freed since the closure began.
    peak: i64,
    /// Bytes allocated minus bytes freed at the end.
    live: i64,
}

thread_local! {
    /// The running tally of the thread inside [`costs`]; `None` elsewhere.
    static TALLY: Cell<Option<Costs>> = const { Cell::new(None) };
}

struct Counting;

impl Counting {
    fn record(allocated: usize, freed: usize, counts: bool) {
        // `try_with`: the allocator also runs while a thread tears down.
        let _ = TALLY.try_with(|tally| {
            if let Some(mut t) = tally.get() {
                t.allocs += u64::from(counts);
                t.bytes += allocated as u64;
                t.live += allocated as i64 - freed as i64;
                t.peak = t.peak.max(t.live);
                tally.set(Some(t));
            }
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's. The bookkeeping before the
// call only updates a const-initialised thread-local `Cell` of plain
// integers, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size(), 0, true);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size(), 0, true);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::record(0, layout.size(), false);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size, layout.size(), true);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and return its value with what it allocated on this thread.
/// The value is returned, not dropped, so freeing it is not counted.
fn costs<T>(f: impl FnOnce() -> T) -> (T, Costs) {
    TALLY.with(|tally| tally.set(Some(Costs::default())));
    let value = f();
    let tally = TALLY.with(|tally| tally.take()).expect("tally set above");
    (value, tally)
}

/// The benchmark's ×1 dataset: 5 000 users (`scale` multiplies it).
fn scaled(scale: usize) -> BookCrossingConfig {
    BookCrossingConfig {
        n_users: 5_000 * scale,
        n_books: 4_000 * scale,
        n_ratings: 30_000 * scale,
        n_communities: 8,
        seed: 1,
    }
}

/// The paper's configuration with a budget that never binds, so every
/// greedy call converges and counts do not depend on the clock; wherever
/// the paper's 100 ms does not bind either, its counts are these.
fn paper() -> EngineConfig {
    EngineConfig::paper().with_budget(Duration::from_secs(600))
}

/// The costs of one engine's life: build, first open, two repeat opens
/// and `clicks` clicks (always on the first displayed group).
#[derive(Debug, PartialEq, Eq)]
struct Ledger {
    build: Costs,
    first_open: Costs,
    repeat_open: Costs,
    third_open: Costs,
    clicks: Costs,
}

fn ledger(data: BookCrossingConfig, clicks: usize) -> Ledger {
    let data = bookcrossing(&data).data;
    let (engine, build) = costs(|| Vexus::build(data, paper()).unwrap().shared());
    let open = || costs(|| OwnedSession::open(Arc::clone(&engine)).unwrap());
    let (mut session, first_open) = open();
    let (_, repeat_open) = open();
    let (_, third_open) = open();
    let (_, clicks) = costs(|| {
        for _ in 0..clicks {
            let g = session.display()[0];
            session.click(g).unwrap();
        }
    });
    Ledger {
        build,
        first_open,
        repeat_open,
        third_open,
        clicks,
    }
}

/// A repeat open reads the engine's memoized opening display: its cost
/// does not depend on the population, and it is below the first open's,
/// which runs greedy over the whole population.
#[test]
fn a_repeat_open_costs_the_same_at_every_scale_and_less_than_the_first() {
    let tiny = ledger(BookCrossingConfig::tiny(), 0);
    let x1 = ledger(scaled(1), 0);
    for (scale, l) in [("tiny", &tiny), ("x1", &x1)] {
        assert_eq!(l.repeat_open, l.third_open, "{scale}: repeat opens differ");
        assert!(l.repeat_open.allocs < l.first_open.allocs, "{scale}: {l:?}");
        assert!(l.repeat_open.bytes < l.first_open.bytes, "{scale}: {l:?}");
    }
    assert_eq!(tiny.repeat_open, x1.repeat_open);
    assert!(tiny.first_open.bytes < x1.first_open.bytes);
}

/// Two runs of the same script allocate exactly alike.
#[test]
fn counts_are_identical_across_two_runs() {
    let a = ledger(scaled(1), 20);
    let b = ledger(scaled(1), 20);
    assert_eq!(a, b);
    println!("x1 (5 000 users), paper config, unbounded budget, calling thread only:");
    let rows = [
        ("build", a.build),
        ("first open", a.first_open),
        ("repeat open", a.repeat_open),
        ("20 clicks", a.clicks),
    ];
    for (what, c) in rows {
        println!(
            "  {what:<12} {:>7} allocations {:>10} B allocated {:>10} B peak live",
            c.allocs, c.bytes, c.peak
        );
    }
}
