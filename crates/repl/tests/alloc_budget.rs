//! An allocation budget for update propagation.
//!
//! A committed update reaches the other `n − 1` replicas as the commit's
//! one shared writeset: a remote apply costs engine events, a resource
//! job or two and an apply-queue node — never a copy of an `items` vector
//! or of a row payload. A heap allocation count is the one host-side
//! measure of that which repeats exactly, so this test pins it: the same
//! short cell at `n = 2` and at `n = 8`, steady-state allocations counted
//! per committed update, and the growth per extra replica held under a
//! small constant.
//!
//! Before rows and writesets were shared, every remote apply deep-copied
//! the writeset twice (fan-out, then install) on top of the copies at
//! extraction and in the log — an `items` vector plus a row vector and a
//! string per written row, each time. The same cells then read 62.9 →
//! 141.2 (multi-master) and 49.9 → 127.5 (single-master) allocations per
//! update commit from `n = 2` to `n = 8`: 13.1 and 12.9 per extra replica.
//! They read 12.1 → 13.2 and 12.1 → 12.2 now: 0.19 and 0.02.
//!
//! A durable cell of either design holds the same budget: every node logs
//! each commit it applies or commits into its redo log, which keeps the
//! commit's shared writeset as a typed record — a count bump, and a vector
//! slot reused from tick to tick. Durable cells read 12.7 → 14.1
//! (multi-master) and 12.7 → 13.6 (single-master): 0.24 and 0.16
//! allocations per update commit per extra replica. Encoding each commit
//! into crc-framed WAL bytes read 10.2 (single-master); a typed log that
//! copied each writeset into an `Arc` of its own reads 2.2.
//!
//! The counter is the global allocator of this test binary alone. One
//! `#[test]` function, so one thread allocates while it counts.

// A counting allocator has to implement `GlobalAlloc`, an unsafe trait.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use replipred_repl::{Design, DurabilityConfig, SimConfig, SimulatorRegistry};
use replipred_workload::tpcw;

/// Forwards to the system allocator, counting calls that hand out memory.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic that
// publishes nothing and never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations are `System.alloc`'s, passed on.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above — `layout` is the caller's, unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` and `layout` came from `System` through this allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: as for `alloc` and `dealloc`, both of which it may stand for.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations of one whole cell (set-up included) measuring for
/// `duration` virtual seconds, and the updates it committed in them.
fn cell(design: Design, durable: bool, n: usize, duration: f64) -> (u64, u64) {
    let cfg = SimConfig {
        warmup: 5.0,
        duration,
        durability: DurabilityConfig {
            enabled: durable,
            ..DurabilityConfig::default()
        },
        ..SimConfig::quick(n, 2009)
    };
    let simulator = design.simulator(tpcw::mix(tpcw::Mix::Ordering), cfg);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = simulator.run();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before, report.update_commits)
}

/// Steady-state allocations per committed update at `n` replicas: what
/// 30 more seconds of the same run (same seed, so the same first 15)
/// allocate, over the updates they commit. Set-up — the install, which
/// does not depend on `n`, and the clients, which do — cancels out.
fn per_update_commit(design: Design, durable: bool, n: usize) -> f64 {
    let (short_allocs, short_commits) = cell(design, durable, n, 10.0);
    let (long_allocs, long_commits) = cell(design, durable, n, 40.0);
    assert_eq!(
        cell(design, durable, n, 10.0),
        (short_allocs, short_commits),
        "{design:?} (durable: {durable}) n = {n}: the count does not repeat, so it cannot be a budget"
    );
    let commits = long_commits - short_commits;
    assert!(
        commits > 500,
        "{design:?} (durable: {durable}) n = {n}: {commits} commits is too short"
    );
    let per_commit = (long_allocs - short_allocs) as f64 / commits as f64;
    println!(
        "{design:?} (durable: {durable}) n = {n}: {} allocations over {commits} update commits \
         = {per_commit:.2}",
        long_allocs - short_allocs
    );
    per_commit
}

/// Allocations per committed update an extra replica may add. What is
/// left is bookkeeping that grows in steps — event queue, apply queue,
/// version arena (measured: 0.19 and 0.02; durable, 0.24 and 0.16); one
/// copy of a shared-row writeset's `items` vector per apply would alone
/// be 1, a deep copy of its three rows 7.
const PER_EXTRA_REPLICA: f64 = 1.0;

#[test]
fn an_extra_replica_costs_bookkeeping_not_row_copies() {
    let cases = [
        (Design::MultiMaster, false),
        (Design::MultiMaster, true),
        (Design::SingleMaster, false),
        (Design::SingleMaster, true),
    ];
    for (design, durable) in cases {
        let at_2 = per_update_commit(design, durable, 2);
        let at_8 = per_update_commit(design, durable, 8);
        let per_extra_replica = (at_8 - at_2) / 6.0;
        println!(
            "{design:?} (durable: {durable}): {per_extra_replica:.2} per update commit per extra \
             replica"
        );
        assert!(
            per_extra_replica < PER_EXTRA_REPLICA,
            "{design:?} (durable: {durable}): {per_extra_replica:.2} allocations per update commit \
             per extra replica (n = 2: {at_2:.2}, n = 8: {at_8:.2}) — is a writeset or a row being \
             copied?"
        );
    }
}
