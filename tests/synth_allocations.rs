//! Allocation guard for the namespace synthesis: building the zone must
//! not cost a heap allocation per Web site.
//!
//! A counting global allocator counts every allocation the calling
//! thread makes. The counter is thread-local, so allocations made by
//! other tests' threads never reach it.

use dosscope_dns::synth::{synthesize, SynthConfig};
use dosscope_geo::{AsRegistry, RegistryConfig};
use dosscope_harness::ScenarioConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (reallocations included) this thread makes inside `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn synthesis_allocates_less_than_once_per_sixteen_sites() {
    // The scenario's own synthesis inputs at `test_small` scale.
    let config = ScenarioConfig::test_small();
    let registry = AsRegistry::build(&RegistryConfig {
        seed: config.seed ^ 0x9E0,
        ..RegistryConfig::default()
    });
    let synth_config = SynthConfig {
        seed: config.seed ^ 0xD45,
        total_sites: config.total_sites(),
        days: config.days,
        ..SynthConfig::default()
    };
    let (out, allocations) = allocations_in(|| synthesize(&synth_config, &registry));
    let domains = out.zone.domain_count() as u64;
    assert_eq!(domains, u64::from(config.total_sites()));
    eprintln!("synthesize: {allocations} allocations for {domains} domains");
    assert!(
        allocations < domains / 16,
        "synthesize made {allocations} allocations for {domains} domains"
    );
}
