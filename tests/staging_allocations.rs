//! A transaction stages its writes into one buffer: the heap allocations
//! of a transaction grow at most with the buffers' doubling steps, not
//! with the number of records written (`run_txn` sizes them up front, so
//! not even that). A staging path that copies each record into an
//! allocation of its own makes 64 more for 64 records and fails this.
//!
//! The allocator counts per thread, so tests running beside this one on
//! other threads do not pollute the count.

// Test helpers exercise infallible setup paths; panicking on them is the point.
#![allow(clippy::unwrap_used)]

use mmdb::types::Word;
use mmdb::{Algorithm, Mmdb, MmdbConfig, RecordId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting every allocation and reallocation the
/// calling thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // a thread being torn down no longer counts
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// The one unsafe site of the test suite: a global allocator is an
// unsafe trait, and this one only forwards to `System`.
#[allow(unsafe_code)]
// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; the counter is a const-
// initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn staging_allocates_per_transaction_not_per_record() {
    let config = MmdbConfig {
        audit: false,
        telemetry: false,
        ..MmdbConfig::small(Algorithm::CouCopy)
    };
    let mut db = Mmdb::open_in_memory(config).unwrap();
    let w = db.record_words();
    let txn = |n: u64, v: Word| -> Vec<(RecordId, Vec<Word>)> {
        (0..n).map(|r| (RecordId(r), vec![v; w])).collect()
    };
    let (one, many) = (txn(1, 7), txn(64, 9));
    // warm-up: the log tail and the transaction table reach their
    // steady capacity
    for _ in 0..4 {
        db.run_txn(&one).unwrap();
        db.run_txn(&many).unwrap();
    }
    // `run_txn` sizes the buffers for its updates up front
    let a1 = allocations(|| {
        db.run_txn(&one).unwrap();
    });
    let a64 = allocations(|| {
        db.run_txn(&many).unwrap();
    });
    assert!(
        a64 <= a1 + 16,
        "64 records took {a64} allocations, 1 record {a1}: staging allocates per record"
    );
    // one `write` at a time, the two buffers (the write list and the
    // images) double at most a few times each on the way to 64 entries
    let mut staged = |updates: &[(RecordId, Vec<Word>)]| {
        allocations(|| {
            let txn = db.begin_txn().unwrap();
            for (rid, value) in updates {
                db.write(txn, *rid, value).unwrap();
            }
            db.commit(txn).unwrap();
        })
    };
    let (w1, w64) = (staged(&one), staged(&many));
    assert!(
        w64 <= w1 + 16,
        "64 writes took {w64} allocations, 1 write {w1}: staging allocates per record"
    );
    assert_eq!(db.read_committed(RecordId(63)).unwrap(), vec![9; w]);
}
