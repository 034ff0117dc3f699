//! Seeded-violation fixture: every vlint rule fires in this file.  Never
//! compiled — the real workspace pass skips this tree via `[lint] skip`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub fn wall_clock_read() -> Instant {
    Instant::now()
}

pub fn nap() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}

pub fn emit_events(frames: HashMap<u32, u64>) -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    for (id, bytes) in frames.iter() {
        out.push((*id, *bytes));
    }
    out
}

pub fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

pub fn peek(ptr: *const u32) -> u32 {
    unsafe { *ptr }
}

pub fn shout() {
    println!("library crates must not print");
}
