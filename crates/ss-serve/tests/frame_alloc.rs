// Tests may unwrap/expect freely: a panic here is a test failure, not a
// product-code defect (the workspace clippy lints exempt test code).
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Bounded allocation for [`Frame::read_from`] under a hostile length
//! field, asserted with a recording global allocator.
//!
//! The header's body length is checked against the cap before anything
//! is allocated, but a length under the cap is still only a claim. The
//! reader grows the body as bytes arrive, at most one chunk (32 KiB)
//! beyond them, so a header declaring 64 MiB followed by ten bytes and
//! EOF costs about one chunk, not 64 MiB. This file is a dedicated
//! integration-test binary holding exactly one test, because the
//! allocator is process-global; it records only on the test thread,
//! which opts in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::ErrorKind;
use std::sync::atomic::{AtomicUsize, Ordering};

use ss_serve::protocol::{Frame, Op, ProtocolError, DEFAULT_MAX_BODY, HEADER_LEN};

/// Records the largest allocation or reallocation made on an opted-in
/// thread and forwards to the system allocator.
struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations are recorded. `const`-initialised
    /// and drop-free, so reading it from inside the allocator never
    /// allocates.
    static RECORDED: Cell<bool> = const { Cell::new(false) };
}

fn record(size: usize) {
    if RECORDED.get() {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, whose `GlobalAlloc` contract is the one the caller upholds
// here; the record itself is a relaxed atomic and never allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` is passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; all three are passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Room for one chunk of the reader's growth, with slack: twice the
/// reader's 32 KiB, and a thousandth of the 64 MiB a hostile header
/// declares.
const ONE_CHUNK: usize = 64 << 10;

/// A request header declaring a `declared`-byte body, followed by `sent`
/// body bytes and nothing else.
fn hostile(declared: usize, sent: usize) -> Vec<u8> {
    let mut bytes = Frame::request(Op::Encode, 1, Vec::new()).encode();
    bytes.truncate(HEADER_LEN);
    let declared = u32::try_from(declared).unwrap().to_le_bytes();
    bytes[HEADER_LEN - 4..].copy_from_slice(&declared);
    bytes.extend((0..sent).map(|i| (i % 251) as u8));
    bytes
}

/// Reads one frame from `bytes`, returning the outcome and the largest
/// single allocation the read made.
fn read_recording(bytes: &[u8]) -> (Result<Frame, ProtocolError>, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    RECORDED.set(true);
    let got = Frame::read_from(&mut &bytes[..], DEFAULT_MAX_BODY);
    RECORDED.set(false);
    (got, LARGEST.load(Ordering::Relaxed))
}

#[test]
fn a_declared_body_is_allocated_only_as_it_arrives() {
    // Ten bytes of a declared 64 MiB, then EOF.
    let (got, largest) = read_recording(&hostile(DEFAULT_MAX_BODY, 10));
    assert_eq!(got, Err(ProtocolError::Io(ErrorKind::UnexpectedEof)));
    assert!(
        largest <= ONE_CHUNK,
        "ten bytes of a declared 64 MiB body allocated {largest} bytes at once"
    );

    // A megabyte and ten bytes of it: the buffer grew with them.
    let sent = (1 << 20) + 10;
    let (got, largest) = read_recording(&hostile(DEFAULT_MAX_BODY, sent));
    assert_eq!(got, Err(ProtocolError::Io(ErrorKind::UnexpectedEof)));
    assert!(
        largest <= sent + ONE_CHUNK,
        "{sent} bytes of a declared 64 MiB body allocated {largest} bytes at once"
    );

    // The same growth reads a whole frame of that size.
    let frame = Frame::request(Op::Encode, 2, vec![7; sent]);
    let (got, largest) = read_recording(&frame.encode());
    assert_eq!(got.as_ref(), Ok(&frame));
    assert!(
        largest <= sent + ONE_CHUNK,
        "a {sent}-byte body allocated {largest} bytes at once"
    );
}
