//! The served frame path allocates nothing per request.
//!
//! The only test in this binary, because the measurement is the
//! process-wide allocation count: a counting `#[global_allocator]`, a
//! client that itself never allocates (pre-encoded bursts out, a fixed
//! buffer in), and a one-worker server. What may still allocate while
//! the client runs is time-driven, not request-driven — the watchdog's
//! flight poll every 25 ms, which drains each source into a fresh
//! `Vec` and opens a 64 KiB packed segment when no spare one is left —
//! so the bound is a small fraction of the request count, where one
//! allocation per reply would be all of it. A run of `PUT`s goes
//! through `KvStore::put_batch`, whose result `Vec` is the one
//! allocation a run may make.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use era_kv::{KvConfig, KvStore};
use era_net::{NetConfig, NetServer, Request, Response};
use era_smr::ebr::Ebr;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a side
// effect that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY(ordering): Relaxed — a tally that publishes nothing;
        // the test reads it after the replies it counts have arrived.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `alloc` contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods here.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY(ordering): Relaxed — the same tally as in `alloc`.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `realloc` contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Frames per burst. GET bursts are kept 4 deep (256 requests in
/// flight); a PUT burst is sent only once the last one is answered, so
/// that each is one read and one run on the server.
const BURST: usize = 64;
const GET_DEPTH: usize = 4;
const KEYS: i64 = 64;

/// Keeps `depth` bursts outstanding behind the one just sent until
/// `ops` requests are answered, and returns how many allocations the
/// whole process made meanwhile.
fn allocations_while_serving(
    stream: &mut TcpStream,
    burst: &[u8],
    replies: &[u8],
    inbox: &mut [u8],
    ops: usize,
    depth: usize,
) -> u64 {
    let bursts = ops / BURST;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for sent in 0..bursts + depth {
        if sent < bursts {
            stream.write_all(burst).expect("send burst");
        }
        if sent >= depth {
            stream.read_exact(inbox).expect("read burst of replies");
            assert!(inbox == replies, "a reply differs from the store's value");
        }
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
#[cfg_attr(miri, ignore = "real sockets and threads")]
fn serving_gets_allocates_nothing_per_request() {
    const SMALL: usize = 1 << 10;
    const LARGE: usize = 1 << 17;

    let schemes = vec![Ebr::new(8)];
    let store = KvStore::new(&schemes, KvConfig::default());
    {
        let mut ctx = store.register().expect("preload ctx");
        for k in 0..KEYS {
            store.put(&mut ctx, k, k * 10).expect("preload put");
        }
    }
    // Each PUT rewrites the value a key already holds, so a PUT and a
    // GET of the same key get the same reply.
    let mut gets = Vec::new();
    let mut puts = Vec::new();
    let mut replies = Vec::new();
    for i in 0..BURST as i64 {
        let key = i % KEYS;
        Request::Get { key }.encode(&mut gets);
        Request::Put {
            key,
            value: key * 10,
        }
        .encode(&mut puts);
        Response::Value(Some(key * 10)).encode(&mut replies);
    }
    let mut inbox = vec![0u8; replies.len()];

    let cfg = NetConfig {
        workers: 1,
        ..NetConfig::default()
    };
    let server = NetServer::bind(&store, cfg, "127.0.0.1:0").expect("bind");
    // A panic below unwinds past the explicit shutdown; the guard
    // stops the server so the scope can join it.
    struct StopOnDrop(era_net::NetHandle);
    impl Drop for StopOnDrop {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }
    let (small, large, put_small, put_large) = std::thread::scope(|s| {
        let guard = StopOnDrop(server.handle());
        let run = s.spawn(|| server.run().expect("serve"));
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut serve = |burst: &[u8], ops, depth| {
            allocations_while_serving(&mut stream, burst, &replies, &mut inbox, ops, depth)
        };
        // Warm-up: the connection's buffers and the worker's scratch
        // exist once the first bursts are answered.
        serve(&gets, SMALL, GET_DEPTH);
        let small = serve(&gets, SMALL, GET_DEPTH);
        let large = serve(&gets, LARGE, GET_DEPTH);
        let put_small = serve(&puts, SMALL, 0);
        let put_large = serve(&puts, LARGE, 0);
        drop(stream);
        drop(guard);
        let stats = run.join().expect("server thread");
        assert_eq!(stats.frames, (3 * SMALL + 2 * LARGE) as u64);
        // Not exact: a burst that two reads split is two shorter runs.
        assert!(
            stats.batched_writes >= ((SMALL + LARGE) / 2) as u64,
            "the PUT runs missed the batch path: {stats}"
        );
        (small, large, put_small, put_large)
    });

    println!("allocations while serving: {small} over {SMALL} GETs, {large} over {LARGE} GETs");
    assert!(
        large.saturating_sub(small) < ((LARGE - SMALL) / 64) as u64,
        "{large} allocations over {LARGE} GETs against {small} over {SMALL}: \
         the frame path allocates per request"
    );
    // One allocation per run, plus a quarter for the time-driven polls.
    let runs = ((LARGE - SMALL) / BURST) as u64;
    println!(
        "allocations while serving PUT runs: {put_small} over {} runs, {put_large} over {} runs",
        SMALL / BURST,
        LARGE / BURST
    );
    assert!(
        put_large.saturating_sub(put_small) <= runs + runs / 4,
        "{put_large} allocations over {} PUT runs against {put_small} over {}: \
         a batched run allocates more than its result",
        LARGE / BURST,
        SMALL / BURST
    );
}
