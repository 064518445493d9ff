//! Wire-format properties and the pipelined-ordering guarantee.
//!
//! Three layers of trust in the protocol are pinned here:
//!
//! 1. **Losslessness** — any legal [`Request`]/[`Response`] survives
//!    encode→decode unchanged (proptest).
//! 2. **Rejection, never panic** — truncated frames, flipped bytes and
//!    hostile length prefixes produce structured errors (proptest).
//! 3. **In-order pipelining, end to end** — one real connection sends
//!    a pipelined burst to a live server and the responses come back
//!    strictly in request order, while other threads hammer the same
//!    shards directly through the store API.
//! 4. **Delivery does not matter** — the reply bytes are the same
//!    however TCP cuts the request stream (one write, byte by byte, a
//!    stall inside a frame, several refills of the server's read
//!    buffer), and no request stream — undecodable, over-long, or
//!    never followed by a read — holds a worker past its timeout.
//! 5. **One write per read** — the replies to whatever one read
//!    brought in leave in one write.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use era_net::proto::{
    read_frame, split_frame, write_request, ProtoError, Request, Response, StatsReply, MAX_FRAME,
    MAX_REQUEST_FRAME,
};
use era_net::{ErrorCode, ErrorReply, NetConfig, NetServer, ServeStats};

use era_kv::{KvConfig, KvStore};
use era_smr::ebr::Ebr;

use proptest::prelude::*;

const I64_FULL: std::ops::Range<i64> = i64::MIN..i64::MAX;

/// Tagged-tuple strategy over every request variant (the vendored
/// proptest shim has no `prop_oneof`, so the discriminant is drawn as
/// an integer and mapped).
fn arb_request() -> impl Strategy<Value = Request> {
    (0u8..7, I64_FULL, I64_FULL, 0u32..1 << 20).prop_map(|(tag, a, b, limit)| match tag {
        0 => Request::Get { key: a },
        1 => Request::Put { key: a, value: b },
        2 => Request::Remove { key: a },
        3 => Request::Incr { key: a, delta: b },
        4 => Request::Scan {
            lo: a,
            hi: b,
            limit,
        },
        5 => Request::Ping,
        _ => Request::Stats,
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        0u8..5,
        (I64_FULL, I64_FULL, 0u64..u64::MAX),
        prop::collection::vec((I64_FULL, I64_FULL), 0..64),
        prop::collection::vec(0u8..4, 0..16),
    )
        .prop_map(|(tag, (a, b, n), entries, health)| match tag {
            0 => Response::Value(if a % 2 == 0 { Some(b) } else { None }),
            1 => Response::Entries(entries),
            2 => Response::Pong,
            3 => Response::Stats(StatsReply {
                retired_now: n,
                retired_peak: n.rotate_left(7),
                total_retired: n.wrapping_mul(3),
                total_reclaimed: n / 2,
                sheds: n % 977,
                transitions: n % 31,
                neutralizations: n % 7,
                trace_dropped: n % 13,
                health,
            }),
            _ => Response::Error(ErrorReply {
                code: ErrorCode::from_u8(1 + (n % 3) as u8).unwrap(),
                shard: a as u32,
                retry_after_ms: b as u32,
            }),
        })
}

/// Encodes `reqs` back to back and returns the wire bytes with the
/// offset at which each frame ends.
fn encode_stream(reqs: &[Request]) -> (Vec<u8>, Vec<usize>) {
    let mut wire = Vec::new();
    let ends = reqs
        .iter()
        .map(|req| {
            req.encode(&mut wire);
            wire.len()
        })
        .collect();
    (wire, ends)
}

/// Splits every whole frame off the front of `buf`; returns the
/// payloads and how many bytes they consumed.
fn split_all(mut buf: &[u8]) -> Result<(Vec<Vec<u8>>, usize), ProtoError> {
    let len = buf.len();
    let mut payloads = Vec::new();
    while let Some((payload, rest)) = split_frame(buf)? {
        payloads.push(payload.to_vec());
        buf = rest;
    }
    Ok((payloads, len - buf.len()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 128 }))]

    /// However a refill boundary cuts the stream, the frame cursor
    /// hands out the same payloads and leaves the same remainder: what
    /// is whole before the cut is consumed up to the last frame
    /// boundary, and the rest completes once the tail arrives.
    #[test]
    fn split_frame_is_cut_invariant(reqs in prop::collection::vec(arb_request(), 1..6)) {
        let (wire, ends) = encode_stream(&reqs);
        let (whole, consumed) = split_all(&wire).expect("own encoding must split");
        prop_assert_eq!(consumed, wire.len());
        for (payload, req) in whole.iter().zip(&reqs) {
            prop_assert!(payload.len() <= MAX_REQUEST_FRAME);
            prop_assert_eq!(&Request::decode(payload).expect("own encoding must decode"), req);
        }
        prop_assert_eq!(whole.len(), reqs.len());
        for cut in 0..=wire.len() {
            let (mut got, consumed) = split_all(&wire[..cut]).expect("a prefix is never an error");
            let boundary = ends.iter().copied().take_while(|&e| e <= cut).last().unwrap_or(0);
            prop_assert_eq!(consumed, boundary, "cut at {}", cut);
            // The refill: the unconsumed remainder followed by the tail.
            let (tail, consumed) = split_all(&wire[boundary..]).expect("tail must split");
            prop_assert_eq!(consumed, wire.len() - boundary);
            got.extend(tail);
            prop_assert_eq!(&got, &whole, "cut at {}", cut);
        }
    }

    /// Short input is "not yet", hostile prefixes are `Oversized`;
    /// neither panics, whatever follows the prefix.
    #[test]
    fn split_frame_short_and_hostile_prefixes(len in 0u32..64, junk in prop::collection::vec(0u16..256, 0..48)) {
        let junk: Vec<u8> = junk.into_iter().map(|b| b as u8).collect();
        // A legal prefix with less than `len` bytes behind it.
        let len = len + 1;
        let mut buf = len.to_be_bytes().to_vec();
        buf.extend(junk.iter().take(len as usize - 1));
        for cut in 0..=buf.len() {
            prop_assert_eq!(split_frame(&buf[..cut]), Ok(None));
        }
        for bad in [0u32, MAX_FRAME as u32 + 1 + len, u32::MAX] {
            let mut buf = bad.to_be_bytes().to_vec();
            buf.extend(&junk);
            prop_assert_eq!(split_frame(&buf), Err(ProtoError::Oversized(bad as usize)));
        }
    }

    #[test]
    fn request_encode_decode_is_lossless(req in arb_request()) {
        let mut frame = Vec::new();
        req.encode(&mut frame);
        // Frame = 4-byte length prefix + payload; decode takes payload.
        let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        prop_assert_eq!(len, frame.len() - 4);
        let back = Request::decode(&frame[4..]).expect("own encoding must decode");
        prop_assert_eq!(back, req);
    }

    #[test]
    fn response_encode_decode_is_lossless(resp in arb_response()) {
        let mut frame = Vec::new();
        resp.encode(&mut frame);
        let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        prop_assert_eq!(len, frame.len() - 4);
        let back = Response::decode(&frame[4..]).expect("own encoding must decode");
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn truncation_is_rejected_never_panics(req in arb_request(), cut in 0usize..64) {
        let mut frame = Vec::new();
        req.encode(&mut frame);
        let payload = &frame[4..];
        if cut < payload.len() {
            // Every strict prefix must fail to decode — the strict
            // parser tolerates no missing tail bytes.
            let err = Request::decode(&payload[..cut]);
            prop_assert!(err.is_err(), "prefix of len {cut} decoded");
        }
    }

    #[test]
    fn byte_flips_never_panic(
        req in arb_request(),
        flip_at in 0usize..64,
        flip_to in 0u16..256,
    ) {
        let mut frame = Vec::new();
        req.encode(&mut frame);
        let mut payload = frame[4..].to_vec();
        let idx = flip_at % payload.len();
        payload[idx] = flip_to as u8;
        // Either a clean decode (the flip stayed in vocabulary) or a
        // structured ProtoError — never a panic.
        let _ = Request::decode(&payload);
    }

    #[test]
    fn trailing_garbage_is_rejected(req in arb_request(), extra in 1usize..8) {
        let mut frame = Vec::new();
        req.encode(&mut frame);
        let mut payload = frame[4..].to_vec();
        payload.extend(vec![0xEEu8; extra]);
        prop_assert!(Request::decode(&payload).is_err(), "trailing bytes accepted");
    }
}

/// Reads exactly one response frame off `stream`.
fn read_response(stream: &mut TcpStream, scratch: &mut Vec<u8>) -> Response {
    let frame = read_frame(stream, scratch)
        .expect("transport error mid-response")
        .expect("server closed mid-response");
    Response::decode(frame).expect("server sent an undecodable frame")
}

/// N pipelined requests on one connection answer strictly in request
/// order, while other threads write the same shards directly — the
/// worker's in-order burst processing may batch, interleave with store
/// traffic, or split the burst, but it may never reorder.
#[test]
#[cfg_attr(miri, ignore = "real sockets and threads")]
fn pipelined_requests_answer_in_order_under_concurrent_writes() {
    const PIPELINE: i64 = 64;
    let schemes: Vec<Ebr> = (0..4).map(|_| Ebr::new(16)).collect();
    let cfg = KvConfig {
        max_threads: 12,
        ..KvConfig::default()
    };
    let store = KvStore::new(&schemes, cfg);
    let server = NetServer::bind(
        &store,
        NetConfig {
            workers: 2,
            ..NetConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();

    // Background interference: direct store writes on every shard for
    // the whole client exchange.
    let stop_noise = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run().expect("serve"));
        let noise = s.spawn(|| {
            let mut ctx = store.register().expect("noise ctx");
            let mut k = 1_000_000i64;
            while !stop_noise.load(std::sync::atomic::Ordering::SeqCst) {
                let _ = store.put(&mut ctx, k % 1_000_000 + 500_000, k);
                k += 1;
            }
        });

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut scratch = Vec::new();

        // Prepare the counter key, unpipelined.
        write_request(&mut stream, &Request::Put { key: 7, value: 0 }).unwrap();
        assert_eq!(
            read_response(&mut stream, &mut scratch),
            Response::Value(None)
        );

        // One write() carrying the whole pipelined burst: 64 INCRs on
        // the same key, a PING, and a GET.
        let mut burst = Vec::new();
        for _ in 0..PIPELINE {
            Request::Incr { key: 7, delta: 1 }.encode(&mut burst);
        }
        Request::Ping.encode(&mut burst);
        Request::Get { key: 7 }.encode(&mut burst);
        stream.write_all(&burst).expect("send burst");
        stream.flush().unwrap();

        // Only this connection touches key 7, so in-order execution is
        // observable: INCR i must answer exactly Some(i + 1).
        for i in 0..PIPELINE {
            assert_eq!(
                read_response(&mut stream, &mut scratch),
                Response::Value(Some(i + 1)),
                "response {i} out of order"
            );
        }
        assert_eq!(read_response(&mut stream, &mut scratch), Response::Pong);
        assert_eq!(
            read_response(&mut stream, &mut scratch),
            Response::Value(Some(PIPELINE))
        );
        drop(stream);

        stop_noise.store(true, std::sync::atomic::Ordering::SeqCst);
        noise.join().unwrap();
        handle.shutdown();
        let stats = run.join().unwrap();
        assert!(stats.frames >= PIPELINE as u64 + 3);
        assert!(
            stats.batched_writes == 0,
            "INCRs must not ride the put-batch path"
        );
    });
}

/// A malformed frame gets a typed `Malformed` error and the connection
/// is closed; a fresh connection still works.
#[test]
#[cfg_attr(miri, ignore = "real sockets and threads")]
fn malformed_frame_gets_typed_error_then_close() {
    let schemes: Vec<Ebr> = (0..1).map(|_| Ebr::new(8)).collect();
    let store = KvStore::new(&schemes, KvConfig::default());
    let server = NetServer::bind(
        &store,
        NetConfig {
            workers: 1,
            ..NetConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();

    std::thread::scope(|s| {
        let run = s.spawn(|| server.run().expect("serve"));

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut scratch = Vec::new();
        // Length 1, unknown opcode 0x7F.
        stream.write_all(&[0, 0, 0, 1, 0x7F]).unwrap();
        match read_response(&mut stream, &mut scratch) {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::Malformed);
                assert_eq!(e.shard, u32::MAX, "framing errors are not shard-scoped");
            }
            other => panic!("expected Malformed error, got {other:?}"),
        }
        // The server hangs up after a framing violation.
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);

        // A new connection is unaffected.
        let mut fresh = TcpStream::connect(addr).expect("reconnect");
        fresh
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_request(&mut fresh, &Request::Ping).unwrap();
        assert_eq!(read_response(&mut fresh, &mut scratch), Response::Pong);
        drop(fresh);

        handle.shutdown();
        let stats = run.join().unwrap();
        assert_eq!(stats.malformed, 1);
    });
}

/// Serves a fresh one-shard EBR store holding `(k, k * 10)` for `k` in
/// `0..preload` on one worker while `client` runs, then shuts down and
/// returns the client's result with the server's counters.
fn with_server<R>(
    preload: i64,
    read_timeout: Duration,
    client: impl FnOnce(SocketAddr) -> R,
) -> (R, ServeStats) {
    let schemes = vec![Ebr::new(8)];
    let store = KvStore::new(&schemes, KvConfig::default());
    {
        let mut ctx = store.register().expect("preload ctx");
        for k in 0..preload {
            store.put(&mut ctx, k, k * 10).expect("preload put");
        }
    }
    let cfg = NetConfig {
        workers: 1,
        read_timeout,
        ..NetConfig::default()
    };
    let server = NetServer::bind(&store, cfg, "127.0.0.1:0").expect("bind");
    // A failed assertion in `client` unwinds past the explicit
    // shutdown; the guard stops the server so the scope can join it.
    struct StopOnDrop(era_net::NetHandle);
    impl Drop for StopOnDrop {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }
    std::thread::scope(|s| {
        let guard = StopOnDrop(server.handle());
        let run = s.spawn(|| server.run().expect("serve"));
        let out = client(server.local_addr());
        drop(guard);
        (out, run.join().expect("server thread"))
    })
}

fn connect(addr: SocketAddr, read_timeout: Duration) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(read_timeout))
        .expect("read timeout");
    stream
}

fn encode_replies(replies: &[Response]) -> Vec<u8> {
    let mut wire = Vec::new();
    for r in replies {
        r.encode(&mut wire);
    }
    wire
}

fn malformed_reply() -> Response {
    Response::Error(ErrorReply {
        code: ErrorCode::Malformed,
        shard: u32::MAX,
        retry_after_ms: 0,
    })
}

/// Half-closes `stream` and returns every byte the server still sends
/// before it closes its side.
fn drain_to_eof(stream: &mut TcpStream) -> Vec<u8> {
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read to EOF");
    bytes
}

/// One mixed pipelined burst — PUT runs of 1, 2 and 5 around every
/// other deterministic opcode — produces byte-identical replies
/// whether it arrives in one write, one byte per segment, or with
/// stalls longer than the server's read timeout inside a prefix and
/// inside a body. The reference is `Response::encode` of the replies a
/// sequential store gives.
#[test]
#[cfg_attr(miri, ignore = "real sockets and threads")]
fn split_delivery_yields_byte_identical_replies() {
    const SERVER_TIMEOUT: Duration = Duration::from_millis(5);
    let put = |key, value| Request::Put { key, value };
    let burst = [
        put(1, 10),
        Request::Get { key: 1 },
        put(2, 20),
        put(3, 30),
        Request::Incr { key: 1, delta: 5 },
        put(4, 40),
        put(5, 50),
        put(6, 60),
        put(7, 70),
        put(2, 21),
        Request::Remove { key: 3 },
        Request::Ping,
        Request::Scan {
            lo: 0,
            hi: 16,
            limit: 16,
        },
        Request::Get { key: 3 },
    ];
    let value = |v| Response::Value(v);
    let expected = encode_replies(&[
        value(None),
        value(Some(10)),
        value(None),
        value(None),
        value(Some(15)),
        value(None),
        value(None),
        value(None),
        value(None),
        value(Some(20)),
        value(Some(30)),
        Response::Pong,
        Response::Entries(vec![(1, 15), (2, 21), (4, 40), (5, 50), (6, 60), (7, 70)]),
        value(None),
    ]);
    let (wire, ends) = encode_stream(&burst);
    // Stall once two bytes into a length prefix and once inside a body.
    let stalls = [ends[3] + 2, ends[7] + 9];

    type Delivery<'a> = &'a dyn Fn(&mut TcpStream);
    let one_write: Delivery = &|s| s.write_all(&wire).expect("send");
    let byte_by_byte: Delivery = &|s| {
        for b in &wire {
            s.write_all(std::slice::from_ref(b)).expect("send");
            s.flush().expect("flush");
        }
    };
    let stalled: Delivery = &|s| {
        let mut from = 0;
        for cut in stalls {
            s.write_all(&wire[from..cut]).expect("send");
            std::thread::sleep(SERVER_TIMEOUT * 4);
            from = cut;
        }
        s.write_all(&wire[from..]).expect("send");
    };
    for (name, deliver) in [
        ("one write", one_write),
        ("byte by byte", byte_by_byte),
        ("stalled mid-frame", stalled),
    ] {
        let (got, stats) = with_server(0, SERVER_TIMEOUT, |addr| {
            let mut stream = connect(addr, Duration::from_secs(10));
            deliver(&mut stream);
            drain_to_eof(&mut stream)
        });
        assert_eq!(got, expected, "{name}");
        assert_eq!(stats.frames, burst.len() as u64, "{name}");
        assert_eq!(stats.malformed, 0, "{name}");
    }
}

/// 4 096 pipelined GETs in one `write_all` — 53 KB, several refills of
/// the server's read buffer, frames straddling every refill boundary —
/// are all answered, in order.
#[test]
#[cfg_attr(miri, ignore = "real sockets and threads")]
fn a_burst_larger_than_the_read_buffer_is_answered_in_order() {
    const GETS: i64 = 4096;
    let (wire, _) = encode_stream(
        &(0..GETS)
            .map(|key| Request::Get { key })
            .collect::<Vec<_>>(),
    );
    let ((), stats) = with_server(GETS / 2, Duration::from_millis(50), |addr| {
        let mut stream = connect(addr, Duration::from_secs(10));
        let mut reader = stream.try_clone().expect("clone");
        std::thread::scope(|s| {
            // Drain while sending: neither side may wait on a full
            // kernel buffer for the other.
            let drain = s.spawn(move || {
                let mut scratch = Vec::new();
                for key in 0..GETS {
                    let expected = (key < GETS / 2).then_some(key * 10);
                    assert_eq!(
                        read_response(&mut reader, &mut scratch),
                        Response::Value(expected),
                        "reply {key} out of order"
                    );
                }
            });
            stream.write_all(&wire).expect("send");
            drain.join().expect("reader");
        });
        assert!(drain_to_eof(&mut stream).is_empty());
    });
    assert_eq!(stats.frames, GETS as u64);
}

/// Good frames, one undecodable frame and more good frames in a single
/// write: the good prefix is answered, then `Malformed`, then the
/// close — nothing behind the violation is executed. The prefix ends
/// in a run of `PUT`s, which the violation closes like any other run.
#[test]
#[cfg_attr(miri, ignore = "real sockets and threads")]
fn frames_before_a_violation_are_answered_frames_after_it_are_not() {
    const GOOD: i64 = 5;
    let mut wire = Vec::new();
    for key in 0..GOOD - 2 {
        Request::Get { key }.encode(&mut wire);
    }
    for key in GOOD - 2..GOOD {
        Request::Put { key, value: -key }.encode(&mut wire);
    }
    wire.extend_from_slice(&[0, 0, 0, 1, 0x7F]);
    for key in 0..3 {
        Request::Put { key, value: -1 }.encode(&mut wire);
    }
    let mut replies: Vec<Response> = (0..GOOD).map(|k| Response::Value(Some(k * 10))).collect();
    replies.push(malformed_reply());

    let (got, stats) = with_server(GOOD, Duration::from_millis(50), |addr| {
        let mut stream = connect(addr, Duration::from_secs(10));
        stream.write_all(&wire).expect("send");
        let mut got = Vec::new();
        stream.read_to_end(&mut got).expect("read to EOF");
        got
    });
    assert_eq!(got, encode_replies(&replies));
    assert_eq!(stats.frames, GOOD as u64);
    assert_eq!(stats.batched_writes, 2);
    assert_eq!(stats.malformed, 1);
}

/// Whatever one read brings in is answered with one write: 32 rounds
/// of 256 GETs sent in one `write_all` and read back before the next
/// round never make the server write more often than it reads.
#[test]
#[cfg_attr(miri, ignore = "real sockets and threads")]
fn replies_leave_in_one_write_per_read() {
    const ROUNDS: usize = 32;
    const GETS: i64 = 4 * 64;
    let (wire, _) = encode_stream(
        &(0..GETS)
            .map(|key| Request::Get { key })
            .collect::<Vec<_>>(),
    );
    let ((), stats) = with_server(GETS, Duration::from_millis(50), |addr| {
        let mut stream = connect(addr, Duration::from_secs(10));
        let mut scratch = Vec::new();
        for _ in 0..ROUNDS {
            stream.write_all(&wire).expect("send");
            for key in 0..GETS {
                assert_eq!(
                    read_response(&mut stream, &mut scratch),
                    Response::Value(Some(key * 10)),
                    "reply {key} out of order"
                );
            }
        }
    });
    assert_eq!(stats.frames, (ROUNDS as i64 * GETS) as u64);
    assert!(
        stats.writes <= stats.reads,
        "{} writes for {} reads",
        stats.writes,
        stats.reads
    );
}

/// A length prefix no request can have is refused when it is read, not
/// when (if ever) the body it promises has arrived.
#[test]
#[cfg_attr(miri, ignore = "real sockets and threads")]
fn an_over_long_request_prefix_is_refused_without_its_body() {
    for len in [MAX_REQUEST_FRAME + 1, MAX_FRAME] {
        let (got, stats) = with_server(0, Duration::from_millis(50), |addr| {
            let mut stream = connect(addr, Duration::from_secs(2));
            stream
                .write_all(&(len as u32).to_be_bytes())
                .expect("send prefix");
            let mut got = Vec::new();
            stream
                .read_to_end(&mut got)
                .unwrap_or_else(|e| panic!("prefix {len}: no answer, server is waiting ({e})"));
            got
        });
        assert_eq!(got, encode_replies(&[malformed_reply()]), "prefix {len}");
        assert_eq!(stats.malformed, 1);
        assert_eq!(stats.frames, 0);
    }
}

/// A server over `(k, k)` for `k` in `0..keys`, leaked and run on a
/// detached thread, so that a server which cannot stop fails its test
/// (nothing arrives on the returned channel) instead of hanging it.
fn detached_server(
    workers: usize,
    keys: i64,
) -> (SocketAddr, era_net::NetHandle, mpsc::Receiver<ServeStats>) {
    let schemes: &'static [Ebr] = vec![Ebr::new(8)].leak();
    let store: &'static KvStore<'static, Ebr> =
        Box::leak(Box::new(KvStore::new(schemes, KvConfig::default())));
    {
        let mut ctx = store.register().expect("preload ctx");
        for k in 0..keys {
            store.put(&mut ctx, k, k).expect("preload put");
        }
    }
    let cfg = NetConfig {
        workers,
        ..NetConfig::default()
    };
    let server: &'static NetServer<'static, 'static, Ebr> = Box::leak(Box::new(
        NetServer::bind(store, cfg, "127.0.0.1:0").expect("bind"),
    ));
    let (served_tx, served_rx) = mpsc::channel();
    std::thread::spawn(move || served_tx.send(server.run().expect("serve")));
    (server.local_addr(), server.handle(), served_rx)
}

/// Connects and has one PING answered: a worker is now on this
/// connection, whenever a later shutdown lands.
fn connect_served(addr: SocketAddr) -> TcpStream {
    let mut stream = connect(addr, Duration::from_secs(10));
    write_request(&mut stream, &Request::Ping).expect("ping");
    assert_eq!(read_response(&mut stream, &mut Vec::new()), Response::Pong);
    stream
}

/// A client that pipelines requests and never reads the replies fills
/// both kernel buffers and stalls the worker in its write; the write
/// timeout is what lets that worker see the stop flag.
#[test]
#[cfg_attr(miri, ignore = "real sockets and threads")]
fn a_client_that_never_reads_cannot_hang_shutdown() {
    const KEYS: i64 = 1024;
    // 64 MiB of replies: past anything loopback buffers absorb.
    const SCANS: usize = 4096;
    let (addr, handle, served) = detached_server(1, KEYS);

    let (sent_tx, sent_rx) = mpsc::channel();
    let (_hold_open, closed) = mpsc::channel::<()>();
    std::thread::spawn(move || {
        let mut stream = connect_served(addr);
        let mut wire = Vec::new();
        Request::Scan {
            lo: 0,
            hi: KEYS,
            limit: KEYS as u32,
        }
        .encode(&mut wire);
        let sent = stream.write_all(&wire.repeat(SCANS));
        sent_tx.send(sent.is_ok()).expect("test thread is waiting");
        // Keep the socket open, unread, until the test is over.
        let _ = closed.recv();
    });
    assert!(
        sent_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("client stuck sending 100 KB"),
        "client write failed"
    );

    handle.shutdown();
    let stats = served
        .recv_timeout(Duration::from_secs(2))
        .expect("run() still blocked 2 s after shutdown: a worker is stuck in write");
    assert!(stats.frames >= 2, "the worker never got as far as a SCAN");
}

/// Shutdown does not wait for clients to hang up: not for one that is
/// connected and quiet, not for one that stopped halfway into a frame.
#[test]
#[cfg_attr(miri, ignore = "real sockets and threads")]
fn idle_and_mid_frame_clients_cannot_hang_shutdown() {
    let (addr, handle, served) = detached_server(2, 0);
    let _idle = connect_served(addr);
    let mut partial = connect_served(addr);
    let (wire, _) = encode_stream(&[Request::Get { key: 1 }]);
    partial.write_all(&wire[..7]).expect("send half a frame");

    handle.shutdown();
    let stats = served
        .recv_timeout(Duration::from_secs(2))
        .expect("run() still blocked 2 s after shutdown");
    assert_eq!(stats.frames, 2, "the two PINGs and nothing else");
}

/// `workers: 0` means one worker, decided once at bind: the worker
/// serves, and the acceptor traces from the slot past it instead of
/// sharing slot 0 (where `era-view` would draw its `Accept` events on
/// the worker's timeline).
#[test]
#[cfg_attr(miri, ignore = "real sockets and threads")]
fn zero_workers_is_one_worker_and_the_acceptor_keeps_its_own_slot() {
    let schemes = vec![Ebr::new(8)];
    let store = KvStore::new(&schemes, KvConfig::default());
    let cfg = NetConfig {
        workers: 0,
        ..NetConfig::default()
    };
    let server = NetServer::bind(&store, cfg, "127.0.0.1:0").expect("bind");
    let handle = server.handle();
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run().expect("serve"));
        let mut stream = connect(server.local_addr(), Duration::from_secs(10));
        write_request(&mut stream, &Request::Ping).expect("ping");
        assert_eq!(read_response(&mut stream, &mut Vec::new()), Response::Pong);
        drop(stream);
        handle.shutdown();
        run.join().expect("server thread");
    });
    // The `net` recorder is the flight recorder's last source.
    let dump = server.flight().snapshot();
    let net = dump.sources.last().expect("the net source");
    let accepts: Vec<u16> = net
        .events
        .iter()
        .filter(|e| e.hook == era_obs::Hook::Accept as u8)
        .map(|e| e.thread)
        .collect();
    assert!(!accepts.is_empty(), "the accepted connection left no event");
    assert!(accepts.iter().all(|&t| t == 1), "accept slots: {accepts:?}");
}
