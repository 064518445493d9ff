//! End-to-end admission control over a real loopback socket.
//!
//! A seeded [`FaultPlan`] stalls a reader on the server's only shard
//! (the robustness adversary), the remote client churns writes until
//! the navigator classifies the shard `Violating`, and the assertions
//! are exactly the serving contract from DESIGN §3.12:
//!
//! * writes come back as typed `Overloaded` frames with a
//!   `Retry-After` hint — not silent stalls, not dropped connections;
//! * reads on the same connection keep succeeding throughout;
//! * after the stall window passes and the shard is drained and
//!   healed, remote writes succeed again and `STATS` reports the
//!   shard `Robust`.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use era_chaos::{ChaosSmr, FaultAction, FaultPlan};
use era_kv::{KvConfig, KvStore, ShardHealth};
use era_net::proto::{read_frame, write_request, Request, Response};
use era_net::{ErrorCode, NetConfig, NetServer};
use era_smr::ebr::Ebr;

/// The stall fires once the server has executed `STALL_AT` store ops
/// and pins its victim for the next `STALL_FOR` ops.
const STALL_AT: u64 = 24;
const STALL_FOR: u64 = 100_000;

fn read_response(stream: &mut TcpStream, scratch: &mut Vec<u8>) -> Response {
    let frame = read_frame(stream, scratch)
        .expect("transport error mid-response")
        .expect("server closed mid-response");
    Response::decode(frame).expect("server sent an undecodable frame")
}

fn roundtrip(stream: &mut TcpStream, scratch: &mut Vec<u8>, req: &Request) -> Response {
    write_request(stream, req).expect("send");
    stream.flush().unwrap();
    read_response(stream, scratch)
}

#[test]
#[cfg_attr(miri, ignore = "real sockets and threads")]
fn violating_shard_sheds_remote_writes_serves_reads_then_heals() {
    // One shard, tiny budgets, a seeded deterministic stall plan.
    let plan = FaultPlan::new(
        0x0E8A_AD11,
        vec![FaultAction::StallThread {
            at_op: STALL_AT,
            for_ops: STALL_FOR,
        }],
    );
    let schemes = vec![ChaosSmr::new(Ebr::new(16), plan)];
    let cfg = KvConfig {
        retired_soft: 64,
        retired_hard: 128,
        max_threads: 12,
        ..KvConfig::default()
    };
    let store = KvStore::new(&schemes, cfg);
    let server = NetServer::bind(
        &store,
        NetConfig {
            workers: 2,
            // Fast idle ticks so worker maintenance (the path that
            // flushes the serving worker's retire lists) runs often.
            read_timeout: Duration::from_millis(5),
            ..NetConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();

    // A failed assertion below unwinds the scope closure before the
    // explicit shutdown call; without this guard the scope would then
    // join a server that nobody will ever stop.
    struct StopOnDrop(era_net::NetHandle);
    impl Drop for StopOnDrop {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }

    std::thread::scope(|s| {
        let _guard = StopOnDrop(server.handle());
        let run = s.spawn(|| server.run().expect("serve"));

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut scratch = Vec::new();

        // A sentinel key that stays present for the whole incident —
        // written while the shard is still Robust.
        assert_eq!(
            roundtrip(
                &mut stream,
                &mut scratch,
                &Request::Put { key: -1, value: 7 }
            ),
            Response::Value(None)
        );

        // Phase 1 — insert/remove churn. Values update in place on
        // overwrite, so only removals retire nodes: each put+remove
        // pair leaves one retired node behind. Once the chaos victim
        // pins the epoch, retired_now marches through the soft budget
        // (Degrading: writes queue but land) into the hard budget.
        // There the navigator flips the shard Violating and the net
        // layer sheds — and because shed writes stop the retire/flush
        // traffic, the footprint stays above the recovery threshold:
        // the shard latches Violating until the test drains it. The
        // first typed error frame is the proof.
        let mut shed = None;
        'churn: for i in 0..2_000i64 {
            let key = 8 + i;
            for req in [Request::Put { key, value: i }, Request::Remove { key }] {
                match roundtrip(&mut stream, &mut scratch, &req) {
                    Response::Value(_) => {}
                    Response::Error(e) => {
                        shed = Some(e);
                        break 'churn;
                    }
                    other => panic!("unexpected response {other:?}"),
                }
            }
        }
        let shed = shed.expect("navigator never shed a write despite the pinned epoch");
        assert_eq!(
            shed.code,
            ErrorCode::Overloaded,
            "expected Overloaded, got {shed:?}"
        );
        assert_eq!(shed.shard, 0, "the shed must name the violating shard");
        assert!(
            shed.retry_after_ms > 0,
            "Overloaded must carry a Retry-After hint"
        );

        // Phase 2 — reads on the same connection still succeed while
        // writes are refused (reads add no reclamation footprint), and
        // the shard is still refusing writes (latched Violating).
        assert_eq!(
            roundtrip(&mut stream, &mut scratch, &Request::Get { key: -1 }),
            Response::Value(Some(7)),
            "read during violation must serve the sentinel"
        );
        match roundtrip(
            &mut stream,
            &mut scratch,
            &Request::Put { key: -2, value: 0 },
        ) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Overloaded),
            other => panic!("write during latched violation answered {other:?}"),
        }
        // Phase 3 — recovery. Advance the chaos op clock past the
        // stall window with reads (each begin_op ticks the clock),
        // then drain the shard and heal this thread's context. The
        // server's own watchdog keeps classifying; once footprint
        // falls below half the soft budget the shard re-opens.
        let mut ctx = store.register().expect("test ctx");
        for _ in 0..(STALL_AT + STALL_FOR + 16) {
            let _ = store.get(&mut ctx, 3);
        }
        // The churned garbage lives in the *serving worker's* retire
        // lists, so this thread's drain alone cannot reclaim it — the
        // workers' idle-maintenance flushes (every read_timeout) do.
        // Drive drain rounds until both sides have drained everything.
        let drain_deadline = Instant::now() + Duration::from_secs(10);
        while !store.drain(&mut ctx, 100) {
            assert!(
                Instant::now() < drain_deadline,
                "shard failed to drain after the stall window closed: {:?}",
                store.stats()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        store.heal(&mut ctx, 0).expect("heal after the incident");

        let deadline = Instant::now() + Duration::from_secs(10);
        while store.health(0) != ShardHealth::Robust {
            assert!(
                Instant::now() < deadline,
                "shard stuck {:?} after drain + heal",
                store.health(0)
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        // Remote writes are admitted again...
        let recovered = roundtrip(
            &mut stream,
            &mut scratch,
            &Request::Put { key: 3, value: 99 },
        );
        assert!(
            matches!(recovered, Response::Value(_)),
            "write after heal answered {recovered:?}"
        );
        // ...and the wire-visible stats agree: shard Robust, sheds > 0.
        match roundtrip(&mut stream, &mut scratch, &Request::Stats) {
            Response::Stats(st) => {
                assert_eq!(st.health, vec![ShardHealth::Robust as u8]);
                assert!(st.sheds > 0, "the shed phase must be visible in STATS");
                assert!(st.transitions > 0, "health transitions must be counted");
            }
            other => panic!("STATS answered {other:?}"),
        }

        drop(stream);
        handle.shutdown();
        let stats = run.join().unwrap();
        assert!(stats.shed_writes > 0, "server must count its sheds");
        assert_eq!(stats.malformed, 0);
    });
}
