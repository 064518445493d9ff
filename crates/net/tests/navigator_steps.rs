//! The server steps the navigator on the writes it answers, not on a
//! timer.
//!
//! A navigator tick emits exactly one `Hook::Sample` per shard, so a
//! shard recorder's `Sample` count is the number of ticks the store
//! has taken. Over a real socket, with one worker whose socket timeout
//! outlasts the test (so no idle step can land), a GET-only stream
//! adds no `Sample` on any shard, and a `PUT`/`REMOVE` stream of
//! `k × NAV_EVERY` writes adds exactly `k` on every shard. A worker
//! steps after a turn's replies have left, so each stream ends with a
//! `PING` round trip: its turn starts only once the last stream's step
//! has run.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use era_kv::{KvConfig, KvStore, NAV_EVERY};
use era_net::proto::read_frame;
use era_net::{NetConfig, NetServer, Request, Response};
use era_obs::Hook;
use era_smr::ebr::Ebr;

const SHARDS: usize = 4;
/// Frames a client sends before reading their replies.
const BURST: usize = 64;

/// Sends `requests` in pipelined bursts of `BURST`, reading every
/// burst's replies before the next, then one `PING`; returns the
/// replies to `requests`.
fn serve(stream: &mut TcpStream, requests: &[Request]) -> Vec<Response> {
    let mut scratch = Vec::new();
    let mut replies = Vec::with_capacity(requests.len());
    let mut out = Vec::new();
    let ping = [Request::Ping];
    for burst in requests.chunks(BURST).chain([&ping[..]]) {
        out.clear();
        for req in burst {
            req.encode(&mut out);
        }
        stream.write_all(&out).expect("send burst");
        for _ in burst {
            let frame = read_frame(stream, &mut scratch)
                .expect("transport error mid-reply")
                .expect("server closed mid-reply");
            replies.push(Response::decode(frame).expect("undecodable reply"));
        }
    }
    assert_eq!(replies.pop(), Some(Response::Pong));
    replies
}

#[test]
#[cfg_attr(miri, ignore = "real sockets and threads")]
fn the_navigator_steps_once_per_nav_every_writes_and_never_on_reads() {
    let schemes: Vec<Ebr> = (0..SHARDS).map(|_| Ebr::new(8)).collect();
    let store = KvStore::new(&schemes, KvConfig::default());
    let cfg = NetConfig {
        workers: 1,
        read_timeout: Duration::from_secs(60),
        ..NetConfig::default()
    };
    let server = NetServer::bind(&store, cfg, "127.0.0.1:0").expect("bind");
    let samples = || -> Vec<u64> {
        (0..SHARDS)
            .map(|i| store.recorder(i).metrics().hook_count(Hook::Sample))
            .collect()
    };
    // A panic below unwinds past the explicit shutdown; the guard
    // stops the server so the scope can join it.
    struct StopOnDrop(era_net::NetHandle);
    impl Drop for StopOnDrop {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }
    std::thread::scope(|s| {
        let _guard = StopOnDrop(server.handle());
        let run = s.spawn(|| server.run().expect("serve"));
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");

        let gets: Vec<Request> = (0..1i64 << 14)
            .map(|i| Request::Get { key: i % 1024 })
            .collect();
        for reply in serve(&mut stream, &gets) {
            assert_eq!(reply, Response::Value(None));
        }
        assert_eq!(
            samples(),
            vec![0; SHARDS],
            "a GET-only stream stepped the navigator"
        );

        let mut expected = vec![0; SHARDS];
        for k in [1, 3] {
            let writes: Vec<Request> = (0..k * NAV_EVERY as i64)
                .map(|i| match i % 2 {
                    0 => Request::Put { key: i, value: i },
                    _ => Request::Remove { key: i - 1 },
                })
                .collect();
            for reply in serve(&mut stream, &writes) {
                assert!(matches!(reply, Response::Value(_)), "{reply:?}");
            }
            for n in &mut expected {
                *n += k as u64;
            }
            assert_eq!(
                samples(),
                expected,
                "{} writes took a step other than once per {NAV_EVERY}",
                writes.len()
            );
        }

        drop(stream);
        server.handle().shutdown();
        let stats = run.join().expect("server thread");
        assert_eq!(stats.frames, (1 << 14) + 4 * NAV_EVERY + 3);
    });
}
