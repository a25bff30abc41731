//! Hot-swap under load: N client threads hammer the server over TCP
//! while snapshots flip underneath them — both in-process (`Arc` flip)
//! and over the wire (`'S'` swap frames) — and every single response
//! must be internally consistent with exactly one snapshot version. A
//! torn read (version line from one snapshot, rule lines from another)
//! would match neither expected body and fail on the spot.
//!
//! Drain is pinned too: cancelling the token makes `serve` return, and
//! since its waker and workers are scoped threads joined before return, a
//! returned `serve` *is* the zero-leftover-threads assertion. The waker
//! returns the blocked accept by connecting to the listener; the idle
//! drain tests run it on a loopback and an unspecified bind and require
//! that connection to stay out of the stats.

use negassoc::{MinerConfig, NegativeMiner, RuleSetExport};
use negassoc_apriori::MinSupport;
use negassoc_serve::{
    answer_basket_line, export_snapshot, request, serve, server::TAG_PING, server::TAG_QUERY,
    server::TAG_SWAP, ServeState, Snapshot,
};
use negassoc_taxonomy::{Taxonomy, TaxonomyBuilder};
use negassoc_txdb::ctrl::{CancelReason, CancelToken};
use negassoc_txdb::obs::Obs;
use negassoc_txdb::TransactionDbBuilder;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 40;
const SWAPS_OVER_TCP: usize = 10;
const BASKET: &str = "Ruffles, Pepsi";

/// The paper's Example 1 checkout data: Ruffles sells with Coke, almost
/// never with Pepsi — reliably yields both positive and negative rules.
fn mined_export() -> (Taxonomy, RuleSetExport) {
    let mut tb = TaxonomyBuilder::new();
    let drinks = tb.add_root("soft drinks");
    let coke = tb.add_child(drinks, "Coke").unwrap();
    let pepsi = tb.add_child(drinks, "Pepsi").unwrap();
    let snacks = tb.add_root("snacks");
    let ruffles = tb.add_child(snacks, "Ruffles").unwrap();
    tb.add_child(snacks, "Lays").unwrap();
    let tax = tb.build();

    let mut db = TransactionDbBuilder::new();
    for _ in 0..40 {
        db.add([ruffles, coke]);
    }
    for _ in 0..25 {
        db.add([coke]);
    }
    for _ in 0..30 {
        db.add([pepsi]);
    }
    for _ in 0..5 {
        db.add([ruffles, pepsi]);
    }
    let db = db.build();

    let config = MinerConfig {
        min_support: MinSupport::Fraction(0.10),
        min_ri: 0.3,
        ..MinerConfig::default()
    };
    let outcome = NegativeMiner::new(config).mine(&db, &tax).expect("mine");
    (tax.clone(), outcome.rule_export(&tax, 0.6, 0.3))
}

/// Cancel `token` and wait up to `limit` for the server to report on
/// `done` that `serve` returned. Returns how long the drain took, or
/// `None` when it overran: then the test connects to the listener on
/// `port` itself, so a lost wake fails the test instead of hanging it.
fn cancel_within(
    token: &CancelToken,
    done: &mpsc::Receiver<()>,
    port: u16,
    limit: Duration,
) -> Option<Duration> {
    let start = Instant::now();
    token.cancel(CancelReason::UserInterrupt);
    if done.recv_timeout(limit).is_ok() {
        return Some(start.elapsed());
    }
    let _ = TcpStream::connect(("127.0.0.1", port));
    None
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("negassoc-soak-{}-{name}", std::process::id()))
}

#[test]
fn hot_swap_soak_no_torn_reads_and_clean_drain() {
    let (tax, export1) = mined_export();
    assert!(
        !export1.positive.is_empty() && !export1.negative.is_empty(),
        "soak data must exercise both rule polarities"
    );
    // Snapshot 2: same mine, negatives dropped — bodies differ beyond
    // the version line, so a torn read cannot masquerade as either.
    let mut export2 = export1.clone();
    export2.negative.clear();

    let snap1 = Arc::new(Snapshot::from_export(&export1, &tax, 1).expect("snap1"));
    let snap2 = Arc::new(Snapshot::from_export(&export2, &tax, 2).expect("snap2"));
    let expected1 = answer_basket_line(&tax, &snap1, BASKET, false);
    let expected2 = answer_basket_line(&tax, &snap2, BASKET, false);
    assert_ne!(expected1, expected2);
    assert!(expected1.starts_with("snapshot 1 "));
    assert!(expected2.starts_with("snapshot 2 "));

    // On-disk copies for the over-the-wire swap path, plus a third
    // snapshot exported under a *different* taxonomy: swapping to it
    // must be refused with the old snapshot still serving.
    let file1 = temp_path("v1.nars");
    let file2 = temp_path("v2.nars");
    let alien = temp_path("alien.nars");
    export_snapshot(&file1, &export1, &tax, 1).expect("export v1");
    export_snapshot(&file2, &export2, &tax, 2).expect("export v2");
    {
        let (other_tax, other_export) = {
            let mut tb = TaxonomyBuilder::new();
            let root = tb.add_root("aisle");
            let a = tb.add_child(root, "a").unwrap();
            let b = tb.add_child(root, "b").unwrap();
            let tax = tb.build();
            let mut db = TransactionDbBuilder::new();
            for _ in 0..30 {
                db.add([a, b]);
            }
            let db = db.build();
            let config = MinerConfig {
                min_support: MinSupport::Fraction(0.2),
                min_ri: 0.3,
                ..MinerConfig::default()
            };
            let outcome = NegativeMiner::new(config).mine(&db, &tax).expect("mine");
            let export = outcome.rule_export(&tax, 0.5, 0.3);
            (tax, export)
        };
        export_snapshot(&alien, &other_export, &other_tax, 9).expect("export alien");
    }

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let state = ServeState::new(tax.clone(), Arc::clone(&snap1)).expect("state");
    let token = CancelToken::new();
    let obs = Obs::disabled();
    let finished = AtomicUsize::new(0);

    let stats = std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel();
        let server = {
            let (listener, state, token, obs) = (listener, &state, &token, &obs);
            scope.spawn(move || {
                let stats = serve(listener, state, 3, token, obs);
                let _ = done_tx.send(());
                stats
            })
        };

        // Query clients: each holds one keep-alive connection and
        // asserts every body equals one snapshot's expected answer.
        let mut clients = Vec::new();
        for c in 0..CLIENTS {
            let (expected1, expected2, finished) = (&expected1, &expected2, &finished);
            clients.push(scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut seen = [0usize; 2];
                for i in 0..QUERIES_PER_CLIENT {
                    let (ok, body) =
                        request(&mut stream, TAG_QUERY, BASKET.as_bytes()).expect("query");
                    assert!(ok, "client {c} query {i} failed: {body}");
                    if body == *expected1 {
                        seen[0] += 1;
                    } else if body == *expected2 {
                        seen[1] += 1;
                    } else {
                        panic!(
                            "client {c} query {i}: torn or foreign response:\n{body}\n\
                             (expected one of the two snapshot bodies)"
                        );
                    }
                    // Interleave a ping now and then; its version must
                    // also be a real one.
                    if i % 16 == 7 {
                        let (ok, pong) = request(&mut stream, TAG_PING, b"").expect("ping");
                        assert!(ok && (pong.contains("snapshot 1") || pong.contains("snapshot 2")));
                    }
                }
                finished.fetch_add(1, Ordering::SeqCst);
                seen
            }));
        }

        // Over-the-wire swapper: alternates v1/v2 swap frames, and
        // checks the alien snapshot is refused every time.
        let swapper = {
            let (file1, file2, alien, finished) = (&file1, &file2, &alien, &finished);
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect swapper");
                let mut refused = 0usize;
                for i in 0..SWAPS_OVER_TCP {
                    let path = if i % 2 == 0 { file2 } else { file1 };
                    let (ok, body) =
                        request(&mut stream, TAG_SWAP, path.display().to_string().as_bytes())
                            .expect("swap");
                    assert!(ok, "swap {i} refused: {body}");
                    assert!(body.contains("swapped snapshot version"), "got: {body}");
                    let (ok, body) = request(
                        &mut stream,
                        TAG_SWAP,
                        alien.display().to_string().as_bytes(),
                    )
                    .expect("alien swap");
                    assert!(!ok, "mismatched taxonomy swap must be refused");
                    assert!(body.contains("taxonomy mismatch"), "got: {body}");
                    refused += 1;
                }
                finished.fetch_add(1, Ordering::SeqCst);
                refused
            })
        };

        // Main thread: flip the Arc pointer directly while anyone is
        // still running — the in-process half of the swap storm.
        let mut flips = 0u64;
        while finished.load(Ordering::SeqCst) < CLIENTS + 1 {
            let next = if flips % 2 == 0 { &snap2 } else { &snap1 };
            state.install(Arc::clone(next)).expect("install");
            flips += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(flips > 0);

        let mut totals = [0usize; 2];
        for client in clients {
            let seen = client.join().expect("client");
            totals[0] += seen[0];
            totals[1] += seen[1];
        }
        assert_eq!(totals[0] + totals[1], CLIENTS * QUERIES_PER_CLIENT);
        let refused = swapper.join().expect("swapper");
        assert_eq!(refused, SWAPS_OVER_TCP);

        // Drain: cancel and require serve() to return promptly. Its
        // waker and workers are scoped threads joined before return, so
        // returning is the zero-leaked-threads guarantee.
        let drained = cancel_within(&token, &done_rx, addr.port(), Duration::from_secs(5));
        let stats = server.join().expect("server thread").expect("serve result");
        assert!(drained.is_some(), "serve still running 5 s after cancel");
        stats
    });

    assert_eq!(stats.queries, (CLIENTS * QUERIES_PER_CLIENT) as u64);
    assert_eq!(stats.swaps, SWAPS_OVER_TCP as u64);
    // Every alien swap counted as an error response.
    assert!(stats.errors >= SWAPS_OVER_TCP as u64);
    assert_eq!(stats.connections, (CLIENTS + 1) as u64);
    assert_eq!(stats.workers, 3);

    for p in [&file1, &file2, &alien] {
        std::fs::remove_file(p).ok();
    }
}

/// Cancel a server on `bind` that never saw a client: `serve` must
/// return within 2 s, and the connection that wakes its blocked accept
/// must not be counted.
fn idle_drain_returns_promptly(bind: &str) {
    let (tax, export) = mined_export();
    let snap = Arc::new(Snapshot::from_export(&export, &tax, 1).expect("snap"));
    let state = ServeState::new(tax, snap).expect("state");
    let listener = TcpListener::bind(bind).expect("bind");
    let port = listener.local_addr().expect("addr").port();
    let token = CancelToken::new();
    let obs = Obs::disabled();

    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel();
        let server = {
            let (state, token, obs) = (&state, &token, &obs);
            scope.spawn(move || {
                let stats = serve(listener, state, 2, token, obs);
                let _ = done_tx.send(());
                stats
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        let drained = cancel_within(&token, &done_rx, port, Duration::from_secs(2));
        let stats = server.join().expect("thread").expect("serve");
        assert!(
            drained.is_some(),
            "{bind}: serve still running 2 s after cancel"
        );
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.connections, 0, "the wake connection was counted");
        assert_eq!(stats.workers, 2);
    });
}

#[test]
fn drain_with_no_clients_returns_promptly() {
    idle_drain_returns_promptly("127.0.0.1:0");
}

#[test]
fn drain_on_an_unspecified_bind_returns_promptly() {
    idle_drain_returns_promptly("0.0.0.0:0");
}
