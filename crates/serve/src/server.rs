//! The long-running rule server: length-prefixed TCP, a worker pool on
//! the workspace's sanctioned spawn discipline, hot-swappable snapshots,
//! and graceful drain on the shared [`CancelToken`].
//!
//! # Protocol
//!
//! Every request and response is one frame: a `u32` little-endian length
//! followed by that many bytes. A request's first byte is its tag —
//! [`TAG_QUERY`] (`'Q'`, rest is a comma-separated basket line),
//! [`TAG_SWAP`] (`'S'`, rest is a snapshot path the *server* loads), or
//! [`TAG_PING`] (`'P'`). A response's first byte is `+` (ok) or `-`
//! (error), followed by a UTF-8 body. Connections are keep-alive: one
//! stream carries any number of frames.
//!
//! # Hot swap
//!
//! The live snapshot sits behind [`SnapshotCell`] — the `Arc` pointer
//! flip. A request clones the `Arc` once, up front, and resolves
//! entirely against that clone; a concurrent swap replaces the pointer
//! for *future* requests but can never tear an in-flight one. Swaps
//! verify the new snapshot's taxonomy digest against the serving
//! taxonomy and are refused (typed error, old snapshot stays) on
//! mismatch.
//!
//! # Drain
//!
//! The accept loop blocks in `accept`, so a connection reaches a worker
//! as soon as it arrives. A waker thread polls the [`CancelToken`] and,
//! once it trips, connects to the listener itself: that connection
//! returns the blocked `accept`, and the loop drops it uncounted and
//! stops. Workers then finish the request they are executing and close
//! connections at the next frame boundary. The waker and the workers are
//! scoped threads joined before [`serve`] returns, so a returned `serve`
//! means zero threads remain — the soak test pins exactly that.

use crate::engine::answer_basket_line;
use crate::error::ServeError;
use crate::snapshot::Snapshot;
use negassoc_taxonomy::Taxonomy;
use negassoc_txdb::ctrl::CancelToken;
use negassoc_txdb::obs::{MetricId, MetricKind, Obs};
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Request tag: match a basket (body = comma-separated item names).
pub const TAG_QUERY: u8 = b'Q';
/// Request tag: hot-swap to the snapshot at the body's path.
pub const TAG_SWAP: u8 = b'S';
/// Request tag: liveness probe; answers with the live snapshot version.
pub const TAG_PING: u8 = b'P';

/// How often blocked waits re-check the cancel token (the `txdb::block`
/// cadence). It bounds how late a cancel is seen, never how late a
/// request is.
const CTRL_POLL: Duration = Duration::from_millis(20);
/// Socket read/write timeout, so idle connections poll the token too.
const IO_POLL: Duration = Duration::from_millis(50);
/// Poll rounds a worker grants a mid-frame request after cancellation
/// before abandoning the connection (~1 s at [`IO_POLL`]); drain must
/// not hinge on a stalled client.
const DRAIN_GRACE_POLLS: u32 = 20;
/// Largest request frame the server accepts; beyond this the peer is not
/// speaking the protocol.
const MAX_REQUEST: u32 = 1 << 20;
/// Largest response frame [`request`] accepts. Answers are far larger
/// than requests: a category basket can match over ten thousand rules.
const MAX_RESPONSE: u32 = 64 << 20;

/// The hot-swap cell: an `Arc` pointer flip behind a many-reader lock.
/// Readers hold the lock only long enough to clone the `Arc`; every
/// request therefore resolves against exactly one snapshot for its whole
/// lifetime, which is the no-torn-reads guarantee.
#[derive(Debug)]
pub struct SnapshotCell {
    slot: RwLock<Arc<Snapshot>>,
}

impl SnapshotCell {
    /// A cell serving `snapshot`.
    pub fn new(snapshot: Arc<Snapshot>) -> Self {
        SnapshotCell {
            // negassoc-lint: allow(L012) -- serving-layer swap cell, not a counting-pass structure; readers only clone the Arc
            slot: RwLock::new(snapshot),
        }
    }

    /// The live snapshot (cloned handle).
    pub fn load(&self) -> Arc<Snapshot> {
        // A poisoned lock only means some reader/writer panicked while
        // holding it; the Arc inside is still valid.
        match self.slot.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poison) => Arc::clone(&poison.into_inner()),
        }
    }

    /// Flip the pointer to `next`, returning the snapshot it replaced.
    pub fn swap(&self, next: Arc<Snapshot>) -> Arc<Snapshot> {
        let mut guard = match self.slot.write() {
            Ok(guard) => guard,
            Err(poison) => poison.into_inner(),
        };
        std::mem::replace(&mut *guard, next)
    }
}

/// Everything the worker pool shares: the serving taxonomy and the
/// hot-swap cell. Construction and every swap re-verify the snapshot's
/// taxonomy digest, so the state can never pair rules with the wrong
/// hierarchy.
#[derive(Debug)]
pub struct ServeState {
    tax: Taxonomy,
    cell: SnapshotCell,
}

impl ServeState {
    /// A state serving `snapshot` over `tax`. Fails with
    /// [`ServeError::SnapshotTaxonomyMismatch`] when they disagree.
    pub fn new(tax: Taxonomy, snapshot: Arc<Snapshot>) -> Result<Self, ServeError> {
        let digest = tax.digest();
        if snapshot.meta().taxonomy_digest != digest {
            return Err(ServeError::SnapshotTaxonomyMismatch {
                snapshot: snapshot.meta().taxonomy_digest,
                taxonomy: digest,
            });
        }
        Ok(ServeState {
            tax,
            cell: SnapshotCell::new(snapshot),
        })
    }

    /// The serving taxonomy.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.tax
    }

    /// The live snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.cell.load()
    }

    /// Answer one basket line against the live snapshot (the server's
    /// query path; also the bench harness's unit of work).
    pub fn answer(&self, line: &str) -> String {
        let snapshot = self.cell.load();
        answer_basket_line(&self.tax, &snapshot, line, false)
    }

    /// Install `next` as the live snapshot after digest verification.
    /// Returns `(old_version, new_version)`; on mismatch the old
    /// snapshot keeps serving.
    pub fn install(&self, next: Arc<Snapshot>) -> Result<(u64, u64), ServeError> {
        let digest = self.tax.digest();
        if next.meta().taxonomy_digest != digest {
            return Err(ServeError::SnapshotTaxonomyMismatch {
                snapshot: next.meta().taxonomy_digest,
                taxonomy: digest,
            });
        }
        let new_version = next.meta().snapshot_version;
        let old = self.cell.swap(next);
        Ok((old.meta().snapshot_version, new_version))
    }

    /// Load the snapshot at `path` and install it (the `'S'` request).
    pub fn install_from_path(&self, path: &str) -> Result<(u64, u64), ServeError> {
        let next = Snapshot::load(path, &self.tax)?;
        self.install(Arc::new(next))
    }
}

/// What one [`serve`] run did, merged across workers in spawn order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: u64,
    /// Frames answered (all tags).
    pub requests: u64,
    /// Query frames answered.
    pub queries: u64,
    /// Successful hot-swaps.
    pub swaps: u64,
    /// Error responses plus protocol/I/O failures.
    pub errors: u64,
    /// Worker threads the pool ran (all joined by return time).
    pub workers: usize,
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "served {} requests ({} queries, {} swaps, {} errors) over {} connections on {} workers",
            self.requests, self.queries, self.swaps, self.errors, self.connections, self.workers
        )
    }
}

/// Pre-registered metric ids (registration hashes names; do it once, not
/// per request).
#[derive(Clone, Copy)]
struct ServeMetrics {
    connections: Option<MetricId>,
    requests: Option<MetricId>,
    queries: Option<MetricId>,
    swaps: Option<MetricId>,
    errors: Option<MetricId>,
    snapshot_version: Option<MetricId>,
    latency: [Option<MetricId>; 5],
}

/// Upper bounds (µs) of the latency histogram buckets; the last bucket
/// is unbounded.
const LATENCY_BOUNDS_US: [u128; 4] = [100, 1_000, 10_000, 100_000];
const LATENCY_NAMES: [&str; 5] = [
    "serve.latency_le_100us",
    "serve.latency_le_1ms",
    "serve.latency_le_10ms",
    "serve.latency_le_100ms",
    "serve.latency_gt_100ms",
];

impl ServeMetrics {
    fn register(obs: &Obs) -> Self {
        let mut latency = [None; 5];
        for (slot, name) in latency.iter_mut().zip(LATENCY_NAMES) {
            *slot = obs.metric(name, MetricKind::Counter);
        }
        ServeMetrics {
            connections: obs.metric("serve.connections", MetricKind::Counter),
            requests: obs.metric("serve.requests", MetricKind::Counter),
            queries: obs.metric("serve.queries", MetricKind::Counter),
            swaps: obs.metric("serve.swaps", MetricKind::Counter),
            errors: obs.metric("serve.errors", MetricKind::Counter),
            snapshot_version: obs.metric("serve.snapshot_version", MetricKind::Gauge),
            latency,
        }
    }

    fn observe_latency(&self, obs: &Obs, elapsed: Duration) {
        let us = elapsed.as_micros();
        let bucket = LATENCY_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        obs.count(self.latency[bucket], 1);
    }
}

/// Run the server until `token` cancels: accept on `listener`, fan
/// connections out to `workers` pooled threads, answer frames against
/// `state`, report counters and latency buckets through `obs`.
///
/// The accept loop runs on the calling thread and blocks in `accept`; a
/// scoped waker thread polls the token every [`CTRL_POLL`] and, on
/// cancel, connects to the listener to return that `accept` (see
/// [`wake_on_cancel`]). The wake connection is dropped without being
/// counted or dispatched. Workers block on the connection queue with
/// `recv_timeout` and poll the same token. The waker and then the
/// workers, in spawn order, are joined before this returns, with panics
/// propagated.
pub fn serve(
    listener: TcpListener,
    state: &ServeState,
    workers: usize,
    token: &CancelToken,
    obs: &Obs,
) -> io::Result<ServeStats> {
    let workers = workers.max(1);
    let metrics = ServeMetrics::register(obs);
    if let Some(id) = metrics.snapshot_version {
        if let Some(m) = obs.metrics() {
            m.set(id, state.snapshot().meta().snapshot_version);
        }
    }
    listener.set_nonblocking(false)?;
    let wake_addr = loopback_if_unspecified(listener.local_addr()?);
    let accepting = AtomicBool::new(true);

    let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(workers * 2);
    let conn_rx = Mutex::new(conn_rx);

    let mut stats = ServeStats {
        workers,
        ..ServeStats::default()
    };
    std::thread::scope(|scope| -> io::Result<()> {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let conn_rx = &conn_rx;
            handles.push(scope.spawn(move || worker_loop(conn_rx, state, token, obs, metrics)));
        }
        let accepting = &accepting;
        let waker = scope.spawn(move || wake_on_cancel(wake_addr, token, accepting));

        while !token.is_cancelled() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if token.is_cancelled() {
                        // The waker's connection, or a client that lost
                        // the race with cancel: neither is served.
                        break;
                    }
                    stats.connections += 1;
                    obs.count(metrics.connections, 1);
                    // Tiny frames dominate; don't batch them.
                    let _ = stream.set_nodelay(true);
                    if conn_tx.send(stream).is_err() {
                        // Every worker exited (only possible via panic);
                        // joining below will propagate it.
                        break;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
                    ) => {}
                Err(_) => {
                    // Accept failure (a connection reset before accept,
                    // or out of descriptors); stay up, but do not spin
                    // on an error that persists.
                    stats.errors += 1;
                    obs.count(metrics.errors, 1);
                    std::thread::sleep(CTRL_POLL);
                }
            }
        }

        // The loop has stopped: release the waker, then drain. No new
        // connections; workers finish in-flight requests, drop queued
        // connections, and exit.
        accepting.store(false, Ordering::Release);
        waker.thread().unpark();
        if let Err(payload) = waker.join() {
            std::panic::resume_unwind(payload);
        }
        drop(conn_tx);
        for handle in handles {
            match handle.join() {
                Ok(ws) => {
                    stats.requests += ws.requests;
                    stats.queries += ws.queries;
                    stats.swaps += ws.swaps;
                    stats.errors += ws.errors;
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        Ok(())
    })?;
    obs.flush();
    Ok(stats)
}

/// Where the waker connects to reach a listener bound at `addr`: the
/// address itself, or loopback when the listener is bound to every
/// interface (`0.0.0.0` or `::`), which is no address to connect to.
fn loopback_if_unspecified(addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => {
            SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), addr.port())
        }
        IpAddr::V6(ip) if ip.is_unspecified() => {
            SocketAddr::new(IpAddr::V6(Ipv6Addr::LOCALHOST), addr.port())
        }
        _ => addr,
    }
}

/// The waker: poll `token` every [`CTRL_POLL`] (parked, as
/// `txdb::ctrl::Watchdog` polls) until the accept loop clears
/// `accepting`. Once the token trips, connect to the listener at `addr`
/// so its blocked `accept` returns and the loop sees the cancel; a failed
/// connect is retried at every poll until the loop reports that it has
/// stopped.
fn wake_on_cancel(addr: SocketAddr, token: &CancelToken, accepting: &AtomicBool) {
    let mut woken = false;
    while accepting.load(Ordering::Acquire) {
        if !woken && token.is_cancelled() {
            woken = TcpStream::connect_timeout(&addr, CTRL_POLL).is_ok();
        }
        // Parked, not asleep: the accept loop unparks for a prompt join.
        std::thread::park_timeout(CTRL_POLL);
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct WorkerStats {
    requests: u64,
    queries: u64,
    swaps: u64,
    errors: u64,
}

/// One pooled worker: pop a connection, serve its frames until EOF or
/// drain, repeat. Blocked pops use `recv_timeout` at the control-poll
/// cadence so cancellation is never missed.
fn worker_loop(
    conn_rx: &Mutex<Receiver<TcpStream>>,
    state: &ServeState,
    token: &CancelToken,
    obs: &Obs,
    metrics: ServeMetrics,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    loop {
        if token.is_cancelled() {
            break;
        }
        let popped = {
            let guard = match conn_rx.lock() {
                Ok(guard) => guard,
                Err(poison) => poison.into_inner(),
            };
            guard.recv_timeout(CTRL_POLL)
        };
        match popped {
            Ok(stream) => handle_connection(stream, state, token, obs, metrics, &mut stats),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    stats
}

/// Serve one keep-alive connection: frames in, frames out, until the
/// peer hangs up, the protocol is violated, or the token drains us at a
/// frame boundary.
fn handle_connection(
    mut stream: TcpStream,
    state: &ServeState,
    token: &CancelToken,
    obs: &Obs,
    metrics: ServeMetrics,
    stats: &mut WorkerStats,
) {
    let _ = stream.set_read_timeout(Some(IO_POLL));
    let _ = stream.set_write_timeout(Some(IO_POLL));
    loop {
        let mut len_buf = [0u8; 4];
        match read_full(&mut stream, &mut len_buf, token) {
            Ok(ReadOutcome::Full) => {}
            // Clean close: EOF or drain at a frame boundary.
            Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::Truncated) | Err(_) => {
                stats.errors += 1;
                obs.count(metrics.errors, 1);
                return;
            }
        }
        let len = u32::from_le_bytes(len_buf);
        if len == 0 || len > MAX_REQUEST {
            stats.errors += 1;
            obs.count(metrics.errors, 1);
            return;
        }
        let mut frame = vec![0u8; len as usize];
        match read_full(&mut stream, &mut frame, token) {
            Ok(ReadOutcome::Full) => {}
            _ => {
                stats.errors += 1;
                obs.count(metrics.errors, 1);
                return;
            }
        }

        let started = Instant::now();
        let (ok, body) = dispatch(&frame, state, obs, metrics, stats);
        stats.requests += 1;
        obs.count(metrics.requests, 1);
        metrics.observe_latency(obs, started.elapsed());
        if !ok {
            stats.errors += 1;
            obs.count(metrics.errors, 1);
        }

        let mut response = Vec::with_capacity(5 + body.len());
        response.extend_from_slice(&(1 + body.len() as u32).to_le_bytes());
        response.push(if ok { b'+' } else { b'-' });
        response.extend_from_slice(body.as_bytes());
        if write_full(&mut stream, &response, token).is_err() {
            stats.errors += 1;
            obs.count(metrics.errors, 1);
            return;
        }
        if token.is_cancelled() {
            return;
        }
    }
}

/// Answer one decoded request frame.
fn dispatch(
    frame: &[u8],
    state: &ServeState,
    obs: &Obs,
    metrics: ServeMetrics,
    stats: &mut WorkerStats,
) -> (bool, String) {
    match frame[0] {
        TAG_QUERY => match std::str::from_utf8(&frame[1..]) {
            Ok(line) => {
                stats.queries += 1;
                obs.count(metrics.queries, 1);
                (true, state.answer(line))
            }
            Err(_) => (false, "query is not UTF-8\n".to_owned()),
        },
        TAG_SWAP => match std::str::from_utf8(&frame[1..]) {
            Ok(path) => match state.install_from_path(path.trim()) {
                Ok((old, new)) => {
                    stats.swaps += 1;
                    obs.count(metrics.swaps, 1);
                    if let (Some(id), Some(m)) = (metrics.snapshot_version, obs.metrics()) {
                        m.set(id, new);
                    }
                    (true, format!("swapped snapshot version {old} -> {new}\n"))
                }
                Err(e) => (false, format!("swap refused: {e}\n")),
            },
            Err(_) => (false, "swap path is not UTF-8\n".to_owned()),
        },
        TAG_PING => (
            true,
            format!(
                "pong snapshot {}\n",
                state.snapshot().meta().snapshot_version
            ),
        ),
        other => (false, format!("unknown request tag {:#04x}\n", other)),
    }
}

enum ReadOutcome {
    /// The buffer was filled.
    Full,
    /// Clean end: EOF (or drain) before the first byte.
    Closed,
    /// EOF mid-buffer — the peer violated the framing.
    Truncated,
}

/// Fill `buf` from `stream`, polling the token on every socket timeout.
/// Before the first byte, cancellation closes cleanly; mid-buffer it
/// grants [`DRAIN_GRACE_POLLS`] more rounds so an in-flight frame can
/// finish, then gives up — drain never hinges on a stalled client.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    token: &CancelToken,
) -> io::Result<ReadOutcome> {
    let mut off = 0;
    let mut polls_after_cancel = 0u32;
    while off < buf.len() {
        match stream.read(&mut buf[off..]) {
            Ok(0) => {
                return Ok(if off == 0 {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Truncated
                })
            }
            Ok(n) => off += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if token.is_cancelled() {
                    if off == 0 {
                        return Ok(ReadOutcome::Closed);
                    }
                    polls_after_cancel += 1;
                    if polls_after_cancel > DRAIN_GRACE_POLLS {
                        return token.check().map(|()| ReadOutcome::Closed);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

/// Write all of `buf`, polling the token on timeouts with the same
/// post-cancel grace as [`read_full`].
fn write_full(stream: &mut TcpStream, buf: &[u8], token: &CancelToken) -> io::Result<()> {
    let mut off = 0;
    let mut polls_after_cancel = 0u32;
    while off < buf.len() {
        match stream.write(&buf[off..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if token.is_cancelled() {
                    polls_after_cancel += 1;
                    if polls_after_cancel > DRAIN_GRACE_POLLS {
                        return token.check();
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Client-side round trip: send one `tag` frame with `body`, read the
/// response frame. Returns `(ok, body)` where `ok` mirrors the `+`/`-`
/// status byte. Blocking (no timeouts); callers own deadline policy via
/// socket options.
pub fn request(stream: &mut TcpStream, tag: u8, body: &[u8]) -> io::Result<(bool, String)> {
    let mut frame = Vec::with_capacity(5 + body.len());
    frame.extend_from_slice(&(1 + body.len() as u32).to_le_bytes());
    frame.push(tag);
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;

    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > MAX_RESPONSE {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response frame claims {len} bytes"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    let ok = payload[0] == b'+';
    let body = String::from_utf8_lossy(&payload[1..]).into_owned();
    Ok((ok, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Send one request to a stub server that reads it and writes
    /// `response` raw; return what [`request`] made of the reply.
    fn request_against_stub(tag: u8, response: &[u8]) -> io::Result<(bool, String)> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let (mut stream, _) = listener.accept().expect("stub accept");
                let mut len_buf = [0u8; 4];
                stream.read_exact(&mut len_buf).expect("stub read len");
                let mut frame = vec![0u8; u32::from_le_bytes(len_buf) as usize];
                stream.read_exact(&mut frame).expect("stub read frame");
                // The client may refuse the frame and hang up mid-write.
                let _ = stream.write_all(response);
            });
            let mut stream = TcpStream::connect(addr).expect("connect");
            request(&mut stream, tag, b"Ruffles")
        })
    }

    #[test]
    fn request_reads_responses_larger_than_the_request_cap() {
        let body: Vec<u8> = b"rule line\n"
            .iter()
            .copied()
            .cycle()
            .take(2 << 20)
            .collect();
        assert!(body.len() > MAX_REQUEST as usize);
        let mut response = (1 + body.len() as u32).to_le_bytes().to_vec();
        response.push(b'+');
        response.extend_from_slice(&body);

        let (ok, got) = request_against_stub(TAG_QUERY, &response).expect("request");
        assert!(ok);
        assert_eq!(got.len(), body.len());
        assert!(got.as_bytes() == body.as_slice());
    }

    #[test]
    fn request_refuses_a_response_over_the_response_cap() {
        let err = request_against_stub(TAG_PING, &(MAX_RESPONSE + 1).to_le_bytes())
            .expect_err("oversize response");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wake_address_of_an_unspecified_bind_is_loopback() {
        let v4: SocketAddr = "0.0.0.0:4000".parse().expect("v4");
        let v6: SocketAddr = "[::]:4000".parse().expect("v6");
        let bound: SocketAddr = "127.0.0.1:4000".parse().expect("bound");
        let lo4: SocketAddr = "127.0.0.1:4000".parse().expect("lo4");
        let lo6: SocketAddr = "[::1]:4000".parse().expect("lo6");
        assert_eq!(loopback_if_unspecified(v4), lo4);
        assert_eq!(loopback_if_unspecified(v6), lo6);
        assert_eq!(loopback_if_unspecified(bound), bound);
    }
}
