//! The serving side: snapshot set-up, the basket mix, the oracle
//! answers, an in-process server on loopback, and the two load
//! generators (closed-loop keep-alive, open-loop one-shot with swaps).

use crate::inputs::{generate_files, InputFiles, Workload};
use crate::mine::{self, MIN_CONF, MIN_RI};
use crate::stats::{median, peak_rss_mb, quantile, reset_peak_rss, Rng};
use crate::{Metric, RunResult};
use negassoc_datagen::Dataset;
use negassoc_serve::server::{TAG_QUERY, TAG_SWAP};
use negassoc_serve::{
    answer_basket_line, export_snapshot, serve, ServeState, ServeStats, Snapshot,
};
use negassoc_taxonomy::textfmt::read_taxonomy;
use negassoc_taxonomy::{ItemId, Taxonomy};
use negassoc_txdb::ctrl::{CancelReason, CancelToken};
use negassoc_txdb::obs::{Metrics, Obs};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Server worker threads.
const WORKERS: usize = 2;
/// Baskets in the mix; clients cycle through them.
const BASKETS: usize = 1_000;
/// Untimed queries each keep-alive client sends before the clock starts.
const WARMUP_QUERIES: usize = 200;
/// Open-loop schedule of the churn workload: requests per second, all
/// clients together. Kept well under what the clients can carry while
/// each one-shot request waits out the server's 20 ms accept poll, and
/// its period (21.3 ms) is not a multiple of that poll, so arrivals meet
/// the poll at every phase.
const CHURN_RATE: f64 = 47.0;
/// Every this many slots of the churn schedule, one is a hot swap (about
/// two a second, so that every run holds enough swaps for the memory
/// high-water mark of overlapping snapshot loads to be reached). The
/// same client's next slot is left free, since a swap loads a whole
/// snapshot and takes longer than one slot.
const SWAP_EVERY: usize = 23;
/// Length of one keep-alive session. A run is split into sessions, each
/// on a fresh server with fresh client threads and connections, and
/// reports the median session: where the scheduler places the busy
/// threads varies from server to server and moves a session's
/// throughput by up to 40%.
const SESSION_S: f64 = 1.0;
/// Bound on the open loop's 99th-percentile send lateness; a run whose
/// generator fell further behind did not apply the schedule it reports.
const LATE_P99_BOUND_US: f64 = 25_000.0;

/// Client threads (and so connections at a time): one per CPU.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// The snapshot files a serve workload serves, with what made them.
pub struct Snapshots {
    pub v1: PathBuf,
    pub v2: PathBuf,
}

impl Snapshots {
    pub fn in_dir(dir: &Path) -> Self {
        Snapshots {
            v1: dir.join("v1.nars"),
            v2: dir.join("v2.nars"),
        }
    }
}

/// Set-up of a serve workload: write the input files, mine them, export
/// the rules as snapshot versions 1 and 2 (same rules, two versions).
pub fn setup(
    w: Workload,
    seed: u64,
    files: &InputFiles,
    snaps: &Snapshots,
) -> Result<Dataset, String> {
    let ds = generate_files(w, seed, files).map_err(|e| format!("generate: {e}"))?;
    let mined = mine::mine_files(files, mine::config(), None)?;
    let export = mined.outcome.rule_export(&mined.tax, MIN_CONF, MIN_RI);
    for (path, version) in [(&snaps.v1, 1), (&snaps.v2, 2)] {
        export_snapshot(path, &export, &mined.tax, version)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(ds)
}

/// Read the serving taxonomy back from its file.
pub fn load_taxonomy(files: &InputFiles) -> Result<Taxonomy, String> {
    let file = std::fs::File::open(&files.taxonomy)
        .map_err(|e| format!("{}: {e}", files.taxonomy.display()))?;
    read_taxonomy(BufReader::new(file)).map_err(|e| format!("{}: {e}", files.taxonomy.display()))
}

/// Load one snapshot file.
pub fn load_snapshot(path: &Path, tax: &Taxonomy) -> Result<Snapshot, String> {
    Snapshot::load(path, tax).map_err(|e| format!("{}: {e}", path.display()))
}

/// Seed of the basket mix itself. The mix is fixed, so every run serves
/// the same baskets; `--seed` only sets the order they are sent in.
const MIX_SEED: u64 = 0x00ba_5ce7;

/// The basket mix in `seed`'s order: three quarters random leaf triples;
/// of the rest, half one rule's antecedent and half one random category
/// with two random leaves.
pub fn baskets(seed: u64, tax: &Taxonomy, snap: &Snapshot) -> Vec<String> {
    let leaves: Vec<ItemId> = tax.leaves().collect();
    let categories: Vec<ItemId> = tax.categories().collect();
    let antecedents: Vec<&[ItemId]> = snap
        .positive()
        .iter()
        .map(|r| r.antecedent.items())
        .chain(snap.negative().iter().map(|r| r.antecedent.items()))
        .collect();
    let mut rng = Rng::new(MIX_SEED);
    let names = |items: &[ItemId]| {
        items
            .iter()
            .map(|&i| tax.name(i))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut mix: Vec<String> = (0..BASKETS)
        .map(|i| {
            let mut leaf = || leaves[rng.below(leaves.len())];
            let items: Vec<ItemId> = match i % 8 {
                0 if !antecedents.is_empty() => antecedents[rng.below(antecedents.len())].to_vec(),
                4 if !categories.is_empty() => {
                    let (a, b) = (leaf(), leaf());
                    vec![categories[rng.below(categories.len())], a, b]
                }
                _ => vec![leaf(), leaf(), leaf()],
            };
            names(&items)
        })
        .collect();
    let mut order = Rng::new(seed);
    for i in (1..mix.len()).rev() {
        mix.swap(i, order.below(i + 1));
    }
    mix
}

/// The oracle's answer to every basket under each snapshot version:
/// `expected[v - 1][i]` is basket `i` answered by the full-scan matcher
/// over version `v`.
pub fn oracle_answers(
    tax: &Taxonomy,
    versions: &[&Snapshot],
    baskets: &[String],
) -> Vec<Vec<String>> {
    versions
        .iter()
        .map(|snap| {
            baskets
                .iter()
                .map(|b| answer_basket_line(tax, snap, b, true))
                .collect()
        })
        .collect()
}

/// The expected answer for a served `body`, found by the snapshot
/// version its first line names.
fn expected_for<'a>(expected: &'a [Vec<String>], body: &str, basket: usize) -> Option<&'a str> {
    let version: usize = body
        .strip_prefix("snapshot ")?
        .split(' ')
        .next()?
        .parse()
        .ok()?;
    Some(expected.get(version.checked_sub(1)?)?[basket].as_str())
}

/// Cancels the server when dropped, so a panicking client cannot leave
/// the scoped server thread running forever.
struct StopOnDrop<'a>(&'a CancelToken);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.cancel(CancelReason::UserInterrupt);
    }
}

/// Serve `state` on a loopback port with [`WORKERS`] workers, counting
/// into `metrics`, while `drive` runs against its address; then drain
/// the server and return what `drive` returned and the server's stats.
pub fn with_server<R>(
    state: &ServeState,
    metrics: &Arc<Metrics>,
    drive: impl FnOnce(SocketAddr) -> R,
) -> Result<(R, ServeStats), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let token = CancelToken::new();
    let obs = Obs::disabled().with_metrics(Arc::clone(metrics));
    let (driven, stats) = std::thread::scope(|s| {
        let server = s.spawn(|| serve(listener, state, WORKERS, &token, &obs));
        let driven = {
            let _stop = StopOnDrop(&token);
            drive(addr)
        };
        let stats = server
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (driven, stats)
    });
    let stats = stats.map_err(|e| format!("serve: {e}"))?;
    Ok((driven, stats))
}

/// What a load generator saw.
#[derive(Default)]
pub struct Load {
    /// Query latencies, µs: round trip (keep-alive) or from when the
    /// request was due (churn).
    pub latency_us: Vec<f64>,
    /// Throughput, latency p50 and latency p99 (µs) of each keep-alive
    /// session.
    pub sessions: Vec<[f64; 3]>,
    /// Swap round trips, ms.
    pub swap_ms: Vec<f64>,
    /// How late each request was sent, µs (open loop only).
    pub late_us: Vec<f64>,
    /// Operations sent and operations answered.
    pub sent: u64,
    pub completed: u64,
    /// Operations that failed, were refused, or were answered wrongly.
    pub failed: u64,
    pub errors: Vec<String>,
    /// Seconds from the start of the timed phase to the last answer.
    pub wall_s: f64,
}

impl Load {
    fn absorb(&mut self, other: Load) {
        self.latency_us.extend(other.latency_us);
        self.sessions.extend(other.sessions);
        self.swap_ms.extend(other.swap_ms);
        self.late_us.extend(other.late_us);
        self.sent += other.sent;
        self.completed += other.completed;
        self.failed += other.failed;
        self.wall_s = self.wall_s.max(other.wall_s);
        if self.errors.len() < 5 {
            self.errors.extend(other.errors.into_iter().take(5));
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }

    /// Throughput, latency p50 and latency p99 (µs): each the median
    /// over the sessions.
    pub fn session_medians(&self) -> [f64; 3] {
        let col = |i: usize| median(&self.sessions.iter().map(|s| s[i]).collect::<Vec<_>>());
        [col(0), col(1), col(2)]
    }

    /// Fold into `result`: operations attempted and failed, and the
    /// failure messages.
    pub fn account(&self, result: &mut RunResult) {
        result.attempted += self.sent;
        result.failed += self.failed;
        if self.failed > 0 || self.completed != self.sent {
            result.correct = false;
        }
        result.errors.extend(self.errors.iter().cloned());
    }
}

/// Largest response frame the benchmark's client accepts.
const MAX_RESPONSE: usize = 64 << 20;

/// One request/response round trip in the server's framing.
///
/// This is `negassoc_serve::request` without its 1 MiB cap on response
/// frames: the server sends answers larger than that (a category basket
/// can match over ten thousand rules), which `request`, and so
/// `negrules query`, refuses. The benchmark reads what the server sends
/// and reports how many answers of the mix are that large as
/// `serve.oversize_answers`.
fn round_trip(stream: &mut TcpStream, tag: u8, body: &[u8]) -> std::io::Result<(bool, String)> {
    let mut frame = Vec::with_capacity(5 + body.len());
    frame.extend_from_slice(&(1 + body.len() as u32).to_le_bytes());
    frame.push(tag);
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_RESPONSE {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("response frame claims {len} bytes"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    let body = String::from_utf8(payload.split_off(1))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok((payload[0] == b'+', body))
}

/// Answers in `expected` too large for `negassoc_serve::request`'s 1 MiB
/// response cap (status byte included).
pub fn oversize_answers(expected: &[String]) -> usize {
    expected.iter().filter(|a| a.len() + 1 > 1 << 20).count()
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Closed loop: sessions of about [`SESSION_S`] (at least three)
/// splitting `seconds`, each against its own server on `state`; in each,
/// [`clients`] threads, each on one keep-alive connection, send their
/// next query as soon as the previous one is answered. Server errors are
/// counted as failed operations.
pub fn keepalive(
    state: &ServeState,
    metrics: &Arc<Metrics>,
    baskets: &[String],
    expected: &[Vec<String>],
    seconds: f64,
) -> Result<Load, String> {
    let sessions = ((seconds / SESSION_S).round() as usize).max(3);
    let mut total = Load::default();
    for _ in 0..sessions {
        let (mut session, stats) = with_server(state, metrics, |addr| {
            keepalive_session(addr, baskets, expected, seconds / sessions as f64)
        })?;
        if stats.errors > 0 {
            session.fail(format!("server counted {} errors", stats.errors));
        }
        session.sessions.push([
            session.latency_us.len() as f64 / session.wall_s,
            median(&session.latency_us),
            quantile(&session.latency_us, 0.99),
        ]);
        total.absorb(session);
    }
    Ok(total)
}

/// One keep-alive session of `seconds`, after a short warm-up.
fn keepalive_session(
    addr: SocketAddr,
    baskets: &[String],
    expected: &[Vec<String>],
    seconds: f64,
) -> Load {
    let n = clients();
    let barrier = Barrier::new(n);
    let start = std::sync::OnceLock::new();
    let loads: Vec<Load> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|k| {
                let (barrier, start) = (&barrier, &start);
                s.spawn(move || {
                    let mut load = Load::default();
                    let mut stream = match connect(addr) {
                        Ok(stream) => stream,
                        Err(e) => {
                            barrier.wait();
                            load.sent += 1;
                            load.fail(format!("connect: {e}"));
                            return load;
                        }
                    };
                    let mut next = k * baskets.len() / n;
                    for _ in 0..WARMUP_QUERIES {
                        let _ = round_trip(&mut stream, TAG_QUERY, baskets[next].as_bytes());
                        next = (next + 1) % baskets.len();
                    }
                    barrier.wait();
                    let t0: Instant = *start.get_or_init(Instant::now);
                    let deadline = t0 + Duration::from_secs_f64(seconds);
                    loop {
                        let sent = Instant::now();
                        if sent >= deadline {
                            break;
                        }
                        load.sent += 1;
                        match round_trip(&mut stream, TAG_QUERY, baskets[next].as_bytes()) {
                            Ok((ok, body)) => {
                                let done = Instant::now();
                                load.completed += 1;
                                load.latency_us.push((done - sent).as_secs_f64() * 1e6);
                                load.wall_s = (done - t0).as_secs_f64();
                                if !ok
                                    || expected.first().map(|e| e[next].as_str())
                                        != Some(body.as_str())
                                {
                                    load.fail(format!("wrong answer to basket {next}"));
                                }
                            }
                            Err(e) => {
                                load.fail(format!("query: {e}"));
                                break;
                            }
                        }
                        next = (next + 1) % baskets.len();
                    }
                    load
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let mut total = Load::default();
    for l in loads {
        total.absorb(l);
    }
    total
}

/// Open loop: one-shot connections (connect, one request, close) due at
/// [`CHURN_RATE`] per second, spread round-robin over [`clients`]
/// threads. Every [`SWAP_EVERY`] slots, one is a swap frame instead,
/// alternating to `swaps[0]` (version 2) and back to `swaps[1]`
/// (version 1).
pub fn churn(
    addr: SocketAddr,
    baskets: &[String],
    expected: &[Vec<String>],
    swaps: [&str; 2],
    seconds: f64,
) -> Load {
    let n = clients();
    let slots = (seconds * CHURN_RATE).round() as usize;
    let t0 = Instant::now() + Duration::from_millis(20);
    let loads: Vec<Load> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|k| {
                s.spawn(move || {
                    let mut load = Load::default();
                    for slot in (k..slots).step_by(n) {
                        if slot >= n && (slot - n) % SWAP_EVERY == SWAP_EVERY / 2 {
                            continue;
                        }
                        let due = t0 + Duration::from_secs_f64(slot as f64 / CHURN_RATE);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        load.late_us.push((sent - due).as_secs_f64() * 1e6);
                        load.sent += 1;
                        let swap = (slot % SWAP_EVERY == SWAP_EVERY / 2)
                            .then(|| swaps[(slot / SWAP_EVERY) % 2]);
                        let basket = slot % baskets.len();
                        let (tag, body) = match swap {
                            Some(path) => (TAG_SWAP, path.as_bytes()),
                            None => (TAG_QUERY, baskets[basket].as_bytes()),
                        };
                        let answer =
                            connect(addr).and_then(|mut stream| round_trip(&mut stream, tag, body));
                        let done = Instant::now();
                        match answer {
                            Ok((ok, reply)) => {
                                load.completed += 1;
                                load.wall_s = (done - t0).as_secs_f64();
                                if swap.is_some() {
                                    load.swap_ms.push((done - sent).as_secs_f64() * 1e3);
                                    if !ok || !reply.starts_with("swapped snapshot version") {
                                        load.fail(format!("swap refused: {}", reply.trim()));
                                    }
                                } else {
                                    load.latency_us.push((done - due).as_secs_f64() * 1e6);
                                    if !ok
                                        || expected_for(expected, &reply, basket)
                                            != Some(reply.as_str())
                                    {
                                        load.fail(format!("wrong answer to basket {basket}"));
                                    }
                                }
                            }
                            Err(e) => load.fail(format!("one-shot request: {e}")),
                        }
                    }
                    load
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let mut total = Load::default();
    for l in loads {
        total.absorb(l);
    }
    total
}

/// What both the untraced and the traced serve runs serve: the state
/// holding snapshot version 1, the basket mix in `seed`'s order, the
/// oracle answers under versions 1 and 2, and the paths a swap frame
/// names (version 2, then back to version 1).
pub struct Prepared {
    pub state: ServeState,
    pub mix: Vec<String>,
    pub expected: Vec<Vec<String>>,
    pub swap_paths: [String; 2],
}

/// Load the snapshot files written at set-up and prepare them for
/// serving.
pub fn prepare(seed: u64, files: &InputFiles, snaps: &Snapshots) -> Result<Prepared, String> {
    let tax = load_taxonomy(files)?;
    let v1 = load_snapshot(&snaps.v1, &tax)?;
    let v2 = load_snapshot(&snaps.v2, &tax)?;
    let mix = baskets(seed, &tax, &v1);
    let expected = oracle_answers(&tax, &[&v1, &v2], &mix);
    drop(v2);
    let state = ServeState::new(tax, Arc::new(v1)).map_err(|e| format!("serve state: {e}"))?;
    Ok(Prepared {
        state,
        mix,
        expected,
        swap_paths: [path_str(&snaps.v2)?, path_str(&snaps.v1)?],
    })
}

impl Prepared {
    /// Closed loop for `seconds`: see [`keepalive`].
    pub fn keepalive(&self, metrics: &Arc<Metrics>, seconds: f64) -> Result<Load, String> {
        keepalive(&self.state, metrics, &self.mix, &self.expected, seconds)
    }

    /// Open loop with swaps for `seconds` on one server: see [`churn`].
    /// The server's own error count is checked too.
    pub fn churn(
        &self,
        metrics: &Arc<Metrics>,
        seconds: f64,
    ) -> Result<(Load, ServeStats), String> {
        let (mut load, stats) = with_server(&self.state, metrics, |addr| {
            let [to_v2, to_v1] = &self.swap_paths;
            churn(addr, &self.mix, &self.expected, [to_v2, to_v1], seconds)
        })?;
        if stats.errors > 0 {
            load.fail(format!("server counted {} errors", stats.errors));
        }
        Ok((load, stats))
    }
}

/// The untraced serve workloads: serve snapshot version 1 and drive it
/// with the workload's load generator for `seconds`.
pub fn run(
    w: Workload,
    seed: u64,
    files: &InputFiles,
    snaps: &Snapshots,
    seconds: f64,
    mut result: RunResult,
) -> Result<RunResult, String> {
    let prepared = prepare(seed, files, snaps)?;
    reset_peak_rss().map_err(|e| format!("reset VmHWM: {e}"))?;
    let metrics = Arc::new(Metrics::new());
    let (qps, p50_us) = if w == Workload::ServeChurn {
        let (load, _) = prepared.churn(&metrics, seconds)?;
        load.account(&mut result);
        check_schedule(&load, &mut result);
        (
            load.latency_us.len() as f64 / load.wall_s,
            median(&load.latency_us),
        )
    } else {
        let load = prepared.keepalive(&metrics, seconds)?;
        load.account(&mut result);
        let [qps, p50, _] = load.session_medians();
        (qps, p50)
    };
    let peak = peak_rss_mb().map_err(|e| format!("read VmHWM: {e}"))?;
    result.push(Metric::ms("op_p50_ms", p50_us / 1e3));
    result.push(Metric::new("ops_per_s", qps, "1/s"));
    result.push(Metric::new("peak_rss_mb", peak, "MB"));
    Ok(result)
}

/// The open loop must have kept its schedule: every request answered,
/// and the 99th-percentile lateness under [`LATE_P99_BOUND_US`].
pub fn check_schedule(load: &Load, result: &mut RunResult) {
    let late_p99 = quantile(&load.late_us, 0.99);
    if late_p99.is_nan() || late_p99 >= LATE_P99_BOUND_US {
        result.correct = false;
        result.errors.push(format!(
            "open loop fell behind: late p99 {late_p99:.0} us over the {LATE_P99_BOUND_US:.0} us bound"
        ));
    }
    if load.completed != load.sent {
        result.correct = false;
        result.errors.push(format!(
            "open loop completed {} of {} requests",
            load.completed, load.sent
        ));
    }
}

/// An absolute path the in-process server can load.
pub fn path_str(p: &Path) -> Result<String, String> {
    let abs = std::fs::canonicalize(p).map_err(|e| format!("{}: {e}", p.display()))?;
    abs.to_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("{}: not UTF-8", abs.display()))
}
