//! Checkpoint/resume for the improved mining driver.
//!
//! A mining run over a large disk-resident database makes one pass per
//! itemset level plus one negative counting pass; killing the process at
//! pass `k` forfeits `k` full scans. This module persists the run's state
//! after every *completed* unit of work so a restart pays only for the
//! interrupted pass:
//!
//! * after each positive level — the [`GenLevelMiner`] stepping state
//!   ([`MinerState`]) as `pass-NNNN.nack`,
//! * after negative candidate generation — the finished positive state
//!   plus the full candidate set with expected supports, as
//!   `negative.nack`.
//!
//! Files are single-fsync'd, CRC-32-checksummed and carry a fingerprint of
//! the run parameters (config knobs + taxonomy + database size); a
//! checkpoint from a different run, or one damaged on disk, is skipped —
//! never trusted — and mining falls back to the next older checkpoint or a
//! fresh start. Collections inside a checkpoint are sorted, so a resumed
//! run is *equivalent* to an uninterrupted one: it finds the same large
//! itemsets with the same supports and the same negatives, and sorted
//! outputs (e.g. the CLI's rule CSV) are byte-identical.
//!
//! [`GenLevelMiner`]: negassoc_apriori::levelwise::GenLevelMiner

use crate::candidates::{CandidateStats, Derivation, DerivationCase, NegativeCandidate};
use crate::config::{Driver, GenAlgorithm, MinerConfig};
use crate::error::Error;
use negassoc_apriori::levelwise::MinerState;
use negassoc_apriori::{Itemset, MinSupport};
use negassoc_taxonomy::{ItemId, Taxonomy};
use negassoc_txdb::crc32::crc32;
use negassoc_txdb::obs::{metric, Event, Obs};
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Checkpoint file magic: **N**egative **A**ssociation **C**hec**K**point.
const MAGIC: [u8; 4] = *b"NACK";
/// Current checkpoint format version. Version 2 added
/// `CandidateStats::pruned` to the negative checkpoint; a file of any other
/// version is skipped like a damaged one.
const VERSION: u8 = 2;
/// Phase tag: positive mining in progress.
const TAG_POSITIVE: u8 = 1;
/// Phase tag: positive mining + candidate generation complete.
const TAG_NEGATIVE: u8 = 2;
/// Cap on length-driven pre-reservations while decoding (a corrupted
/// length must not abort the allocator; see the txdb loaders).
const PREALLOC_CAP: usize = 1 << 20;

/// State snapshot after a completed positive level.
#[derive(Clone, Debug, PartialEq)]
pub struct PositiveCheckpoint {
    /// The level miner's stepping state.
    pub state: MinerState,
    /// Database passes made so far.
    pub passes: u64,
    /// Positive levels with at least one large itemset so far.
    pub levels: u64,
}

/// State snapshot after candidate generation: everything but the final
/// counting pass(es).
#[derive(Clone, Debug, PartialEq)]
pub struct NegativeCheckpoint {
    /// The *finished* positive state.
    pub positive: PositiveCheckpoint,
    /// All negative candidates with expected supports, sorted by itemset.
    pub candidates: Vec<NegativeCandidate>,
    /// Candidate-generation counters (for the final report).
    pub stats: CandidateStats,
}

/// What a checkpoint directory offers a restarting run.
#[derive(Debug, PartialEq)]
pub enum Resume {
    /// No usable checkpoint — start fresh.
    Fresh,
    /// Positive mining can continue from this state.
    Positive(PositiveCheckpoint),
    /// Only the negative counting pass remains.
    Negative(NegativeCheckpoint),
}

/// Writes and reads checkpoints in one directory, bound to one run's
/// fingerprint.
#[derive(Clone, Debug)]
pub struct CheckpointManager {
    dir: PathBuf,
    fingerprint: u64,
    obs: Obs,
}

impl CheckpointManager {
    /// A manager for `dir` (created if missing), fingerprinted for a run
    /// of `config` over a database of `num_transactions` transactions
    /// under `tax`. Checkpoints written by any *other* combination are
    /// ignored on load.
    pub fn new<P: Into<PathBuf>>(
        dir: P,
        config: &MinerConfig,
        tax: &Taxonomy,
        num_transactions: Option<u64>,
    ) -> Result<Self, Error> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            fingerprint: fingerprint(config, tax, num_transactions),
            dir,
            obs: Obs::disabled(),
        })
    }

    /// Attach an observer: checkpoint writes and loads are reported as
    /// [`Event::CheckpointWrite`] / [`Event::CheckpointLoad`].
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Mix the source's content digest (e.g. a shard manifest's
    /// order-invariant CRC digest) into the fingerprint. A resume then
    /// survives cosmetic source changes (same shards, different manifest
    /// order) but rejects content drift. `None` leaves the fingerprint
    /// untouched — non-sharded sources keep their existing checkpoints.
    pub fn with_source_digest(mut self, digest: Option<u64>) -> Self {
        if let Some(d) = digest {
            self.fingerprint ^= d.rotate_left(17).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        self
    }

    /// The directory checkpoints live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Persist the state after a completed positive level. The write goes
    /// to a temp file first so a crash mid-write never leaves a truncated
    /// file under a checkpoint name.
    pub fn save_positive(&self, ckpt: &PositiveCheckpoint) -> Result<(), Error> {
        let mut body = vec![TAG_POSITIVE];
        encode_positive(ckpt, &mut body);
        self.write_file(&format!("pass-{:04}.nack", ckpt.state.next_k), &body)
    }

    /// Persist the state after candidate generation.
    pub fn save_negative(&self, ckpt: &NegativeCheckpoint) -> Result<(), Error> {
        let mut body = vec![TAG_NEGATIVE];
        encode_positive(&ckpt.positive, &mut body);
        w_u64(&mut body, ckpt.candidates.len() as u64);
        let mut sorted: Vec<&NegativeCandidate> = ckpt.candidates.iter().collect();
        sorted.sort_unstable_by(|a, b| a.itemset.cmp(&b.itemset));
        for c in sorted {
            w_itemset(&mut body, &c.itemset);
            w_u64(&mut body, c.expected.to_bits());
            w_itemset(&mut body, &c.derivation.seed);
            w_u64(&mut body, c.derivation.seed_support);
            body.push(match c.derivation.case {
                DerivationCase::AllChildren => 0,
                DerivationCase::SomeChildren => 1,
                DerivationCase::Siblings => 2,
            });
        }
        for n in [
            ckpt.stats.seeds,
            ckpt.stats.generated,
            ckpt.stats.pruned,
            ckpt.stats.rejected_related,
            ckpt.stats.rejected_small_item,
            ckpt.stats.rejected_low_expected,
            ckpt.stats.rejected_large,
            ckpt.stats.merged,
            ckpt.stats.unique,
        ] {
            w_u64(&mut body, n);
        }
        self.write_file("negative.nack", &body)
    }

    /// The most advanced checkpoint this run can trust. Damaged or
    /// foreign (fingerprint-mismatched) files are skipped silently —
    /// resuming from an older checkpoint is always sound, just slower.
    pub fn load_latest(&self) -> Resume {
        if let Some(ckpt) = self.read_file("negative.nack").and_then(|b| {
            let mut r = b.as_slice();
            (r_u8(&mut r)? == TAG_NEGATIVE).then_some(())?;
            decode_negative(&mut r)
        }) {
            self.record_load("negative.nack", "negative");
            return Resume::Negative(ckpt);
        }
        let mut best: Option<(String, PositiveCheckpoint)> = None;
        for name in self.pass_files() {
            let Some(ckpt) = self.read_file(&name).and_then(|b| {
                let mut r = b.as_slice();
                (r_u8(&mut r)? == TAG_POSITIVE).then_some(())?;
                decode_positive(&mut r)
            }) else {
                continue;
            };
            if best
                .as_ref()
                .map_or(true, |(_, b)| ckpt.state.next_k > b.state.next_k)
            {
                best = Some((name, ckpt));
            }
        }
        match best {
            Some((name, c)) => {
                self.record_load(&name, "positive");
                Resume::Positive(c)
            }
            None => Resume::Fresh,
        }
    }

    /// Report a trusted checkpoint this run resumes from.
    fn record_load(&self, name: &str, phase: &str) {
        self.obs.emit(|| Event::CheckpointLoad {
            file: name.to_string(),
            resumed: phase.to_string(),
        });
        self.obs.bump(metric::CHECKPOINTS_LOADED, 1);
    }

    /// Delete this run's checkpoint files (call after a successful run so
    /// a later run with the same parameters starts fresh).
    pub fn clear(&self) -> Result<(), Error> {
        for name in self.pass_files() {
            fs::remove_file(self.dir.join(name))?;
        }
        let neg = self.dir.join("negative.nack");
        if neg.exists() {
            fs::remove_file(neg)?;
        }
        Ok(())
    }

    fn pass_files(&self) -> Vec<String> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("pass-") && n.ends_with(".nack"))
            .collect();
        names.sort_unstable();
        names
    }

    fn write_file(&self, name: &str, body: &[u8]) -> Result<(), Error> {
        let mut out = Vec::with_capacity(body.len() + 25);
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        w_u64(&mut out, self.fingerprint);
        w_u64(&mut out, body.len() as u64);
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out.extend_from_slice(body);
        let tmp = self.dir.join(format!("{name}.tmp"));
        let path = self.dir.join(name);
        let mut f = File::create(&tmp)?;
        f.write_all(&out)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, &path)?;
        let bytes = out.len() as u64;
        self.obs.emit(|| Event::CheckpointWrite {
            file: name.to_string(),
            bytes,
        });
        self.obs.bump(metric::CHECKPOINTS_WRITTEN, 1);
        Ok(())
    }

    /// Read and validate one checkpoint file; `None` on any damage or
    /// mismatch (the caller falls back).
    fn read_file(&self, name: &str) -> Option<Vec<u8>> {
        let mut raw = Vec::new();
        File::open(self.dir.join(name))
            .ok()?
            .read_to_end(&mut raw)
            .ok()?;
        let mut r = raw.as_slice();
        let mut head = [0u8; 5];
        r.read_exact(&mut head).ok()?;
        (head[..4] == MAGIC && head[4] == VERSION).then_some(())?;
        (r_u64(&mut r)? == self.fingerprint).then_some(())?;
        let len = r_u64(&mut r)? as usize;
        let stored_crc = r_u32(&mut r)?;
        (r.len() == len && crc32(r) == stored_crc).then_some(())?;
        Some(r.to_vec())
    }
}

/// A stable fingerprint of everything that shapes a run's state: the
/// config knobs, the taxonomy's shape, and the database size. Two runs
/// with equal fingerprints produce interchangeable checkpoints.
///
/// [`MinerConfig::parallelism`] and [`MinerConfig::backend`] are
/// deliberately *not* hashed: worker counts and counting strategy change
/// wall time, never counts, so a checkpoint written by a sequential
/// hash-tree run must resume under `--threads N --backend bitmap` (and
/// vice versa).
fn fingerprint(config: &MinerConfig, tax: &Taxonomy, num_transactions: Option<u64>) -> u64 {
    let mut buf = Vec::new();
    match config.min_support {
        MinSupport::Count(c) => {
            buf.push(0);
            w_u64(&mut buf, c);
        }
        MinSupport::Fraction(f) => {
            buf.push(1);
            w_u64(&mut buf, f.to_bits());
        }
    }
    w_u64(&mut buf, config.min_ri.to_bits());
    buf.push(match config.algorithm {
        GenAlgorithm::Basic => 0,
        GenAlgorithm::Cumulate => 1,
        GenAlgorithm::EstMerge(_) => 2,
    });
    buf.push(match config.driver {
        Driver::Naive => 0,
        Driver::Improved => 1,
    });
    w_u64(&mut buf, config.max_candidates_per_pass.unwrap_or(0) as u64);
    buf.push(u8::from(config.compress_taxonomy));
    w_u64(&mut buf, config.max_negative_size.unwrap_or(0) as u64);
    w_u64(&mut buf, config.memory_budget.unwrap_or(0) as u64);
    w_u64(&mut buf, tax.len() as u64);
    w_u64(&mut buf, num_transactions.unwrap_or(u64::MAX));
    // Two independent CRC streams make a 64-bit tag; plenty against
    // accidental reuse (this guards mistakes, not adversaries).
    let lo = crc32(&buf);
    buf.push(0x5A);
    let hi = crc32(&buf);
    (u64::from(hi) << 32) | u64::from(lo)
}

fn encode_positive(ckpt: &PositiveCheckpoint, out: &mut Vec<u8>) {
    w_u64(out, ckpt.passes);
    w_u64(out, ckpt.levels);
    w_u64(out, ckpt.state.num_transactions);
    w_u64(out, ckpt.state.minsup);
    w_u64(out, ckpt.state.next_k as u64);
    out.push(u8::from(ckpt.state.done));
    w_u64(out, ckpt.state.large.len() as u64);
    for (set, support) in &ckpt.state.large {
        w_itemset(out, set);
        w_u64(out, *support);
    }
    w_u64(out, ckpt.state.frontier.len() as u64);
    for set in &ckpt.state.frontier {
        w_itemset(out, set);
    }
}

fn decode_positive(r: &mut &[u8]) -> Option<PositiveCheckpoint> {
    let passes = r_u64(r)?;
    let levels = r_u64(r)?;
    let num_transactions = r_u64(r)?;
    let minsup = r_u64(r)?;
    let next_k = usize::try_from(r_u64(r)?).ok()?;
    let done = r_u8(r)? != 0;
    let n_large = usize::try_from(r_u64(r)?).ok()?;
    let mut large = Vec::with_capacity(n_large.min(PREALLOC_CAP));
    for _ in 0..n_large {
        let set = r_itemset(r)?;
        let support = r_u64(r)?;
        large.push((set, support));
    }
    let n_frontier = usize::try_from(r_u64(r)?).ok()?;
    let mut frontier = Vec::with_capacity(n_frontier.min(PREALLOC_CAP));
    for _ in 0..n_frontier {
        frontier.push(r_itemset(r)?);
    }
    Some(PositiveCheckpoint {
        state: MinerState {
            num_transactions,
            minsup,
            large,
            frontier,
            next_k,
            done,
        },
        passes,
        levels,
    })
}

fn decode_negative(r: &mut &[u8]) -> Option<NegativeCheckpoint> {
    let positive = decode_positive(r)?;
    let n = usize::try_from(r_u64(r)?).ok()?;
    let mut candidates = Vec::with_capacity(n.min(PREALLOC_CAP));
    for _ in 0..n {
        let itemset = r_itemset(r)?;
        let expected = f64::from_bits(r_u64(r)?);
        let seed = r_itemset(r)?;
        let seed_support = r_u64(r)?;
        let case = match r_u8(r)? {
            0 => DerivationCase::AllChildren,
            1 => DerivationCase::SomeChildren,
            2 => DerivationCase::Siblings,
            _ => return None,
        };
        candidates.push(NegativeCandidate {
            itemset,
            expected,
            derivation: Derivation {
                seed,
                seed_support,
                case,
            },
        });
    }
    let mut stats = CandidateStats::default();
    for field in [
        &mut stats.seeds,
        &mut stats.generated,
        &mut stats.pruned,
        &mut stats.rejected_related,
        &mut stats.rejected_small_item,
        &mut stats.rejected_low_expected,
        &mut stats.rejected_large,
        &mut stats.merged,
        &mut stats.unique,
    ] {
        *field = r_u64(r)?;
    }
    r.is_empty().then_some(NegativeCheckpoint {
        positive,
        candidates,
        stats,
    })
}

fn w_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_itemset(out: &mut Vec<u8>, set: &Itemset) {
    w_u64(out, set.len() as u64);
    for item in set.items() {
        out.extend_from_slice(&item.0.to_le_bytes());
    }
}

fn r_u8(r: &mut &[u8]) -> Option<u8> {
    let (&b, rest) = r.split_first()?;
    *r = rest;
    Some(b)
}

fn r_u32(r: &mut &[u8]) -> Option<u32> {
    if r.len() < 4 {
        return None;
    }
    let (head, rest) = r.split_at(4);
    *r = rest;
    Some(u32::from_le_bytes([head[0], head[1], head[2], head[3]]))
}

fn r_u64(r: &mut &[u8]) -> Option<u64> {
    if r.len() < 8 {
        return None;
    }
    let (head, rest) = r.split_at(8);
    *r = rest;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(head);
    Some(u64::from_le_bytes(raw))
}

fn r_itemset(r: &mut &[u8]) -> Option<Itemset> {
    let n = usize::try_from(r_u64(r)?).ok()?;
    let mut items = Vec::with_capacity(n.min(PREALLOC_CAP));
    let mut prev: Option<ItemId> = None;
    for _ in 0..n {
        let item = ItemId(r_u32(r)?);
        // The on-disk order must already be strictly ascending; anything
        // else is corruption that slipped past the CRC.
        if prev.is_some_and(|p| p >= item) {
            return None;
        }
        items.push(item);
        prev = Some(item);
    }
    Some(Itemset::from_sorted(items))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique, self-cleaning checkpoint directory.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("negassoc-ckpt-{}-{n}-{name}", std::process::id()));
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn fingerprint_ignores_parallelism() {
        use negassoc_apriori::parallel::Parallelism;
        let t = tax();
        let base = MinerConfig::default();
        let fp = fingerprint(&base, &t, Some(100));
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Threads(1),
            Parallelism::Threads(8),
            Parallelism::Auto,
        ] {
            let cfg = MinerConfig {
                parallelism,
                ..base
            };
            assert_eq!(fingerprint(&cfg, &t, Some(100)), fp, "{parallelism:?}");
        }
        // Anything that changes the mined result still changes the tag.
        let other = MinerConfig {
            min_ri: base.min_ri + 0.125,
            ..base
        };
        assert_ne!(fingerprint(&other, &t, Some(100)), fp);
    }

    /// All counting backends produce identical counts, so a checkpoint
    /// written under one backend must resume cleanly under another.
    #[test]
    fn fingerprint_ignores_backend() {
        use negassoc_apriori::count::CountingBackend;
        let t = tax();
        let base = MinerConfig::default();
        let fp = fingerprint(&base, &t, Some(100));
        for backend in [
            CountingBackend::HashTree,
            CountingBackend::SubsetHashMap,
            CountingBackend::TidBitmap,
        ] {
            let cfg = MinerConfig { backend, ..base };
            assert_eq!(fingerprint(&cfg, &t, Some(100)), fp, "{backend:?}");
        }
    }

    #[test]
    fn source_digest_perturbs_the_fingerprint_and_none_is_identity() {
        let t = tax();
        let cfg = MinerConfig::default();
        let dir = TempDir::new("digest");
        let base = CheckpointManager::new(&dir.0, &cfg, &t, Some(100)).unwrap();
        let fp = base.fingerprint;
        let same = CheckpointManager::new(&dir.0, &cfg, &t, Some(100))
            .unwrap()
            .with_source_digest(None);
        assert_eq!(same.fingerprint, fp);
        let a = CheckpointManager::new(&dir.0, &cfg, &t, Some(100))
            .unwrap()
            .with_source_digest(Some(0xABCD));
        let b = CheckpointManager::new(&dir.0, &cfg, &t, Some(100))
            .unwrap()
            .with_source_digest(Some(0xABCE));
        assert_ne!(a.fingerprint, fp);
        assert_ne!(a.fingerprint, b.fingerprint);
        // Same digest → same fingerprint (resume across reordered shards).
        let a2 = CheckpointManager::new(&dir.0, &cfg, &t, Some(100))
            .unwrap()
            .with_source_digest(Some(0xABCD));
        assert_eq!(a.fingerprint, a2.fingerprint);
    }

    fn tax() -> Taxonomy {
        let mut tb = negassoc_taxonomy::TaxonomyBuilder::new();
        let root = tb.add_root("root");
        tb.add_child(root, "a").unwrap();
        tb.add_child(root, "b").unwrap();
        tb.build()
    }

    fn set(v: &[u32]) -> Itemset {
        Itemset::from_unsorted(v.iter().map(|&i| ItemId(i)).collect())
    }

    fn sample_positive() -> PositiveCheckpoint {
        PositiveCheckpoint {
            state: MinerState {
                num_transactions: 100,
                minsup: 5,
                large: vec![(set(&[1]), 40), (set(&[2]), 30), (set(&[1, 2]), 20)],
                frontier: vec![set(&[1, 2])],
                next_k: 3,
                done: false,
            },
            passes: 2,
            levels: 2,
        }
    }

    fn sample_negative() -> NegativeCheckpoint {
        let mut positive = sample_positive();
        positive.state.done = true;
        NegativeCheckpoint {
            positive,
            candidates: vec![NegativeCandidate {
                itemset: set(&[0, 2]),
                expected: 12.5,
                derivation: Derivation {
                    seed: set(&[1, 2]),
                    seed_support: 20,
                    case: DerivationCase::Siblings,
                },
            }],
            stats: CandidateStats {
                seeds: 3,
                generated: 7,
                pruned: 5,
                unique: 1,
                ..CandidateStats::default()
            },
        }
    }

    #[test]
    fn positive_round_trip() {
        let dir = TempDir::new("pos");
        let mgr =
            CheckpointManager::new(&dir.0, &MinerConfig::default(), &tax(), Some(100)).unwrap();
        assert_eq!(mgr.load_latest(), Resume::Fresh);
        let ckpt = sample_positive();
        mgr.save_positive(&ckpt).unwrap();
        assert_eq!(mgr.load_latest(), Resume::Positive(ckpt));
        assert!(mgr.dir().join("pass-0003.nack").exists());
    }

    #[test]
    fn negative_round_trip_and_precedence() {
        let dir = TempDir::new("neg");
        let mgr =
            CheckpointManager::new(&dir.0, &MinerConfig::default(), &tax(), Some(100)).unwrap();
        mgr.save_positive(&sample_positive()).unwrap();
        let neg = sample_negative();
        mgr.save_negative(&neg).unwrap();
        // The negative checkpoint supersedes any positive one.
        assert_eq!(mgr.load_latest(), Resume::Negative(neg));
        mgr.clear().unwrap();
        assert_eq!(mgr.load_latest(), Resume::Fresh);
    }

    #[test]
    fn later_passes_win() {
        let dir = TempDir::new("latest");
        let mgr =
            CheckpointManager::new(&dir.0, &MinerConfig::default(), &tax(), Some(100)).unwrap();
        let mut early = sample_positive();
        early.state.next_k = 2;
        early.passes = 1;
        mgr.save_positive(&early).unwrap();
        let late = sample_positive();
        mgr.save_positive(&late).unwrap();
        assert_eq!(mgr.load_latest(), Resume::Positive(late));
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_older_one() {
        let dir = TempDir::new("corrupt");
        let mgr =
            CheckpointManager::new(&dir.0, &MinerConfig::default(), &tax(), Some(100)).unwrap();
        let mut early = sample_positive();
        early.state.next_k = 2;
        mgr.save_positive(&early).unwrap();
        mgr.save_positive(&sample_positive()).unwrap();
        // Flip one byte in the newer file's body.
        let path = dir.0.join("pass-0003.nack");
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();
        assert_eq!(mgr.load_latest(), Resume::Positive(early));
    }

    #[test]
    fn fingerprint_mismatch_is_ignored() {
        let dir = TempDir::new("fp");
        let t = tax();
        let mgr = CheckpointManager::new(&dir.0, &MinerConfig::default(), &t, Some(100)).unwrap();
        mgr.save_positive(&sample_positive()).unwrap();
        // A run over a different database size must not trust it.
        let other = CheckpointManager::new(&dir.0, &MinerConfig::default(), &t, Some(999)).unwrap();
        assert_eq!(other.load_latest(), Resume::Fresh);
        // Different config, same db: also ignored.
        let cfg = MinerConfig {
            min_ri: 0.9,
            ..MinerConfig::default()
        };
        let other = CheckpointManager::new(&dir.0, &cfg, &t, Some(100)).unwrap();
        assert_eq!(other.load_latest(), Resume::Fresh);
    }

    #[test]
    fn truncated_and_garbage_files_are_skipped() {
        let dir = TempDir::new("garbage");
        let mgr =
            CheckpointManager::new(&dir.0, &MinerConfig::default(), &tax(), Some(100)).unwrap();
        std::fs::write(dir.0.join("pass-0002.nack"), b"NACK").unwrap();
        std::fs::write(dir.0.join("pass-0004.nack"), vec![0u8; 64]).unwrap();
        std::fs::write(dir.0.join("negative.nack"), b"not a checkpoint").unwrap();
        assert_eq!(mgr.load_latest(), Resume::Fresh);
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let dir = TempDir::new("atomic");
        let mgr =
            CheckpointManager::new(&dir.0, &MinerConfig::default(), &tax(), Some(100)).unwrap();
        mgr.save_positive(&sample_positive()).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir.0)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
    }
}
