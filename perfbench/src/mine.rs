//! The mining side: the workload's miner settings, one mine from files
//! (what `negrules negatives` does), the output fingerprint and the
//! untraced mine workloads.

use crate::inputs::InputFiles;
use crate::stats::{median, peak_rss_mb, reset_peak_rss, Fnv};
use crate::{Metric, RunResult};
use negassoc::{MinerConfig, MiningOutcome, NegativeMiner, RunControl};
use negassoc_apriori::count::CountingBackend;
use negassoc_apriori::MinSupport;
use negassoc_taxonomy::textfmt::read_taxonomy;
use negassoc_taxonomy::Taxonomy;
use negassoc_txdb::{binfmt, TransactionDb};
use std::io::BufReader;
use std::time::{Duration, Instant};

/// MinSup of every workload's mine.
pub const MIN_SUPPORT: f64 = 0.015;
/// MinRI of every workload's mine.
pub const MIN_RI: f64 = 0.5;
/// Largest negative itemset considered.
pub const MAX_NEGATIVE_SIZE: usize = 3;
/// MinConf of the positive rules a snapshot carries.
pub const MIN_CONF: f64 = 0.6;
/// Timed mines per run at the least, however long they take.
const MIN_MINES: usize = 5;

/// The workload thresholds; everything else stays at its default, so a
/// change of default (backend, driver) shows in the numbers.
pub fn config() -> MinerConfig {
    MinerConfig {
        min_support: MinSupport::Fraction(MIN_SUPPORT),
        min_ri: MIN_RI,
        max_negative_size: Some(MAX_NEGATIVE_SIZE),
        ..MinerConfig::default()
    }
}

/// The oracle: the same mine on the flat `SubsetHashMap` counting backend.
pub fn oracle_config() -> MinerConfig {
    MinerConfig {
        backend: CountingBackend::SubsetHashMap,
        ..config()
    }
}

/// One mine from files, with the wall time of each step.
pub struct Mined {
    pub db: TransactionDb,
    pub tax: Taxonomy,
    pub outcome: MiningOutcome,
    pub load: Duration,
    pub taxonomy_load: Duration,
    /// From opening the files to having the negative rules.
    pub total: Duration,
}

/// Load both files and mine them with `config`, under `ctrl` when given.
pub fn mine_files(
    files: &InputFiles,
    config: MinerConfig,
    ctrl: Option<&RunControl>,
) -> Result<Mined, String> {
    let started = Instant::now();
    let db = binfmt::load(&files.nadb).map_err(|e| format!("{}: {e}", files.nadb.display()))?;
    let loaded = Instant::now();
    let file = std::fs::File::open(&files.taxonomy)
        .map_err(|e| format!("{}: {e}", files.taxonomy.display()))?;
    let tax = read_taxonomy(BufReader::new(file))
        .map_err(|e| format!("{}: {e}", files.taxonomy.display()))?;
    let tax_loaded = Instant::now();
    let miner = NegativeMiner::new(config);
    let outcome = match ctrl {
        None => miner.mine(&db, &tax),
        Some(ctrl) => miner.mine_with_controls(&db, &tax, None, None, ctrl),
    }
    .map_err(|e| format!("mine: {e}"))?;
    let total = started.elapsed();
    Ok(Mined {
        load: loaded - started,
        taxonomy_load: tax_loaded - loaded,
        total,
        db,
        tax,
        outcome,
    })
}

/// An order-independent digest of a mine's answer: every negative
/// itemset with its expected (bits) and actual support, and every rule
/// with its RI (bits).
pub fn fingerprint(out: &MiningOutcome) -> u64 {
    let ids = |s: &negassoc_apriori::Itemset| s.items().iter().map(|i| i.0).collect::<Vec<u32>>();
    digest(
        out.negatives
            .iter()
            .map(|n| (ids(&n.itemset), n.expected.to_bits(), n.actual))
            .collect(),
        out.rules
            .iter()
            .map(|r| (ids(&r.antecedent), ids(&r.consequent), r.ri.to_bits()))
            .collect(),
    )
}

/// [`fingerprint`] over item ids: negatives as (itemset, expected bits,
/// actual), rules as (antecedent, consequent, RI bits), in any order.
/// Each itemset is hashed after its length, so two rules that split the
/// same items differently hash differently.
fn digest(
    mut negatives: Vec<(Vec<u32>, u64, u64)>,
    mut rules: Vec<(Vec<u32>, Vec<u32>, u64)>,
) -> u64 {
    negatives.sort_unstable();
    rules.sort_unstable();
    let mut h = Fnv::new();
    let itemset = |h: &mut Fnv, items: &[u32]| {
        h.u64(items.len() as u64);
        for &i in items {
            h.u64(u64::from(i));
        }
    };
    h.u64(negatives.len() as u64).u64(rules.len() as u64);
    for (items, e, actual) in &negatives {
        itemset(&mut h, items);
        h.u64(*e).u64(*actual);
    }
    for (a, c, ri) in &rules {
        itemset(&mut h, a);
        itemset(&mut h, c);
        h.u64(*ri);
    }
    h.finish()
}

/// The fingerprint every timed mine must match: an untimed mine of the
/// same files on the flat oracle backend.
pub fn oracle_fingerprint(files: &InputFiles) -> Result<u64, String> {
    Ok(fingerprint(
        &mine_files(files, oracle_config(), None)?.outcome,
    ))
}

/// Count one mine as attempted in `result`, and as failed when its
/// answer differs from the oracle's fingerprint `want`.
pub fn check_mine(mined: &Mined, want: u64, what: &str, result: &mut RunResult) {
    result.attempted += 1;
    if fingerprint(&mined.outcome) != want {
        result.fail(format!("{what} disagrees with the flat oracle"));
    }
}

/// The untraced mine workloads: time whole mines for `seconds` (and at
/// least [`MIN_MINES`] of them), checking each against the oracle.
pub fn run(files: &InputFiles, seconds: f64, mut result: RunResult) -> Result<RunResult, String> {
    let want = oracle_fingerprint(files)?;
    reset_peak_rss().map_err(|e| format!("reset VmHWM: {e}"))?;
    let mut walls_ms = Vec::new();
    let started = Instant::now();
    while walls_ms.len() < MIN_MINES || started.elapsed().as_secs_f64() < seconds {
        let mined = match mine_files(files, config(), None) {
            Ok(m) => m,
            Err(e) => {
                result.attempted += 1;
                result.fail(e);
                break;
            }
        };
        walls_ms.push(mined.total.as_secs_f64() * 1e3);
        check_mine(
            &mined,
            want,
            &format!("mine {}", walls_ms.len()),
            &mut result,
        );
    }
    let busy_s: f64 = walls_ms.iter().sum::<f64>() / 1e3;
    let peak = peak_rss_mb().map_err(|e| format!("read VmHWM: {e}"))?;
    result.push(Metric::ms("op_p50_ms", median(&walls_ms)));
    result.push(Metric::new(
        "ops_per_s",
        walls_ms.len() as f64 / busy_s,
        "1/s",
    ));
    result.push(Metric::new("peak_rss_mb", peak, "MB"));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::digest;

    #[test]
    fn digest_keeps_itemsets_apart_and_ignores_order() {
        let rule = |a: &[u32], c: &[u32]| (a.to_vec(), c.to_vec(), 5);
        assert_ne!(
            digest(vec![], vec![rule(&[1, 2], &[3])]),
            digest(vec![], vec![rule(&[1], &[2, 3])])
        );
        let negatives = vec![(vec![1, 2], 7, 3), (vec![4], 8, 2)];
        let reversed = negatives.iter().rev().cloned().collect();
        assert_eq!(digest(negatives, vec![]), digest(reversed, vec![]));
    }
}
