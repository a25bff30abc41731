//! The [`NegativeMiner`] facade: configuration in, positive itemsets +
//! negative itemsets + negative rules + a run report out.

use crate::candidates::{CandidateStats, NegativeItemset};
use crate::checkpoint::{CheckpointManager, Resume};
use crate::config::{Driver, MinerConfig};
use crate::ctrl::{cancellation_reason, CancelToken, Completeness, RunControl};
use crate::error::Error;
use crate::improved::run_improved_with_checkpoints;
use crate::naive::run_naive;
use crate::rules::{generate_negative_rules, NegativeRule};
use crate::substitutes::SubstituteKnowledge;
use negassoc_apriori::parallel::{Obs, PassStats};
use negassoc_apriori::LargeItemsets;
use negassoc_taxonomy::Taxonomy;
use negassoc_txdb::obs::Event;
use negassoc_txdb::TransactionSource;
use std::path::Path;
use std::time::{Duration, Instant};

/// Everything a mining run produces.
#[derive(Debug)]
pub struct MiningOutcome {
    /// The generalized large itemsets (step 1 of the pipeline).
    pub large: LargeItemsets,
    /// Confirmed negative itemsets (expected − actual ≥ MinSup · MinRI).
    pub negatives: Vec<NegativeItemset>,
    /// Negative association rules with RI ≥ MinRI.
    pub rules: Vec<NegativeRule>,
    /// Run accounting.
    pub report: MiningReport,
}

/// Accounting for one mining run.
#[derive(Clone, Debug, Default)]
pub struct MiningReport {
    /// Database passes made in total.
    pub passes: u64,
    /// Positive levels mined (the paper's `n`).
    pub levels: u64,
    /// Number of generalized large itemsets.
    pub large_itemsets: usize,
    /// Candidate-generation counters.
    pub candidates: CandidateStats,
    /// Confirmed negative itemsets.
    pub negative_itemsets: usize,
    /// Emitted rules.
    pub rules: usize,
    /// Wall time of positive mining + candidate generation + counting.
    pub mining_time: Duration,
    /// Wall time of the positive (generalized large itemset) phase alone.
    pub positive_time: Duration,
    /// Wall time of negative candidate generation + counting alone.
    pub negative_time: Duration,
    /// Wall time of rule generation.
    pub rule_time: Duration,
    /// Per-pass counting telemetry in execution order (candidates counted,
    /// transactions scanned, worker threads used, wall time). Empty for
    /// phases that do not decompose into per-level passes (EstMerge
    /// positive mining, the partition fallback) and for passes a resumed
    /// run skipped thanks to a checkpoint.
    pub pass_stats: Vec<PassStats>,
    /// Degraded-coverage marker: `Some(Completeness::Degraded { .. })`
    /// when the source quarantined shards (the answer is exact over the
    /// delivered transactions only), `None` for full-coverage runs.
    pub completeness: Option<Completeness>,
}

impl std::fmt::Display for MiningReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "passes: {} ({} positive levels)",
            self.passes, self.levels
        )?;
        writeln!(f, "large itemsets: {}", self.large_itemsets)?;
        writeln!(
            f,
            "negative candidates: {} unique of {} enumerated, {} cut by the expectation bound \
             (rejected: {} related, {} low-E, {} already-large; {} merged)",
            self.candidates.unique,
            self.candidates.generated,
            self.candidates.pruned,
            self.candidates.rejected_related,
            self.candidates.rejected_low_expected,
            self.candidates.rejected_large,
            self.candidates.merged
        )?;
        writeln!(
            f,
            "negative itemsets: {}   rules: {}",
            self.negative_itemsets, self.rules
        )?;
        write!(
            f,
            "time: {:?} total ({:?} positive, {:?} negative, {:?} rules)",
            self.mining_time + self.rule_time,
            self.positive_time,
            self.negative_time,
            self.rule_time
        )?;
        if let Some(c) = &self.completeness {
            write!(f, "\ncompleteness: {c}")?;
        }
        Ok(())
    }
}

/// The negative association rule miner (see crate docs for the algorithm).
#[derive(Clone, Copy, Debug, Default)]
pub struct NegativeMiner {
    config: MinerConfig,
}

impl NegativeMiner {
    /// A miner with the given configuration.
    pub fn new(config: MinerConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// Mine `source` with taxonomy `tax`.
    pub fn mine<S: TransactionSource + ?Sized>(
        &self,
        source: &S,
        tax: &Taxonomy,
    ) -> Result<MiningOutcome, Error> {
        self.mine_with_substitutes(source, tax, None)
    }

    /// Mine with additional substitute-item knowledge (§4.1 extension).
    /// Only the improved driver consults it.
    pub fn mine_with_substitutes<S: TransactionSource + ?Sized>(
        &self,
        source: &S,
        tax: &Taxonomy,
        substitutes: Option<&SubstituteKnowledge>,
    ) -> Result<MiningOutcome, Error> {
        self.mine_inner(source, tax, substitutes, None, None, &Obs::disabled())
    }

    /// Mine with checkpoint/resume: after every completed database pass
    /// the run's state is persisted (checksummed) under `checkpoint_dir`,
    /// and a previous interrupted run with the same configuration,
    /// taxonomy and database resumes from its last completed pass instead
    /// of starting over. On success the directory's checkpoint files are
    /// removed.
    ///
    /// Damaged or parameter-mismatched checkpoint files are never trusted:
    /// the run silently falls back to an older checkpoint or a fresh
    /// start. Requires the improved driver; with EstMerge only the
    /// negative phase (candidates awaiting their counting pass) is
    /// checkpointed, because EstMerge has no per-level stepping.
    pub fn mine_with_recovery<S: TransactionSource + ?Sized>(
        &self,
        source: &S,
        tax: &Taxonomy,
        substitutes: Option<&SubstituteKnowledge>,
        checkpoint_dir: &Path,
    ) -> Result<MiningOutcome, Error> {
        self.config.validate()?;
        if self.config.driver != Driver::Improved {
            return Err(Error::Config(
                "checkpoint/resume requires the improved driver \
                 (the naive driver interleaves phases per level)"
                    .into(),
            ));
        }
        let manager = CheckpointManager::new(checkpoint_dir, &self.config, tax, source.len_hint())?
            .with_source_digest(source.content_digest());
        let outcome = self.mine_inner(
            source,
            tax,
            substitutes,
            Some(&manager),
            None,
            &Obs::disabled(),
        )?;
        manager.clear()?;
        Ok(outcome)
    }

    /// Mine under a [`RunControl`]: the run stops cooperatively — at the
    /// next pass, level, or block boundary — when the control's token is
    /// cancelled by a user interrupt, an expired deadline, or the stall
    /// watchdog, and returns [`Error::Cancelled`] carrying the reason, the
    /// checkpoint directory (when one survives) and an explicit
    /// [`Completeness`] status. No partial counts escape a cancelled run.
    ///
    /// With `checkpoint_dir` set this behaves like
    /// [`Self::mine_with_recovery`] (improved driver required): every
    /// completed pass is durably checkpointed, so a cancelled run can be
    /// resumed — by calling this again or `mine_with_recovery` with the
    /// same directory — to byte-identical output. Without a directory,
    /// cancellation simply abandons the run
    /// ([`Completeness::NoCheckpoint`]).
    pub fn mine_with_controls<S: TransactionSource + ?Sized>(
        &self,
        source: &S,
        tax: &Taxonomy,
        substitutes: Option<&SubstituteKnowledge>,
        checkpoint_dir: Option<&Path>,
        ctrl: &RunControl,
    ) -> Result<MiningOutcome, Error> {
        self.config.validate()?;
        let manager = match checkpoint_dir {
            Some(dir) => {
                if self.config.driver != Driver::Improved {
                    return Err(Error::Config(
                        "checkpoint/resume requires the improved driver \
                         (the naive driver interleaves phases per level)"
                            .into(),
                    ));
                }
                Some(
                    CheckpointManager::new(dir, &self.config, tax, source.len_hint())?
                        .with_source_digest(source.content_digest())
                        .with_obs(ctrl.obs().clone()),
                )
            }
            None => None,
        };
        // Keep the guard alive for the whole run; dropping it joins the
        // monitor thread.
        let _watchdog = ctrl.arm();
        let obs = ctrl.obs();
        // Pre-flight: a token already tripped (an expired deadline, a
        // Ctrl-C during argument parsing) must cancel before the first
        // pass ever touches the source.
        if let Err(e) = ctrl.token().check() {
            let err = decorate_cancellation(Error::Io(e), manager.as_ref(), obs);
            obs.flush();
            return Err(err);
        }
        let started = Instant::now();
        match self.mine_inner(
            source,
            tax,
            substitutes,
            manager.as_ref(),
            Some(ctrl.token()),
            obs,
        ) {
            Ok(outcome) => {
                if let Some(m) = &manager {
                    m.clear()?;
                }
                obs.emit(|| Event::RunEnd {
                    passes: outcome.report.passes,
                    wall: started.elapsed(),
                });
                obs.flush();
                Ok(outcome)
            }
            Err(err) => {
                let err = decorate_cancellation(err, manager.as_ref(), obs);
                obs.flush();
                Err(err)
            }
        }
    }

    fn mine_inner<S: TransactionSource + ?Sized>(
        &self,
        source: &S,
        tax: &Taxonomy,
        substitutes: Option<&SubstituteKnowledge>,
        checkpoints: Option<&CheckpointManager>,
        ctrl: Option<&CancelToken>,
        obs: &Obs,
    ) -> Result<MiningOutcome, Error> {
        self.config.validate()?;
        let start = Instant::now();
        let outcome = match self.config.driver {
            Driver::Naive => run_naive(source, tax, &self.config, ctrl, obs)?,
            Driver::Improved => run_improved_with_checkpoints(
                source,
                tax,
                &self.config,
                substitutes,
                checkpoints,
                ctrl,
                obs,
            )?,
        };
        let mining_time = start.elapsed();

        let rule_start = Instant::now();
        let rules =
            generate_negative_rules(&outcome.negatives, &outcome.large, self.config.min_ri)?;
        let rule_time = rule_start.elapsed();

        let quarantined = source.quarantined_shards();
        let report = MiningReport {
            passes: outcome.passes,
            levels: outcome.levels,
            large_itemsets: outcome.large.total(),
            candidates: outcome.candidate_stats,
            negative_itemsets: outcome.negatives.len(),
            rules: rules.len(),
            mining_time,
            positive_time: outcome.positive_time,
            negative_time: outcome.negative_time,
            rule_time,
            pass_stats: outcome.pass_stats,
            completeness: if quarantined.is_empty() {
                None
            } else {
                Some(Completeness::Degraded {
                    quarantined_shards: quarantined,
                })
            },
        };
        Ok(MiningOutcome {
            large: outcome.large,
            negatives: outcome.negatives,
            rules,
            report,
        })
    }
}

/// Turn a cancellation riding the error chain into the typed
/// [`Error::Cancelled`], attaching whatever durable state the checkpoint
/// manager can vouch for, and record the cancellation with `obs`.
/// Non-cancellation errors pass through untouched.
fn decorate_cancellation(err: Error, manager: Option<&CheckpointManager>, obs: &Obs) -> Error {
    let Some(reason) = cancellation_reason(&err) else {
        return err;
    };
    obs.emit(|| Event::Cancelled {
        reason: reason.to_string(),
    });
    let (checkpoint, completeness) = match manager {
        None => (None, Completeness::NoCheckpoint),
        Some(m) => match m.load_latest() {
            Resume::Fresh => (None, Completeness::NoCheckpoint),
            Resume::Positive(p) => (
                Some(m.dir().to_path_buf()),
                Completeness::PositivePartial {
                    next_level: p.state.next_k,
                    passes: p.passes,
                },
            ),
            Resume::Negative(n) => (
                Some(m.dir().to_path_buf()),
                Completeness::NegativePending {
                    candidates: n.candidates.len(),
                },
            ),
        },
    };
    Error::Cancelled {
        reason,
        checkpoint,
        completeness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenAlgorithm;
    use negassoc_apriori::MinSupport;
    use negassoc_taxonomy::{ItemId, TaxonomyBuilder};
    use negassoc_txdb::TransactionDbBuilder;

    fn scenario() -> (Taxonomy, negassoc_txdb::TransactionDb, [ItemId; 4]) {
        let mut tb = TaxonomyBuilder::new();
        let drinks = tb.add_root("drinks");
        let coke = tb.add_child(drinks, "coke").unwrap();
        let pepsi = tb.add_child(drinks, "pepsi").unwrap();
        let snacks = tb.add_root("snacks");
        let chips = tb.add_child(snacks, "chips").unwrap();
        let nuts = tb.add_child(snacks, "nuts").unwrap();
        let tax = tb.build();

        let mut db = TransactionDbBuilder::new();
        for _ in 0..30 {
            db.add([coke, chips]);
        }
        for _ in 0..20 {
            db.add([pepsi, nuts]);
        }
        for _ in 0..20 {
            db.add([pepsi]);
        }
        (tax, db.build(), [coke, pepsi, chips, nuts])
    }

    #[test]
    fn end_to_end_produces_rules_and_report() {
        let (tax, db, [_coke, pepsi, chips, _nuts]) = scenario();
        let miner = NegativeMiner::new(MinerConfig {
            min_support: MinSupport::Fraction(0.2),
            min_ri: 0.25,
            ..MinerConfig::default()
        });
        let out = miner.mine(&db, &tax).unwrap();
        assert!(out.large.total() > 0);
        assert_eq!(out.report.large_itemsets, out.large.total());
        assert_eq!(out.report.negative_itemsets, out.negatives.len());
        assert_eq!(out.report.rules, out.rules.len());
        assert!(out.report.passes > 0);
        // {pepsi, chips} never co-occur but both sides are popular.
        assert!(out.rules.iter().any(|r| (r.antecedent.contains(pepsi)
            && r.consequent.contains(chips))
            || (r.antecedent.contains(chips) && r.consequent.contains(pepsi))));
        // Every rule clears the configured threshold.
        for r in &out.rules {
            assert!(r.ri >= 0.25);
        }
    }

    #[test]
    fn invalid_config_is_rejected_before_any_pass() {
        let (tax, db, _) = scenario();
        let miner = NegativeMiner::new(MinerConfig {
            min_ri: -0.5,
            ..MinerConfig::default()
        });
        assert!(matches!(miner.mine(&db, &tax), Err(Error::Config(_))));
    }

    #[test]
    fn drivers_agree_end_to_end() {
        let (tax, db, _) = scenario();
        let mk = |driver| {
            NegativeMiner::new(MinerConfig {
                min_support: MinSupport::Fraction(0.2),
                min_ri: 0.25,
                driver,
                algorithm: GenAlgorithm::Cumulate,
                ..MinerConfig::default()
            })
            .mine(&db, &tax)
            .unwrap()
        };
        let a = mk(Driver::Improved);
        let b = mk(Driver::Naive);
        assert_eq!(a.negatives.len(), b.negatives.len());
        assert_eq!(a.rules.len(), b.rules.len());
    }

    #[test]
    fn recovery_after_interruption_matches_uninterrupted_run() {
        use negassoc_txdb::fault::{FaultPlan, FaultySource, SourceFault, SourceFaultKind};

        let (tax, db, _) = scenario();
        let miner = NegativeMiner::new(MinerConfig {
            min_support: MinSupport::Fraction(0.2),
            min_ri: 0.25,
            ..MinerConfig::default()
        });
        let clean = miner.mine(&db, &tax).unwrap();

        let dir =
            std::env::temp_dir().join(format!("negassoc-miner-recovery-{}", std::process::id()));
        // "Kill" the run during its second pass with a permanent fault.
        let faulty = FaultySource::new(
            &db,
            FaultPlan::new(vec![SourceFault {
                pass: 1,
                at_transaction: 5,
                kind: SourceFaultKind::PermanentError,
            }]),
        );
        let interrupted = miner.mine_with_recovery(&faulty, &tax, None, &dir);
        assert!(interrupted.is_err());
        // The level-1 checkpoint survived the crash.
        assert!(dir.join("pass-0002.nack").exists());

        // Restart against the healthy database: resumes, finishes, and
        // agrees with the uninterrupted run in full.
        let resumed = miner.mine_with_recovery(&db, &tax, None, &dir).unwrap();
        let norm_rules = |out: &MiningOutcome| {
            let mut v: Vec<(
                Vec<negassoc_taxonomy::ItemId>,
                Vec<negassoc_taxonomy::ItemId>,
                u64,
            )> = out
                .rules
                .iter()
                .map(|r| {
                    (
                        r.antecedent.items().to_vec(),
                        r.consequent.items().to_vec(),
                        r.ri.to_bits(),
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(norm_rules(&resumed), norm_rules(&clean));
        assert_eq!(resumed.large.total(), clean.large.total());
        assert_eq!(resumed.negatives.len(), clean.negatives.len());
        // Success cleared the checkpoint files.
        assert!(!dir.join("pass-0002.nack").exists());
        assert!(!dir.join("negative.nack").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_rejects_the_naive_driver() {
        let (tax, db, _) = scenario();
        let miner = NegativeMiner::new(MinerConfig {
            driver: crate::config::Driver::Naive,
            ..MinerConfig::default()
        });
        let dir =
            std::env::temp_dir().join(format!("negassoc-miner-naive-ckpt-{}", std::process::id()));
        assert!(matches!(
            miner.mine_with_recovery(&db, &tax, None, &dir),
            Err(Error::Config(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_miner_is_constructible() {
        let m = NegativeMiner::default();
        assert!(m.config().validate().is_ok());
    }

    #[test]
    fn report_renders_every_headline_number() {
        let (tax, db, _) = scenario();
        let out = NegativeMiner::new(MinerConfig {
            min_support: MinSupport::Fraction(0.2),
            min_ri: 0.25,
            ..MinerConfig::default()
        })
        .mine(&db, &tax)
        .unwrap();
        let shown = out.report.to_string();
        assert!(shown.contains(&format!("passes: {}", out.report.passes)));
        assert!(shown.contains(&format!("large itemsets: {}", out.report.large_itemsets)));
        assert!(shown.contains(&format!("rules: {}", out.report.rules)));
        assert!(shown.contains("time:"));
    }
}
