//! # negassoc-serve — rule-set snapshots and the basket-matching server
//!
//! The mining pipeline ends in a one-shot rule list; this crate turns it
//! into a durable, queryable artifact and a long-running service
//! (ROADMAP item 1): *which of the mined positive and negative rules
//! apply to this basket, right now?*
//!
//! Three layers, splittable at each seam:
//!
//! * [`snapshot`] — the immutable **NARS v1** file format: CRC-32-framed
//!   sections (the NADB v2 discipline), a self-describing header whose
//!   taxonomy digest pins the rules to the hierarchy they were mined
//!   under, and an antecedent index keyed by sorted item ids. Built from
//!   a [`negassoc::RuleSetExport`], loaded with full verification.
//! * [`engine`] — taxonomy-expanded matching: a basket containing an
//!   item matches rules over any of the item's ancestor categories.
//!   Ships both the indexed matcher and a deliberately independent
//!   full-scan oracle so CI can diff served answers byte-for-byte.
//! * [`server`] — dependency-free TCP serving: length-prefixed frames, a
//!   blocking accept loop, a worker pool on the `txdb::block` spawn
//!   discipline (bounded queue, `recv_timeout` + token poll, scoped
//!   joins), snapshot hot-swap via an `Arc` pointer flip, graceful drain
//!   on [`CancelToken`] (a waker connects to the listener to return the
//!   blocked accept), and counters/latency histograms through
//!   `obs::Metrics`.
//!
//! [`CancelToken`]: negassoc_txdb::ctrl::CancelToken

pub mod engine;
pub mod error;
pub mod server;
pub mod snapshot;

pub use engine::{answer_basket_line, Matches};
pub use error::ServeError;
pub use server::{request, serve, ServeState, ServeStats, SnapshotCell};
pub use snapshot::{export_snapshot, Snapshot, SnapshotMeta};

#[cfg(test)]
mod tests {
    use super::*;
    use negassoc::{MinerConfig, NegativeMiner, RuleSetExport};
    use negassoc_apriori::MinSupport;
    use negassoc_taxonomy::{Taxonomy, TaxonomyBuilder};
    use negassoc_txdb::TransactionDbBuilder;
    use std::path::{Path, PathBuf};

    /// A unique temp path cleaned up on drop.
    struct TempFile(PathBuf);

    impl TempFile {
        fn new(name: &str) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            TempFile(
                std::env::temp_dir()
                    .join(format!("negassoc-serve-{}-{n}-{name}", std::process::id())),
            )
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    /// Mine the crate-doc toy dataset: Ruffles co-occurs with Coke and
    /// (negatively) with Pepsi under a two-root taxonomy.
    fn mined_export() -> (Taxonomy, RuleSetExport) {
        let mut tb = TaxonomyBuilder::new();
        let drinks = tb.add_root("soft drinks");
        let coke = tb.add_child(drinks, "Coke").unwrap();
        let pepsi = tb.add_child(drinks, "Pepsi").unwrap();
        let snacks = tb.add_root("snacks");
        let ruffles = tb.add_child(snacks, "Ruffles").unwrap();
        let tax = tb.build();

        let mut db = TransactionDbBuilder::new();
        for i in 0..120u32 {
            match i % 4 {
                0 | 1 => db.add([coke, ruffles]),
                2 => db.add([pepsi]),
                _ => db.add([coke]),
            };
        }
        let db = db.build();
        let config = MinerConfig {
            min_support: MinSupport::Fraction(0.15),
            min_ri: 0.3,
            ..MinerConfig::default()
        };
        let outcome = NegativeMiner::new(config).mine(&db, &tax).expect("mine");
        let export = outcome.rule_export(&tax, 0.6, 0.3);
        (tax, export)
    }

    fn other_taxonomy() -> Taxonomy {
        let mut tb = TaxonomyBuilder::new();
        let drinks = tb.add_root("soft drinks");
        tb.add_child(drinks, "Coke").unwrap();
        // One extra leaf: same prefix, different digest.
        tb.add_child(drinks, "Fanta").unwrap();
        tb.build()
    }

    #[test]
    fn snapshot_file_round_trips_bit_exactly() {
        let (tax, export) = mined_export();
        assert!(export.positive.len() + export.negative.len() > 0);
        let file = TempFile::new("roundtrip.nars");
        export_snapshot(file.path(), &export, &tax, 7).expect("export");
        let loaded = Snapshot::load(file.path(), &tax).expect("load");
        assert_eq!(loaded.meta().snapshot_version, 7);
        assert_eq!(loaded.meta().taxonomy_digest, tax.digest());
        assert_eq!(loaded.meta().num_transactions, export.num_transactions);
        assert_eq!(loaded.positive(), &export.positive[..]);
        assert_eq!(loaded.negative().len(), export.negative.len());
        for (got, want) in loaded.negative().iter().zip(&export.negative) {
            assert_eq!(got.antecedent, want.antecedent);
            assert_eq!(got.consequent, want.consequent);
            assert_eq!(got.actual, want.actual);
            assert_eq!(got.expected.to_bits(), want.expected.to_bits());
            assert_eq!(got.ri.to_bits(), want.ri.to_bits());
        }
        // Same export, same bytes: snapshots are deterministic artifacts.
        let a = snapshot::snapshot_bytes(&export, 7).expect("bytes");
        let b = snapshot::snapshot_bytes(&export, 7).expect("bytes");
        assert_eq!(a, b);
    }

    #[test]
    fn export_rejects_taxonomy_mismatch() {
        // Satellite regression: rules mined under taxonomy A must not
        // export or load against taxonomy B.
        let (tax, export) = mined_export();
        let wrong = other_taxonomy();
        let file = TempFile::new("mismatch.nars");

        let err = export_snapshot(file.path(), &export, &wrong, 1).expect_err("must refuse");
        match err {
            ServeError::SnapshotTaxonomyMismatch { snapshot, taxonomy } => {
                assert_eq!(snapshot, tax.digest());
                assert_eq!(taxonomy, wrong.digest());
            }
            other => panic!("want SnapshotTaxonomyMismatch, got {other}"),
        }
        assert!(
            err.to_string().contains("taxonomy mismatch"),
            "message should say what went wrong: {err}"
        );

        // The load path refuses the same pairing.
        export_snapshot(file.path(), &export, &tax, 1).expect("export under the right taxonomy");
        let err = Snapshot::load(file.path(), &wrong).expect_err("load must refuse");
        assert!(matches!(err, ServeError::SnapshotTaxonomyMismatch { .. }));

        // And a mismatched in-memory install is refused too (hot-swap
        // path), leaving the old snapshot serving.
        let snap = std::sync::Arc::new(Snapshot::load(file.path(), &tax).expect("load"));
        let state = ServeState::new(tax.clone(), std::sync::Arc::clone(&snap)).expect("state");
        let err = ServeState::new(wrong, snap).expect_err("state must refuse");
        assert!(matches!(err, ServeError::SnapshotTaxonomyMismatch { .. }));
        let _ = state;
    }

    #[test]
    fn corruption_is_caught_by_the_framing() {
        let (tax, export) = mined_export();
        let bytes = snapshot::snapshot_bytes(&export, 3).expect("bytes");
        // Flipping any single byte must fail verification (try a spread
        // of positions: magic, header, each section).
        for pos in [0, 6, 20, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                Snapshot::from_bytes(&bad, &tax).is_err(),
                "byte flip at {pos} went undetected"
            );
        }
        // Truncation at any boundary fails too.
        assert!(Snapshot::from_bytes(&bytes[..bytes.len() - 1], &tax).is_err());
        assert!(Snapshot::from_bytes(&bytes[..4], &tax).is_err());
    }

    #[test]
    fn indexed_matcher_agrees_with_the_oracle_on_every_basket() {
        let (tax, export) = mined_export();
        let snap = Snapshot::from_export(&export, &tax, 1).expect("snapshot");
        // Every single-item basket and every pair, by name.
        let names: Vec<&str> = ["soft drinks", "Coke", "Pepsi", "snacks", "Ruffles"].to_vec();
        let mut baskets: Vec<String> = names.iter().map(|n| (*n).to_owned()).collect();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                baskets.push(format!("{a}, {b}"));
            }
        }
        let mut matched_something = false;
        for basket in &baskets {
            let indexed = answer_basket_line(&tax, &snap, basket, false);
            let oracle = answer_basket_line(&tax, &snap, basket, true);
            assert_eq!(indexed, oracle, "divergence on basket {basket:?}");
            if indexed.lines().count() > 1 {
                matched_something = true;
            }
        }
        assert!(
            matched_something,
            "test data should match at least one rule"
        );
        // A Ruffles basket matches rules written over its ancestors.
        let answer = answer_basket_line(&tax, &snap, "Ruffles, Pepsi", false);
        assert!(answer.starts_with("snapshot 1 basket [Ruffles + Pepsi]"));
        // Unknown items and empty baskets render as error bodies.
        assert!(answer_basket_line(&tax, &snap, "Sprite", false).starts_with("error: unknown item"));
        assert_eq!(
            answer_basket_line(&tax, &snap, " , ", false),
            "error: empty basket\n"
        );
    }
}
