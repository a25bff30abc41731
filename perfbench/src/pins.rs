//! The pinned inputs: each workload's generator parameters and what they
//! generate. A run fails when its seed no longer reproduces these, so a
//! change to the generator cannot silently change what is measured.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --print-pins`
//! prints the values the current generator produces.

use crate::inputs::Workload;
use negassoc_datagen::GenParams;

/// One workload's pinned input.
pub struct Pin {
    pub params: GenParams,
    pub transactions: usize,
    pub taxonomy_items: usize,
    /// [`crate::inputs::describe`]'s digest of the generated files.
    pub digest: u64,
}

pub fn pin(w: Workload) -> Pin {
    let short = |num_transactions, num_clusters, seed| GenParams {
        num_transactions,
        avg_transaction_len: 10.0,
        avg_cluster_size: 5.0,
        avg_itemset_size: 5.0,
        avg_itemsets_per_cluster: 3.0,
        num_clusters,
        num_items: 8_000,
        num_roots: 100,
        fanout: 9.0,
        corruption_mean: 0.5,
        corruption_variance: 0.1,
        seed,
    };
    match w {
        Workload::MineCandgen => Pin {
            params: short(4_000, 2_000, 7),
            transactions: 4_000,
            taxonomy_items: 16_962,
            digest: 0x88f7_108b_c6b5_2988,
        },
        Workload::MineCount => Pin {
            params: GenParams {
                fanout: 3.0,
                ..short(5_000, 2_000, 0x7a11)
            },
            transactions: 5_000,
            taxonomy_items: 12_531,
            digest: 0x5a34_cb57_9f2f_64c3,
        },
        Workload::ServeKeepalive | Workload::ServeChurn => Pin {
            params: short(4_000, 160, 0x5601),
            transactions: 4_000,
            taxonomy_items: 8_972,
            digest: 0x9d05_4794_94da_681a,
        },
    }
}
