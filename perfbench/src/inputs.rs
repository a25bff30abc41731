//! Workload inputs: the pinned generator parameters, the seed's
//! transformation of the generated dataset, the files the program reads,
//! and the digest that pins them.
//!
//! The dataset of a workload is fixed by its [`GenParams`] (generator seed
//! included). `--seed` reorders the transactions before they are written
//! and, on the serve workloads, the basket mix. Neither changes the work
//! done, so runs on different seeds measure the same amount of work: a
//! different generator seed changes the taxonomy and the
//! candidate volume by up to 10x (short, 4k transactions, generator seeds
//! 1..5: 5,926 to 1,889,714 negative candidates enumerated).

use crate::pins::Pin;
use crate::stats::{Fnv, Rng};
use negassoc_datagen::{generate, presets, Dataset, GenParams};
use negassoc_taxonomy::textfmt::write_taxonomy;
use negassoc_taxonomy::Taxonomy;
use negassoc_txdb::{binfmt, TransactionDb, TransactionDbBuilder};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MineCandgen,
    MineCount,
    ServeKeepalive,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MineCandgen,
        Workload::MineCount,
        Workload::ServeKeepalive,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MineCandgen => "mine-candgen",
            Workload::MineCount => "mine-count",
            Workload::ServeKeepalive => "serve-keepalive",
            Workload::ServeChurn => "serve-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeKeepalive | Workload::ServeChurn)
    }

    /// The generator parameters of the workload's dataset.
    ///
    /// Pitfall: `negrules generate --preset short --transactions 4000`
    /// keeps the preset's 2,000 clusters, while `presets::scaled` shrinks
    /// them to 160. "Short, 4k transactions" therefore names two inputs:
    /// at 1.5% support the first enumerates 2,975,305 negative candidates
    /// (generator seed 7), the second 84,831.
    pub fn params(self) -> GenParams {
        match self {
            // What `negrules generate --preset short --transactions 4000
            // --seed 7` writes.
            Workload::MineCandgen => GenParams {
                num_transactions: 4_000,
                seed: 7,
                ..presets::short()
            },
            // What `negrules generate --preset tall --transactions 5000`
            // writes (generator seed 0x7a11): the tall taxonomy under the
            // recipe of `MineCandgen`, clusters left at 2,000. The paper
            // harness's own shape, `presets::scaled(presets::tall(),
            // 20_000)`, takes 8 to 14 s a mine: too few mines in a run
            // for a steady median.
            Workload::MineCount => GenParams {
                num_transactions: 5_000,
                ..presets::tall()
            },
            // The snapshot behind BENCH_serve.json (generator seed 0x5601).
            Workload::ServeKeepalive | Workload::ServeChurn => {
                presets::scaled(presets::short(), 4_000)
            }
        }
    }
}

/// The two files a mine reads.
pub struct InputFiles {
    pub nadb: PathBuf,
    pub taxonomy: PathBuf,
}

impl InputFiles {
    pub fn in_dir(dir: &Path) -> Self {
        InputFiles {
            nadb: dir.join("tx.nadb"),
            taxonomy: dir.join("tax.txt"),
        }
    }
}

/// What generating a workload's input produced, for the pin check.
pub struct Generated {
    pub transactions: usize,
    pub taxonomy_items: usize,
    pub digest: u64,
}

/// Generate the workload's dataset, reorder its transactions by `seed`
/// and write both files; the dataset is returned for [`describe`].
pub fn generate_files(w: Workload, seed: u64, files: &InputFiles) -> io::Result<Dataset> {
    let ds = generate(&w.params());
    write_files(&ds, seed, files)?;
    Ok(ds)
}

/// Counts and digest of a generated dataset.
pub fn describe(ds: &Dataset) -> io::Result<Generated> {
    Ok(Generated {
        transactions: ds.db.len(),
        taxonomy_items: ds.taxonomy.len(),
        digest: dataset_digest(&ds.taxonomy, &ds.db)?,
    })
}

/// Write `ds` with its transactions in `seed`'s order.
pub fn write_files(ds: &Dataset, seed: u64, files: &InputFiles) -> io::Result<()> {
    binfmt::save(&shuffled(&ds.db, seed), &files.nadb)?;
    let mut out = BufWriter::new(std::fs::File::create(&files.taxonomy)?);
    write_taxonomy(&ds.taxonomy, &mut out)?;
    out.flush()
}

/// `db` with its transactions in a seed-determined order.
fn shuffled(db: &TransactionDb, seed: u64) -> TransactionDb {
    let mut order: Vec<usize> = (0..db.len()).collect();
    let mut rng = Rng::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut b = TransactionDbBuilder::with_capacity(db.len(), 10);
    for i in order {
        b.add(db.get(i).items().iter().copied());
    }
    b.build()
}

/// A digest of the generated dataset that does not depend on transaction
/// order: the taxonomy file's bytes, then the wrapping sum of one FNV-1a
/// hash per transaction.
fn dataset_digest(tax: &Taxonomy, db: &TransactionDb) -> io::Result<u64> {
    let mut text = Vec::new();
    write_taxonomy(tax, &mut text)?;
    let mut sum = 0u64;
    for t in db.iter() {
        let mut h = Fnv::new();
        for item in t.items() {
            h.u64(u64::from(item.0));
        }
        sum = sum.wrapping_add(h.finish());
    }
    Ok(Fnv::new()
        .bytes(&text)
        .u64(db.len() as u64)
        .u64(sum)
        .finish())
}

/// Compare a generated input against its pin.
pub fn check_generated(pin: &Pin, ds: &Dataset) -> Result<(), String> {
    let g = describe(ds).map_err(|e| format!("digest: {e}"))?;
    if ds.params != pin.params {
        return Err(format!(
            "generator parameters {:?} differ from the pinned {:?}",
            ds.params, pin.params
        ));
    }
    if (g.transactions, g.taxonomy_items, g.digest)
        != (pin.transactions, pin.taxonomy_items, pin.digest)
    {
        return Err(format!(
            "generated input no longer matches its pin: {} transactions, {} taxonomy items, \
             digest {:#018x} (pinned {}, {}, {:#018x})",
            g.transactions,
            g.taxonomy_items,
            g.digest,
            pin.transactions,
            pin.taxonomy_items,
            pin.digest
        ));
    }
    Ok(())
}
