//! Sharded databases and the scatter-gather query layer.
//!
//! The paper's scale-out story is database partitioning: MetaCache-GPU
//! splits a reference database that exceeds one device's memory across
//! multiple GPUs and queries the partitions concurrently (§4.3). This module
//! is the serving-stack generalisation of that idea: a [`ShardedDatabase`]
//! partitions the *targets* of a fully built [`Database`] across N shards —
//! each shard a self-contained `Database` holding only its targets' hash
//! buckets — and a [`ShardedClassifier`] fans every read out to all shards,
//! merges the per-shard [`CandidateList`]s and applies the classification
//! rule once. The [`ShardedBackend`] plugs this scatter-gather layer into
//! the existing [`Backend`] trait, so the
//! [`ServingEngine`][crate::serving::ServingEngine], the streaming pipeline
//! and the `mc-net` front-end serve a sharded database transparently.
//!
//! # Why the merge is bit-equivalent to unsharded accumulation
//!
//! Sharding partitions the *target* space, and every stage of the query
//! pipeline is target-local:
//!
//! 1. **Location gathering** — a shard's tables hold exactly the locations
//!    whose `target` is assigned to it, so the concatenation of all shards'
//!    gathered location lists is a permutation of the unsharded list, and
//!    sorting by `(target, window)` makes each shard's sorted list the
//!    contiguous sub-slice of the global sorted list belonging to its
//!    targets.
//! 2. **Window counting and the sliding-window scan** —
//!    [`top_candidates_into`][crate::candidate::top_candidates_into] never
//!    accumulates across targets (the anchor scan breaks at the first
//!    foreign target), so each target's candidate is computed from that
//!    target's counts alone: identical per shard and globally.
//! 3. **Top-m truncation** — the candidate order
//!    (hits desc, then target asc, then window asc) is a *total* order over
//!    candidates of distinct targets, and a candidate ranking in the global
//!    top-m ranks at least as high within its own shard (a shard holds a
//!    subset of its competitors). Per-shard top-m lists therefore retain
//!    every global top-m candidate, and merging them into a fresh
//!    capacity-m list ([`CandidateList::merge`]) reproduces the global
//!    top-m exactly — including order. The keep-first-on-equal-hits nuance
//!    of [`CandidateList::insert`] only applies to candidates of the *same*
//!    target, which cannot span shards.
//!
//! Step 3 is the subtle part; `tests/sharding.rs` proves it with a property
//! suite over random reference sets, shard counts, skewed and empty shards,
//! and the exhaustive merge oracle in [`crate::candidate`]'s tests.
//!
//! # Construction: split one built database
//!
//! [`ShardedDatabase::from_database`] *splits* a fully built `Database`
//! rather than building shards independently: the global
//! `max_locations_per_feature` cap (254) is applied during the unsharded
//! build, and splitting afterwards guarantees each shard holds exactly the
//! surviving locations of its targets. Building shards independently could
//! retain locations the global build dropped, breaking bit-equivalence.
//! Every shard keeps the **full** target table and taxonomy with global
//! target ids — only the hash tables are subset — so per-shard candidates
//! carry global ids natively and merge without remapping (this is also what
//! lets a remote shard server answer candidate queries in global id space).
//!
//! # Live reload of a sharded database
//!
//! A sharded serving topology swaps epochs (see
//! [`crate::serving::EpochStore`]) at two granularities. **In-process**, one
//! [`ServingEngine::reload_backend`][crate::serving::ServingEngine::reload_backend]
//! call with a fresh `ShardedBackend` replaces *all* shards atomically — a
//! batch is classified either against the old split or the new one, never a
//! mix, because the scatter-gather runs inside a single backend worker
//! pinned to one epoch. **Across the wire** (`mc-serve route` fronting
//! shard servers), the router swaps its metadata epoch first and then
//! reloads each shard server in turn; the router workers compare the
//! generation tags on the shard answers and re-query while the sweep is
//! propagating, so no response merges candidate lists from two different
//! reference sets (`mc_net::router` documents the ordering argument).

use std::sync::Arc;

use rayon::prelude::*;

use mc_kmer::TargetId;
use mc_seqio::SequenceRecord;

use crate::backend::{Backend, BackendWorker};
use crate::candidate::CandidateList;
use crate::classify::{classify_candidates, Classification};
use crate::database::{CondensedBuilder, Database, Partition, PartitionStore};
use crate::error::MetaCacheError;
use crate::query::{Classifier, QueryScratch};

/// An assignment of every target of a database to one of `shard_count`
/// shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shard_count: usize,
    /// `assignment[target_id]` = shard index.
    assignment: Vec<usize>,
}

impl ShardPlan {
    /// Assign `target_count` targets round-robin across `shard_count` shards
    /// (target `t` goes to shard `t % shard_count`) — the same policy the
    /// GPU builder uses to rotate targets over devices.
    pub fn round_robin(target_count: usize, shard_count: usize) -> Result<Self, MetaCacheError> {
        if shard_count == 0 {
            return Err(MetaCacheError::Config(
                "shard count must be at least 1".into(),
            ));
        }
        Ok(Self {
            shard_count,
            assignment: (0..target_count).map(|t| t % shard_count).collect(),
        })
    }

    /// Use an explicit per-target assignment (`assignment[target_id]` =
    /// shard index). Allows skewed plans and shards with zero targets; every
    /// entry must be `< shard_count`.
    pub fn explicit(assignment: Vec<usize>, shard_count: usize) -> Result<Self, MetaCacheError> {
        if shard_count == 0 {
            return Err(MetaCacheError::Config(
                "shard count must be at least 1".into(),
            ));
        }
        if let Some((t, &s)) = assignment
            .iter()
            .enumerate()
            .find(|(_, &s)| s >= shard_count)
        {
            return Err(MetaCacheError::Config(format!(
                "target {t} assigned to shard {s}, but shard count is {shard_count}"
            )));
        }
        Ok(Self {
            shard_count,
            assignment,
        })
    }

    /// Number of shards in the plan.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The shard a target is assigned to.
    pub fn shard_of(&self, target: TargetId) -> Option<usize> {
        self.assignment.get(target as usize).copied()
    }

    /// The full per-target assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }
}

/// A database split into N self-contained shards plus a table-free metadata
/// view, queried by scatter-gather (see the module docs for the
/// bit-equivalence argument).
pub struct ShardedDatabase {
    /// Table-free metadata view: full config/targets/taxonomy/lineages, no
    /// partitions. Classification decisions and serving metadata
    /// ([`Backend::database`]) come from here.
    meta: Arc<Database>,
    /// One self-contained database per shard: full metadata (global target
    /// ids), one condensed partition holding only that shard's buckets.
    shards: Vec<Arc<Database>>,
    plan: ShardPlan,
}

impl ShardedDatabase {
    /// Split a fully built database into shards according to `plan`.
    ///
    /// Consumes the database: its buckets are re-grouped by the owning
    /// target's shard and rebuilt as one condensed partition per shard. The
    /// plan must assign exactly the database's targets.
    pub fn from_database(db: Database, plan: ShardPlan) -> Result<Self, MetaCacheError> {
        if plan.assignment.len() != db.target_count() {
            return Err(MetaCacheError::Config(format!(
                "shard plan assigns {} targets, database has {}",
                plan.assignment.len(),
                db.target_count()
            )));
        }
        // Route every bucket of every partition to the shards owning its
        // locations. Partitions visit their buckets in ascending feature
        // order, so a one-partition database streams straight into each
        // shard's location array; a feature that spans source partitions
        // (multi-device builds) is regrouped into one bucket by the builder.
        let mut builders: Vec<CondensedBuilder> = (0..plan.shard_count)
            .map(|_| CondensedBuilder::default())
            .collect();
        for partition in &db.partitions {
            partition.store.try_for_each_bucket(|feature, bucket| {
                for (shard, builder) in builders.iter_mut().enumerate() {
                    let owned = bucket
                        .iter()
                        .copied()
                        .filter(|loc| plan.assignment[loc.target as usize] == shard);
                    builder.push_bucket(feature, owned)?;
                }
                Ok::<_, MetaCacheError>(())
            })?;
        }
        let stores = builders
            .into_iter()
            .map(CondensedBuilder::finish)
            .collect::<Result<Vec<_>, _>>()?;

        let meta = Arc::new(db.metadata_view());
        let shards = stores
            .into_iter()
            .enumerate()
            .map(|(shard, store)| {
                let targets: Vec<TargetId> = plan
                    .assignment
                    .iter()
                    .enumerate()
                    .filter(|&(_, &s)| s == shard)
                    .map(|(t, _)| t as TargetId)
                    .collect();
                Arc::new(Database {
                    config: db.config,
                    targets: db.targets.clone(),
                    taxonomy: db.taxonomy.clone(),
                    lineages: db.lineages.clone(),
                    partitions: vec![Partition {
                        store: PartitionStore::Condensed(store),
                        targets,
                    }],
                })
            })
            .collect();
        Ok(Self { meta, shards, plan })
    }

    /// Split a database round-robin across `shard_count` shards.
    pub fn round_robin(db: Database, shard_count: usize) -> Result<Self, MetaCacheError> {
        let plan = ShardPlan::round_robin(db.target_count(), shard_count)?;
        Self::from_database(db, plan)
    }

    /// The table-free metadata view (full targets/taxonomy, no hash
    /// tables) — what classification decisions and serving metadata use.
    pub fn meta(&self) -> &Arc<Database> {
        &self.meta
    }

    /// The per-shard databases (full metadata, subset tables).
    pub fn shards(&self) -> &[Arc<Database>] {
        &self.shards
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The plan the database was split with.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Total bytes of all shards' hash tables.
    pub fn table_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.table_bytes()).sum()
    }
}

/// Reusable per-worker scratch for scatter-gather classification: one
/// [`QueryScratch`] shared sequentially across the shard queries plus the
/// merged candidate list.
#[derive(Debug, Clone, Default)]
pub struct ShardedScratch {
    scratch: QueryScratch,
    merged: CandidateList,
}

impl ShardedScratch {
    /// Create an empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Scatter-gather classifier over a [`ShardedDatabase`]: every read is
/// queried against all shards and the per-shard candidate lists are merged
/// before the classification rule runs once on the merged list.
///
/// Produces classifications bit-identical to
/// [`Classifier::classify_batch`] on the unsharded database (the module
/// docs give the argument; `tests/sharding.rs` the proof).
pub struct ShardedClassifier {
    db: Arc<ShardedDatabase>,
    shards: Vec<Classifier<Arc<Database>>>,
}

impl ShardedClassifier {
    /// Create a classifier over a shared sharded database.
    pub fn new(db: Arc<ShardedDatabase>) -> Self {
        let shards = db
            .shards()
            .iter()
            .map(|s| Classifier::new(Arc::clone(s)))
            .collect();
        Self { db, shards }
    }

    /// The sharded database this classifier queries.
    pub fn database(&self) -> &ShardedDatabase {
        &self.db
    }

    /// Compute the merged candidate list of one read (or read pair) into
    /// `scratch.merged`, reusing every buffer. Returns a reference to the
    /// merged list.
    pub fn candidates_with<'s>(
        &self,
        record: &SequenceRecord,
        scratch: &'s mut ShardedScratch,
    ) -> &'s CandidateList {
        scratch.merged.reset(self.db.meta.config.top_candidates);
        for shard in &self.shards {
            let list = shard.candidates_with(record, &mut scratch.scratch);
            scratch.merged.merge(list);
        }
        &scratch.merged
    }

    /// Classify one read (or read pair) reusing `scratch` — the hot path.
    pub fn classify_with(
        &self,
        record: &SequenceRecord,
        scratch: &mut ShardedScratch,
    ) -> Classification {
        self.candidates_with(record, scratch);
        classify_candidates(&self.db.meta, &self.db.meta.config, &scratch.merged)
    }

    /// Classify one read (or read pair).
    pub fn classify(&self, record: &SequenceRecord) -> Classification {
        let mut scratch = ShardedScratch::new();
        self.classify_with(record, &mut scratch)
    }

    /// Classify a batch of reads in parallel, one [`ShardedScratch`] per
    /// rayon worker — mirrors [`Classifier::classify_batch`].
    pub fn classify_batch(&self, records: &[SequenceRecord]) -> Vec<Classification> {
        records
            .par_iter()
            .map_init(ShardedScratch::new, |scratch, r| {
                self.classify_with(r, scratch)
            })
            .collect()
    }
}

/// The sharded host execution path behind the [`Backend`] trait: workers
/// scatter-gather across all shards in-process. The serving engine, the
/// streaming pipeline and the `mc-net` server drive it exactly like the
/// unsharded [`HostBackend`][crate::backend::HostBackend] — zero protocol
/// changes.
pub struct ShardedBackend {
    db: Arc<ShardedDatabase>,
}

impl ShardedBackend {
    /// Create a backend over a shared sharded database.
    pub fn new(db: Arc<ShardedDatabase>) -> Self {
        Self { db }
    }

    /// The sharded database this backend serves.
    pub fn sharded_database(&self) -> &Arc<ShardedDatabase> {
        &self.db
    }
}

impl Backend for ShardedBackend {
    fn database(&self) -> &Database {
        self.db.meta()
    }

    fn name(&self) -> &'static str {
        "sharded-host"
    }

    fn worker(&self) -> Box<dyn BackendWorker + '_> {
        Box::new(ShardedWorker {
            classifier: ShardedClassifier::new(Arc::clone(&self.db)),
            scratch: ShardedScratch::new(),
        })
    }
}

struct ShardedWorker {
    classifier: ShardedClassifier,
    scratch: ShardedScratch,
}

impl BackendWorker for ShardedWorker {
    fn classify_batch_into(&mut self, records: &[SequenceRecord], out: &mut Vec<Classification>) {
        out.extend(
            records
                .iter()
                .map(|r| self.classifier.classify_with(r, &mut self.scratch)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CpuBuilder;
    use crate::config::MetaCacheConfig;
    use mc_taxonomy::{Rank, Taxonomy};

    fn make_seq(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect()
    }

    fn four_target_db() -> (Database, Vec<Vec<u8>>) {
        let mut taxonomy = Taxonomy::with_root();
        taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
        for i in 0..4u32 {
            taxonomy
                .add_node(100 + i, 10, Rank::Species, format!("sp{i}"))
                .unwrap();
        }
        let genomes: Vec<Vec<u8>> = (0..4).map(|i| make_seq(12_000, i as u64 + 1)).collect();
        let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy);
        for (i, g) in genomes.iter().enumerate() {
            builder
                .add_target(
                    SequenceRecord::new(format!("t{i}"), g.clone()),
                    100 + i as u32,
                )
                .unwrap();
        }
        (builder.finish(), genomes)
    }

    fn reads_from(genomes: &[Vec<u8>]) -> Vec<SequenceRecord> {
        (0..32)
            .map(|i| {
                let g = &genomes[i % genomes.len()];
                SequenceRecord::new(
                    format!("r{i}"),
                    g[100 + i * 29..100 + i * 29 + 120].to_vec(),
                )
            })
            .collect()
    }

    #[test]
    fn round_robin_plan_rotates_targets() {
        let plan = ShardPlan::round_robin(5, 2).unwrap();
        assert_eq!(plan.shard_count(), 2);
        assert_eq!(plan.assignment(), &[0, 1, 0, 1, 0]);
        assert_eq!(plan.shard_of(3), Some(1));
        assert_eq!(plan.shard_of(99), None);
        assert!(ShardPlan::round_robin(5, 0).is_err());
    }

    #[test]
    fn explicit_plan_validates_assignment() {
        assert!(ShardPlan::explicit(vec![0, 1, 2], 3).is_ok());
        assert!(ShardPlan::explicit(vec![0, 3], 3).is_err());
        assert!(ShardPlan::explicit(vec![], 0).is_err());
        // Zero-target shards are allowed.
        let plan = ShardPlan::explicit(vec![0, 0, 0], 2).unwrap();
        assert_eq!(plan.shard_count(), 2);
    }

    #[test]
    fn from_database_rejects_mismatched_plan() {
        let (db, _) = four_target_db();
        let plan = ShardPlan::round_robin(3, 2).unwrap();
        assert!(ShardedDatabase::from_database(db, plan).is_err());
    }

    #[test]
    fn split_preserves_locations_and_metadata() {
        let (db, _) = four_target_db();
        let total_locations = db.total_locations();
        let targets = db.target_count();
        let sharded = ShardedDatabase::round_robin(db, 3).unwrap();
        assert_eq!(sharded.shard_count(), 3);
        // No locations are lost or duplicated by the split.
        let shard_locations: usize = sharded.shards().iter().map(|s| s.total_locations()).sum();
        assert_eq!(shard_locations, total_locations);
        // Every shard keeps the full metadata with global target ids; the
        // meta view has no tables at all.
        for shard in sharded.shards() {
            assert_eq!(shard.target_count(), targets);
            assert_eq!(shard.partition_count(), 1);
            assert_eq!(shard.partitions[0].store.kind(), "condensed");
        }
        assert_eq!(sharded.meta().target_count(), targets);
        assert_eq!(sharded.meta().partition_count(), 0);
        assert_eq!(sharded.meta().total_locations(), 0);
        assert!(sharded.table_bytes() > 0);
        // Each shard's tables only hold locations of its assigned targets.
        for (i, shard) in sharded.shards().iter().enumerate() {
            let mut locs = Vec::new();
            for p in &shard.partitions {
                if let PartitionStore::Condensed(store) = &p.store {
                    store.for_each_bucket(|_, bucket| locs.extend_from_slice(bucket));
                }
            }
            assert!(
                locs.iter()
                    .all(|l| sharded.plan().shard_of(l.target) == Some(i)),
                "shard {i} holds a foreign target's location"
            );
        }
    }

    #[test]
    fn sharded_classifier_matches_unsharded() {
        let (db, genomes) = four_target_db();
        let reads = reads_from(&genomes);
        let expected = Classifier::new(&db).classify_batch(&reads);
        for shard_count in [1usize, 2, 3, 4] {
            let (db, _) = four_target_db();
            let sharded = Arc::new(ShardedDatabase::round_robin(db, shard_count).unwrap());
            let classifier = ShardedClassifier::new(Arc::clone(&sharded));
            assert_eq!(
                classifier.classify_batch(&reads),
                expected,
                "{shard_count} shards"
            );
            // Sequential scratch reuse agrees with the batch path.
            let mut scratch = ShardedScratch::new();
            for (read, want) in reads.iter().zip(&expected) {
                assert_eq!(classifier.classify_with(read, &mut scratch), *want);
            }
        }
    }

    #[test]
    fn empty_shard_contributes_nothing() {
        let (db, genomes) = four_target_db();
        let reads = reads_from(&genomes);
        let expected = Classifier::new(&db).classify_batch(&reads);
        // Shard 1 gets no targets at all.
        let plan = ShardPlan::explicit(vec![0, 2, 0, 2], 3).unwrap();
        let sharded = Arc::new(ShardedDatabase::from_database(db, plan).unwrap());
        assert_eq!(sharded.shards()[1].total_locations(), 0);
        let classifier = ShardedClassifier::new(Arc::clone(&sharded));
        assert_eq!(classifier.classify_batch(&reads), expected);
        assert_eq!(classifier.database().shard_count(), 3);
    }

    #[test]
    fn sharded_backend_worker_matches_classify_batch() {
        let (db, genomes) = four_target_db();
        let reads = reads_from(&genomes);
        let expected = Classifier::new(&db).classify_batch(&reads);
        let (db, _) = four_target_db();
        let sharded = Arc::new(ShardedDatabase::round_robin(db, 2).unwrap());
        let backend = ShardedBackend::new(Arc::clone(&sharded));
        assert_eq!(backend.name(), "sharded-host");
        assert_eq!(backend.database().target_count(), 4);
        assert_eq!(backend.sharded_database().shard_count(), 2);
        let mut worker = backend.worker();
        let mut out = Vec::new();
        worker.classify_batch_into(&reads[..13], &mut out);
        worker.classify_batch_into(&reads[13..], &mut out);
        assert_eq!(out, expected);
    }
}
