//! Database serialization: the `.meta` / `.cache` file layout.
//!
//! "After database construction has finished, the taxonomic meta information
//! as well as the hash table are written to the file system" (§4.1), and on
//! load "a condensed form of the hash table is used where all buckets of
//! target locations are loaded into one large contiguous array" (§4.2).
//! Figure 2 names the files `database.meta` (metadata), `database.cache0`,
//! `database.cache1`, … (one per partition). We keep exactly that layout:
//!
//! * `<name>.meta` — JSON: configuration, target table, taxonomy,
//! * `<name>.cache<i>` — binary: for every feature of partition `i`, the
//!   feature, its bucket length and the packed locations.

use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use mc_kmer::{Feature, Location};
use mc_taxonomy::Taxonomy;

use crate::config::MetaCacheConfig;
use crate::database::{CondensedStore, Database, Partition, PartitionStore, TargetInfo};
use crate::error::MetaCacheError;

/// Magic bytes at the start of every `.cache` partition file.
const CACHE_MAGIC: &[u8; 8] = b"MCCACHE1";

/// The JSON metadata stored in `<name>.meta`.
#[derive(Debug, Serialize, Deserialize)]
struct MetaFile {
    config: MetaCacheConfig,
    targets: Vec<TargetInfo>,
    taxonomy: Taxonomy,
    partition_targets: Vec<Vec<u32>>,
    partition_count: usize,
}

/// Report of a completed save: file paths and sizes (the "DB size" column of
/// Table 3 is the sum of these sizes).
#[derive(Debug, Clone, Default)]
pub struct SaveReport {
    /// Paths of all written files (`.meta` first).
    pub files: Vec<PathBuf>,
    /// Total bytes written.
    pub total_bytes: u64,
}

/// Save a database into `dir` under the base name `name`.
pub fn save(
    db: &Database,
    dir: impl AsRef<Path>,
    name: &str,
) -> Result<SaveReport, MetaCacheError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let mut report = SaveReport::default();

    // Metadata file.
    let meta = MetaFile {
        config: db.config,
        targets: db.targets.clone(),
        taxonomy: db.taxonomy.clone(),
        partition_targets: db.partitions.iter().map(|p| p.targets.clone()).collect(),
        partition_count: db.partitions.len(),
    };
    let meta_path = dir.join(format!("{name}.meta"));
    let meta_json = serde_json::to_vec(&meta)
        .map_err(|e| MetaCacheError::Format(format!("metadata serialization failed: {e}")))?;
    std::fs::write(&meta_path, &meta_json)?;
    report.total_bytes += meta_json.len() as u64;
    report.files.push(meta_path);

    // One cache file per partition.
    for (i, partition) in db.partitions.iter().enumerate() {
        let path = dir.join(format!("{name}.cache{i}"));
        let file = std::fs::File::create(&path)?;
        let mut writer = BufWriter::new(file);
        writer.write_all(CACHE_MAGIC)?;
        let buckets = collect_buckets(partition);
        writer.write_all(&(buckets.len() as u64).to_le_bytes())?;
        let mut bytes_written = 16u64;
        for (feature, bucket) in buckets {
            writer.write_all(&feature.to_le_bytes())?;
            writer.write_all(&(bucket.len() as u32).to_le_bytes())?;
            bytes_written += 8;
            for loc in bucket {
                writer.write_all(&loc.pack().to_le_bytes())?;
                bytes_written += 8;
            }
        }
        writer.flush()?;
        report.total_bytes += bytes_written;
        report.files.push(path);
    }
    Ok(report)
}

/// Extract every (feature, bucket) pair of a partition, regardless of its
/// back-end table type. Shared with the sharding splitter
/// ([`crate::shard::ShardedDatabase::from_database`]).
pub(crate) fn collect_buckets(partition: &Partition) -> Vec<(Feature, Vec<Location>)> {
    match &partition.store {
        PartitionStore::Host(table) => {
            let mut out = Vec::new();
            table.for_each_bucket(|feature, bucket| out.push((feature, bucket.to_vec())));
            out.sort_by_key(|(f, _)| *f);
            out
        }
        PartitionStore::MultiBucket(table) => {
            // The multi-bucket table has no bucket iterator (slots of one key
            // are scattered); rebuild buckets by querying every distinct
            // feature found in a full scan via the FeatureStore interface.
            // To avoid adding a scan API only for serialization we recover the
            // features from the partition's stored locations through the
            // targets: this information is not tracked, so instead we walk the
            // feature space lazily — in practice the GPU pipeline serialises
            // through `to_condensed`, which snapshots insertions. Here we fall
            // back to a direct export provided by the table.
            table_export(table)
        }
        PartitionStore::Condensed(store) => {
            let mut out = Vec::new();
            store.for_each_bucket(|feature, bucket| out.push((feature, bucket.to_vec())));
            out.sort_by_key(|(f, _)| *f);
            out
        }
    }
}

/// Export every (feature, bucket) pair of a multi-bucket table by scanning
/// its slots.
fn table_export(table: &mc_warpcore::MultiBucketHashTable) -> Vec<(Feature, Vec<Location>)> {
    let mut out: std::collections::BTreeMap<Feature, Vec<Location>> = Default::default();
    table.for_each_slot(|feature, locations| {
        out.entry(feature).or_default().extend_from_slice(locations);
    });
    out.into_iter().collect()
}

/// Load a database saved with [`save`]. All partitions are loaded into the
/// condensed read-only layout of §4.2.
///
/// The database is returned behind an [`Arc`]: a loaded database is the
/// shared, read-only artefact the serving stack multiplexes over
/// (classifiers, backends and the [`crate::serving::ServingEngine`] all
/// co-own it), so ownership starts shared at the load boundary.
pub fn load(dir: impl AsRef<Path>, name: &str) -> Result<Arc<Database>, MetaCacheError> {
    let dir = dir.as_ref();
    let meta_path = dir.join(format!("{name}.meta"));
    let meta_json = std::fs::read(&meta_path)?;
    let meta: MetaFile = serde_json::from_slice(&meta_json)
        .map_err(|e| MetaCacheError::Format(format!("metadata parse error: {e}")))?;

    // Every saved partition has a target list, so the reservation is
    // bounded by what the metadata file actually holds; a corrupt count
    // past it fails when its cache file is missing.
    let mut partitions = Vec::with_capacity(meta.partition_count.min(meta.partition_targets.len()));
    for i in 0..meta.partition_count {
        let path = dir.join(format!("{name}.cache{i}"));
        let file = std::fs::File::open(&path)?;
        // Bytes not yet read: every count below is checked against it
        // before anything is reserved, so a corrupt length is a format
        // error instead of an allocation the process cannot survive.
        let mut left = file.metadata()?.len().saturating_sub(16);
        let corrupt = |what: String| {
            MetaCacheError::Format(format!("{}: {what} exceeds the file size", path.display()))
        };
        let mut reader = BufReader::new(file);
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != CACHE_MAGIC {
            return Err(MetaCacheError::Format(format!(
                "{} is not a MetaCache cache file",
                path.display()
            )));
        }
        let mut count_bytes = [0u8; 8];
        reader.read_exact(&mut count_bytes)?;
        let bucket_count = u64::from_le_bytes(count_bytes);
        // Each bucket takes at least its 8-byte feature + length header.
        if bucket_count > left / 8 {
            return Err(corrupt(format!("bucket count {bucket_count}")));
        }
        let mut buckets = Vec::with_capacity(bucket_count as usize);
        for _ in 0..bucket_count {
            let mut feature_bytes = [0u8; 4];
            reader.read_exact(&mut feature_bytes)?;
            let feature = Feature::from_le_bytes(feature_bytes);
            let mut len_bytes = [0u8; 4];
            reader.read_exact(&mut len_bytes)?;
            let len = u32::from_le_bytes(len_bytes);
            // Each location takes exactly 8 bytes.
            left = left.saturating_sub(8);
            if u64::from(len) > left / 8 {
                return Err(corrupt(format!("bucket length {len}")));
            }
            left -= 8 * u64::from(len);
            let mut bucket = Vec::with_capacity(len as usize);
            for _ in 0..len {
                let mut loc_bytes = [0u8; 8];
                reader.read_exact(&mut loc_bytes)?;
                bucket.push(Location::unpack(u64::from_le_bytes(loc_bytes)));
            }
            buckets.push((feature, bucket));
        }
        partitions.push(Partition {
            store: PartitionStore::Condensed(CondensedStore::from_buckets(buckets)),
            targets: meta.partition_targets.get(i).cloned().unwrap_or_default(),
        });
    }

    let lineages = meta.taxonomy.lineage_cache();
    Ok(Arc::new(Database {
        config: meta.config,
        targets: meta.targets,
        taxonomy: meta.taxonomy,
        lineages,
        partitions,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::CpuBuilder;
    use crate::query::Classifier;
    use mc_seqio::SequenceRecord;
    use mc_taxonomy::Rank;

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

    fn build_db() -> (Database, Vec<u8>) {
        let mut taxonomy = Taxonomy::with_root();
        taxonomy.add_node(10, 1, Rank::Genus, "G").unwrap();
        taxonomy.add_node(100, 10, Rank::Species, "G a").unwrap();
        taxonomy.add_node(101, 10, Rank::Species, "G b").unwrap();
        let genome_a = make_seq(12_000, 1);
        let mut builder = CpuBuilder::new(MetaCacheConfig::for_tests(), taxonomy);
        builder
            .add_target(SequenceRecord::new("a", genome_a.clone()), 100)
            .unwrap();
        builder
            .add_target(SequenceRecord::new("b", make_seq(9_000, 2)), 101)
            .unwrap();
        (builder.finish(), genome_a)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("metacache_serialize_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_creates_meta_and_cache_files() {
        let (db, _) = build_db();
        let dir = temp_dir("save");
        let report = save(&db, &dir, "testdb").unwrap();
        assert_eq!(report.files.len(), 1 + db.partition_count());
        assert!(report.files[0].ends_with("testdb.meta"));
        assert!(report.total_bytes > 1000);
        for f in &report.files {
            assert!(f.exists());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roundtrip_preserves_classification_behaviour() {
        let (db, genome_a) = build_db();
        let dir = temp_dir("roundtrip");
        save(&db, &dir, "db").unwrap();
        let loaded = load(&dir, "db").unwrap();
        assert_eq!(loaded.target_count(), db.target_count());
        assert_eq!(loaded.total_locations(), db.total_locations());
        assert_eq!(loaded.partitions[0].store.kind(), "condensed");
        assert_eq!(loaded.taxonomy.len(), db.taxonomy.len());

        // Classifications must be identical between the in-memory (OTF) and
        // the loaded (condensed) database.
        let original = Classifier::new(&db);
        let reloaded = Classifier::new(Arc::clone(&loaded));
        for offset in [100usize, 2_000, 7_333] {
            let read = SequenceRecord::new("r", genome_a[offset..offset + 120].to_vec());
            assert_eq!(original.classify(&read), reloaded.classify(&read));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loading_missing_or_corrupt_files_errors() {
        let dir = temp_dir("corrupt");
        assert!(load(&dir, "missing").is_err());
        // Write a meta file with a partition whose cache file is garbage.
        let (db, _) = build_db();
        save(&db, &dir, "bad").unwrap();
        let cache = dir.join("bad.cache0");
        let valid = std::fs::read(&cache).unwrap();
        std::fs::write(&cache, b"not a cache file").unwrap();
        assert!(matches!(
            load(&dir, "bad"),
            Err(MetaCacheError::Format(_)) | Err(MetaCacheError::Io(_))
        ));
        // A bucket count the file cannot hold — reserving it up front
        // would abort the process — …
        let mut huge_count = valid.clone();
        huge_count[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        std::fs::write(&cache, &huge_count).unwrap();
        assert!(matches!(load(&dir, "bad"), Err(MetaCacheError::Format(_))));
        // … and a first bucket whose locations run past the end of file.
        let mut long_bucket = valid;
        let past_eof = (long_bucket.len() as u32 - 24) / 8 + 1;
        long_bucket[20..24].copy_from_slice(&past_eof.to_le_bytes());
        std::fs::write(&cache, &long_bucket).unwrap();
        assert!(matches!(load(&dir, "bad"), Err(MetaCacheError::Format(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
