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

use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use mc_kmer::{Feature, Location};
use mc_taxonomy::Taxonomy;

use crate::config::MetaCacheConfig;
use crate::database::{
    CondensedBuilder, CondensedStore, Database, Partition, PartitionStore, TargetInfo,
};
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

    // One cache file per partition; the bucket count is written once all
    // buckets are.
    for (i, partition) in db.partitions.iter().enumerate() {
        let path = dir.join(format!("{name}.cache{i}"));
        let mut writer = BufWriter::new(std::fs::File::create(&path)?);
        writer.write_all(CACHE_MAGIC)?;
        writer.write_all(&0u64.to_le_bytes())?;
        let (mut buckets, mut bytes_written) = (0u64, 16u64);
        partition.store.try_for_each_bucket(|feature, bucket| {
            buckets += 1;
            bytes_written += 8 + 8 * bucket.len() as u64;
            write_bucket(&mut writer, feature, bucket)
        })?;
        writer.seek(SeekFrom::Start(CACHE_MAGIC.len() as u64))?;
        writer.write_all(&buckets.to_le_bytes())?;
        writer.flush()?;
        report.total_bytes += bytes_written;
        report.files.push(path);
    }
    Ok(report)
}

/// Write one bucket: its feature, its length and the packed locations.
fn write_bucket(
    writer: &mut impl Write,
    feature: Feature,
    bucket: &[Location],
) -> std::io::Result<()> {
    writer.write_all(&feature.to_le_bytes())?;
    writer.write_all(&(bucket.len() as u32).to_le_bytes())?;
    for loc in bucket {
        writer.write_all(&loc.pack().to_le_bytes())?;
    }
    Ok(())
}

/// Load a database saved with [`save`]. All partitions are loaded into the
/// condensed read-only layout of §4.2, streamed from each `.cache` file
/// straight into the one location array and the index.
///
/// The files are untrusted input: a count the file cannot hold, a bucket
/// that is empty or longer than `max_locations_per_feature`, features out
/// of strictly ascending order (what [`save`] writes) or a location of an
/// unknown target is a [`MetaCacheError::Format`] error, never a panic.
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
        let store = load_partition(&path, &meta)?;
        partitions.push(Partition {
            store: PartitionStore::Condensed(store),
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

/// Stream one `.cache` file into a condensed store, validating as it goes.
fn load_partition(path: &Path, meta: &MetaFile) -> Result<CondensedStore, MetaCacheError> {
    let corrupt = |what: String| MetaCacheError::Format(format!("{}: {what}", path.display()));
    let file = std::fs::File::open(path)?;
    // Bytes after the 16-byte header: every count below is checked against
    // them before anything is reserved, so a corrupt length is a format
    // error instead of an allocation the process cannot survive.
    let mut left = file.metadata()?.len().saturating_sub(16);
    let mut reader = BufReader::with_capacity(1 << 20, file);
    let mut header = [0u8; 16];
    reader.read_exact(&mut header)?;
    if &header[..8] != CACHE_MAGIC {
        return Err(corrupt("not a MetaCache cache file".into()));
    }
    let bucket_count = u64::from_le_bytes(header[8..].try_into().expect("8 bytes"));
    // Each bucket takes at least its 8-byte feature + length header, and
    // each location exactly 8 bytes.
    if bucket_count > left / 8 {
        return Err(corrupt(format!(
            "bucket count {bucket_count} exceeds the file size"
        )));
    }
    let locations = (left - 8 * bucket_count) / 8;
    let mut builder = CondensedBuilder::with_capacity(bucket_count as usize, locations as usize);
    let max_len = meta.config.max_locations_per_feature;
    let target_count = meta.targets.len();
    let mut previous: Option<Feature> = None;
    let mut bytes = Vec::with_capacity(8 * max_len.min(locations as usize));
    for _ in 0..bucket_count {
        let mut bucket_header = [0u8; 8];
        reader.read_exact(&mut bucket_header)?;
        let feature = Feature::from_le_bytes(bucket_header[..4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(bucket_header[4..].try_into().expect("4 bytes"));
        left = left.saturating_sub(8);
        if u64::from(len) > left / 8 {
            return Err(corrupt(format!(
                "bucket length {len} exceeds the file size"
            )));
        }
        if len == 0 || len as usize > max_len {
            return Err(corrupt(format!(
                "feature {feature} has {len} locations, outside 1..={max_len}"
            )));
        }
        if previous.is_some_and(|p| p >= feature) {
            return Err(corrupt(format!(
                "feature {feature} is out of ascending order"
            )));
        }
        previous = Some(feature);
        left -= 8 * u64::from(len);
        bytes.resize(8 * len as usize, 0);
        reader.read_exact(&mut bytes)?;
        let bucket = bytes
            .chunks_exact(8)
            .map(|b| Location::unpack(u64::from_le_bytes(b.try_into().expect("8 bytes"))));
        if let Some(bad) = bucket.clone().find(|l| l.target as usize >= target_count) {
            return Err(corrupt(format!(
                "feature {feature} locates target {}, but there are {target_count} targets",
                bad.target
            )));
        }
        builder.push_bucket(feature, bucket)?;
    }
    builder.finish()
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
    fn gpu_built_hot_feature_roundtrips() {
        // A repetitive reference puts some features in far more windows
        // than the cap. The multi-bucket table may store a few values past
        // the cap (it checks whole slots), but only the capped answer may
        // be saved: the loader rejects longer buckets.
        let system = mc_gpu_sim::MultiGpuSystem::dgx1(1);
        let config = MetaCacheConfig::for_tests();
        let repetitive: Vec<u8> = make_seq(500, 3)
            .iter()
            .cycle()
            .take(200_000)
            .copied()
            .collect();
        let records = vec![SequenceRecord::new("rep", repetitive)];
        let expected = crate::build::estimate_locations(&config, &records);
        let (db, _) = build_db();
        let mut builder =
            crate::build::GpuBuilder::new(config, db.taxonomy.clone(), &system, expected).unwrap();
        builder.add_records(records, |_| 100).unwrap();
        let db = builder.finish();
        let PartitionStore::MultiBucket(table) = &db.partitions[0].store else {
            panic!("a GPU build yields multi-bucket partitions");
        };
        let mut stored = std::collections::BTreeMap::<Feature, usize>::new();
        table.for_each_slot(|feature, bucket| *stored.entry(feature).or_default() += bucket.len());
        assert!(
            stored
                .values()
                .any(|&n| n > config.max_locations_per_feature),
            "the reference must overfill some key"
        );

        let dir = temp_dir("gpu_hot");
        save(&db, &dir, "db").unwrap();
        let loaded = load(&dir, "db").unwrap();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for &feature in stored.keys() {
            want.clear();
            got.clear();
            db.partitions[0].query_into(feature, &mut want);
            loaded.partitions[0].query_into(feature, &mut got);
            assert!(want.len() <= config.max_locations_per_feature);
            assert_eq!(want, got, "feature {feature}");
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
        let mut long_bucket = valid.clone();
        let past_eof = (long_bucket.len() as u32 - 24) / 8 + 1;
        long_bucket[20..24].copy_from_slice(&past_eof.to_le_bytes());
        std::fs::write(&cache, &long_bucket).unwrap();
        assert!(matches!(load(&dir, "bad"), Err(MetaCacheError::Format(_))));
        // Data the file can hold but the index must not represent: an
        // empty bucket, one longer than the per-feature cap, a feature out
        // of ascending order and a location of an unknown target.
        let first_len = u32::from_le_bytes(valid[20..24].try_into().unwrap()) as usize;
        let second = 24 + 8 * first_len;
        let cap = db.config.max_locations_per_feature as u32;
        let corruptions: [(usize, [u8; 4]); 4] = [
            (20, 0u32.to_le_bytes()),
            (20, (cap + 1).to_le_bytes()),
            (second, valid[16..20].try_into().unwrap()),
            (28, (db.target_count() as u32).to_le_bytes()),
        ];
        for (at, bytes) in corruptions {
            let mut bad = valid.clone();
            bad[at..at + 4].copy_from_slice(&bytes);
            std::fs::write(&cache, &bad).unwrap();
            assert!(
                matches!(load(&dir, "bad"), Err(MetaCacheError::Format(_))),
                "bytes {at}.. = {bytes:?} were accepted"
            );
        }
        std::fs::write(&cache, &valid).unwrap();
        assert!(load(&dir, "bad").is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
