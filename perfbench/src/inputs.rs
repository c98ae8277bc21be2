//! Workload inputs, all derived from the workload seed through
//! `mc_datagen`: reference collections, genomes absent from the database,
//! the mixed read set, and the reference-set updates of live reloads.

use std::io::Write as _;
use std::path::Path;

use mc_datagen::community::{AfsLikeSpec, RefSeqLikeSpec, ReferenceCollection};
use mc_datagen::profiles::DatasetProfile;
use mc_datagen::reads::ReadSimulator;
use mc_datagen::taxonomy_gen::TaxonomySpec;
use mc_seqio::{SeqIoError, SequenceRecord};
use mc_taxonomy::{Rank, TaxonId, ROOT_TAXON};
use metacache::build::CpuBuilder;
use metacache::{Database, DatabaseDelta, MetaCacheConfig};

use crate::util::{derive_seed, Json};

/// Shape of a synthetic reference set: a RefSeq-like part (many small
/// genomes) plus an AFS-like part (large scaffolded food genomes, the
/// source of the KAL_D-like paired reads).
#[derive(Clone, Copy, Debug)]
pub struct RefShape {
    pub genera: usize,
    pub species_per_genus: usize,
    pub genome_length: usize,
    pub afs_genomes: usize,
    pub afs_length: usize,
    pub afs_scaffolds: usize,
}

/// Read counts per source. `off_reference` reads come from genomes that
/// are not in the database; `paired` reads are KAL_D-like pairs.
#[derive(Clone, Copy, Debug)]
pub struct ReadMix {
    pub hiseq: usize,
    pub miseq: usize,
    pub paired: usize,
    pub off_reference: usize,
}

impl ReadMix {
    pub fn total(&self) -> usize {
        self.hiseq + self.miseq + self.paired + self.off_reference
    }

    pub fn json(&self) -> Json {
        let total = self.total() as f64;
        Json::obj()
            .int("reads", self.total() as u64)
            .int("hiseq_like", self.hiseq as u64)
            .int("miseq_like", self.miseq as u64)
            .int("kal_d_like_pairs", self.paired as u64)
            .int("off_reference", self.off_reference as u64)
            .num("off_reference_share", self.off_reference as f64 / total)
            .num("paired_share", self.paired as f64 / total)
    }
}

/// The reference collection of a workload.
pub fn references(seed: u64, shape: RefShape) -> ReferenceCollection {
    ReferenceCollection::refseq_like(RefSeqLikeSpec {
        taxonomy: TaxonomySpec {
            genera: shape.genera,
            species_per_genus: shape.species_per_genus,
            families: shape.genera.div_ceil(4).max(1),
        },
        genome_length: shape.genome_length,
        strains_per_species: 1,
        seed: derive_seed(seed, 1),
    })
    .with_afs_like(AfsLikeSpec {
        genomes: shape.afs_genomes,
        genome_length: shape.afs_length,
        scaffolds_per_genome: shape.afs_scaffolds,
        seed: derive_seed(seed, 2),
    })
}

/// `genomes` (even) genomes that are not in the database: the source of
/// off-reference reads (they exercise the lookup miss path) and of the
/// reference-set updates.
pub fn absent_genomes(seed: u64, genomes: usize, genome_length: usize) -> ReferenceCollection {
    ReferenceCollection::refseq_like(RefSeqLikeSpec {
        taxonomy: TaxonomySpec {
            genera: genomes / 2,
            species_per_genus: 2,
            families: 1,
        },
        genome_length,
        strains_per_species: 1,
        seed: derive_seed(seed, 3),
    })
}

/// The mixed read set, shuffled deterministically. Single reads carry ids
/// `r<i>`; pairs carry `r<i>/1` with a mate `r<i>/2`, which is how they
/// are written to an interleaved FASTQ file.
pub fn read_mix(
    seed: u64,
    refs: &ReferenceCollection,
    absent: &ReferenceCollection,
    mix: ReadMix,
) -> Vec<SequenceRecord> {
    let mut food: Vec<TaxonId> = refs
        .targets
        .iter()
        .map(|t| t.taxon)
        .filter(|t| *t >= 600_000)
        .collect();
    food.sort_unstable();
    food.dedup();
    // KAL_D sausage ratios (beef, pork, horse, mutton), renormalised to the
    // food species present.
    let ratios = [0.50, 0.25, 0.15, 0.10];
    let total: f64 = ratios.iter().take(food.len()).sum();
    let abundance: Vec<(TaxonId, f64)> = food
        .iter()
        .zip(ratios)
        .map(|(t, r)| (*t, r / total))
        .collect();

    let mut reads = Vec::with_capacity(mix.total());
    let sets = [
        ReadSimulator::new(DatasetProfile::hiseq(), mix.hiseq)
            .with_seed(derive_seed(seed, 10))
            .simulate(refs),
        ReadSimulator::new(DatasetProfile::miseq(), mix.miseq)
            .with_seed(derive_seed(seed, 11))
            .simulate(refs),
        ReadSimulator::new(DatasetProfile::kal_d(), mix.paired)
            .with_seed(derive_seed(seed, 12))
            .with_abundance(abundance)
            .simulate(refs),
        ReadSimulator::new(DatasetProfile::hiseq(), mix.off_reference)
            .with_seed(derive_seed(seed, 13))
            .simulate(absent),
    ];
    for set in sets {
        reads.extend(set.reads);
    }
    // Fisher-Yates with the workload seed.
    let mut state = derive_seed(seed, 14);
    for i in (1..reads.len()).rev() {
        state = derive_seed(state, i as u64);
        reads.swap(i, (state % (i as u64 + 1)) as usize);
    }
    reads
        .into_iter()
        .enumerate()
        .map(|(i, r)| normalise(i, r))
        .collect()
}

/// Give every read a compact id and a quality string, so the in-memory
/// record equals what parsing the written FASTQ file yields.
fn normalise(index: usize, read: SequenceRecord) -> SequenceRecord {
    let quality = |len: usize| vec![b'I'; len];
    match read.mate {
        Some(mate) => {
            let m = *mate;
            SequenceRecord::with_quality(
                format!("r{index}/1"),
                read.sequence.clone(),
                quality(read.sequence.len()),
            )
            .with_mate(SequenceRecord::with_quality(
                format!("r{index}/2"),
                m.sequence.clone(),
                quality(m.sequence.len()),
            ))
        }
        None => SequenceRecord::with_quality(
            format!("r{index}"),
            read.sequence.clone(),
            quality(read.sequence.len()),
        ),
    }
}

/// Write reads as one interleaved FASTQ file (mates follow their first
/// read).
pub fn write_interleaved(path: &Path, reads: &[SequenceRecord]) -> std::io::Result<u64> {
    let mut flat = Vec::with_capacity(reads.len() * 2);
    for r in reads {
        let mut first = r.clone();
        let mate = first.mate.take();
        flat.push(first);
        if let Some(m) = mate {
            flat.push(*m);
        }
    }
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    mc_seqio::fastq::write(&mut out, &flat).map_err(|e| std::io::Error::other(e.to_string()))?;
    out.flush()?;
    Ok(std::fs::metadata(path)?.len())
}

/// Pair consecutive `/1`, `/2` records of an interleaved stream.
pub struct Interleaved<I> {
    inner: I,
}

impl<I> Interleaved<I> {
    pub fn new(inner: I) -> Self {
        Self { inner }
    }
}

impl<I> Iterator for Interleaved<I>
where
    I: Iterator<Item = Result<SequenceRecord, SeqIoError>>,
{
    type Item = Result<SequenceRecord, SeqIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        let first = match self.inner.next()? {
            Ok(r) => r,
            Err(e) => return Some(Err(e)),
        };
        if !first.id().ends_with("/1") {
            return Some(Ok(first));
        }
        Some(match self.inner.next() {
            Some(Ok(mate)) => Ok(first.with_mate(mate)),
            Some(Err(e)) => Err(e),
            None => Err(SeqIoError::Parse(format!("{}: mate missing", first.id()))),
        })
    }
}

/// Open an interleaved FASTQ file as a stream of (paired) records.
pub fn open_interleaved(path: &Path) -> Result<Interleaved<mc_seqio::RecordStream>, SeqIoError> {
    Ok(Interleaved::new(mc_seqio::SequenceReader::open(path)?))
}

/// Build the host-table database of a reference collection, as
/// `mc-serve serve` does.
pub fn build(refs: &ReferenceCollection) -> Database {
    let mut builder = CpuBuilder::new(MetaCacheConfig::default(), refs.taxonomy.clone());
    for target in &refs.targets {
        builder
            .add_target(target.to_record(), target.taxon)
            .expect("generated targets are valid");
    }
    builder.finish()
}

/// Taxon id of the first species a reference-set update adds; far above
/// every id the generated taxonomies use.
const UPDATE_TAXON_BASE: TaxonId = 900_000;

/// The reference-set updates of live reloads, in publication order: update
/// `u` adds absent genomes `u * per_update ..` as new targets, each under a
/// new species taxon. Generation `g` is the base database plus updates
/// `0..g`, so every update turns the off-reference reads drawn from its
/// genomes into hits and the generations' oracles differ on those reads.
pub fn update_deltas(absent: &ReferenceCollection, per_update: usize) -> Vec<DatabaseDelta> {
    absent
        .targets
        .chunks(per_update)
        .enumerate()
        .map(|(u, genomes)| {
            let mut delta = DatabaseDelta::new();
            for (j, genome) in genomes.iter().enumerate() {
                let k = u * per_update + j;
                let taxon = UPDATE_TAXON_BASE + k as TaxonId;
                let name = format!("update_{k}");
                delta.add_taxon(taxon, ROOT_TAXON, Rank::Species, name.as_str());
                delta.add_target(SequenceRecord::new(name, genome.sequence.clone()), taxon);
            }
            delta
        })
        .collect()
}

/// Total bases of a reference collection, in megabases.
pub fn mbases(refs: &ReferenceCollection) -> f64 {
    refs.total_bases() as f64 / 1e6
}
