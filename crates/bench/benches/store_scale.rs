//! Persistence at survey scale: the binary store format against the XML
//! interchange baseline over a 10,000-function corpus
//! (`SurveyConfig::scaled(10_000)` through the fast profile generator).
//!
//! * `snapshot_write` — full binary exploration snapshot to disk;
//! * `binary_load`    — format-sniffing load of that snapshot;
//! * `profile_load`   — format-sniffing load of the corpus's binary profile
//!   store snapshot (the warm-start decode), checked against the saved store;
//! * `xml_write`      — the same store serialized as XML (baseline);
//! * `xml_load`       — format-sniffing load of the XML file (baseline);
//! * `delta_append`   — one O(delta) journal append (a 32-cell batch);
//! * `fold_delta`     — applying that delta to the store: the per-delta
//!   cost of recovering a journal;
//! * `compact`        — rewriting the journal as one fresh snapshot;
//! * `fabric_ack_append` — per 8-cell lease of a journaled 10k-cell fabric
//!   job on one worker: its no-op cases, the scheduler ack, the delta
//!   append, and the compactions amortized over the leases between them;
//! * `fabric_recover` — opening and recovering that job's journal with 32
//!   appended 8-cell leases into a fabric.
//!
//! CI gates the two tentpole ratios: `binary_load * 5 <= xml_load` (binary
//! decode beats XML parse by 5x) and `delta_append * 10 <= snapshot_write`
//! (incremental checkpoints are at least 10x cheaper than full snapshots).

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lfi_controller::FnWorkload;
use lfi_corpus::{survey_profiles, SurveyConfig};
use lfi_explore::{ExplorationDelta, ExplorationStore, FrontierCell, FunctionCoverage};
use lfi_fabric::{Fabric, JobSpec, JobState};
use lfi_intern::Symbol;
use lfi_profile::{ProfileKey, ProfileStore};
use lfi_runtime::{ExitStatus, Process};
use lfi_scenario::{FaultCell, Plan};
use lfi_store::{load_exploration, load_profile_store, save_exploration, save_profile_store, Journal};

const CORPUS_FUNCTIONS: usize = 10_000;
const DELTA_BATCH: usize = 32;
/// The fabric benches' job size, lease size and journaled leases.
const FABRIC_CELLS: usize = 10_000;
const FABRIC_LEASE: usize = 8;
const FABRIC_RECORDS: usize = 32;
/// An exploration store shaped like a campaign over the scaled survey
/// corpus: one frontier cell per profiled function, coverage entries for a
/// quarter of them.
fn survey_exploration_store() -> ExplorationStore {
    let profiles = survey_profiles(SurveyConfig::scaled(CORPUS_FUNCTIONS));
    let mut frontier = Vec::new();
    let mut coverage = Vec::new();
    for profile in &profiles {
        for (index, function) in profile.functions.iter().enumerate() {
            let symbol = Symbol::intern(&function.name);
            let retval = function.error_returns.first().map_or(-1, |e| e.retval);
            frontier.push(FrontierCell {
                cell: FaultCell { function: symbol, call_ordinal: 1, retval, errno: Some(5) },
                priority: (index % 7) as i32 - 3,
            });
            if index % 4 == 0 {
                coverage.push((
                    symbol,
                    FunctionCoverage {
                        observed_calls: 1 + index as u64 % 9,
                        triggered: [(1u64, retval, Some(5i64))].into_iter().collect(),
                    },
                ));
            }
        }
    }
    let universe = frontier.len();
    ExplorationStore {
        seed: 2009,
        batch_size: DELTA_BATCH,
        parallelism: 4,
        halt_on_crash: false,
        case_budget: None,
        injection_budget: None,
        universe,
        batch_index: 12,
        rng_draws: 4096,
        probe_done: true,
        crash_found: false,
        cases_executed: 3000,
        injections_performed: 2500,
        frontier,
        executed: Vec::new(),
        unreached: Vec::new(),
        pruned_functions: Vec::new(),
        coverage,
        clusters: Vec::new(),
    }
}

/// The scaled survey corpus's profiles as a profile store, one entry per
/// library.
fn survey_profile_store() -> ProfileStore {
    let store = ProfileStore::new();
    for (index, profile) in survey_profiles(SurveyConfig::scaled(CORPUS_FUNCTIONS)).into_iter().enumerate() {
        store.insert(ProfileKey::new(profile.library.clone(), profile.platform.clone(), index as u64), profile);
    }
    store
}

/// One batch's delta against the big store: `DELTA_BATCH` cells leave the
/// frontier and land in `executed`, one coverage entry is touched.  Deltas
/// carry absolute values, so re-applying the same delta each iteration is
/// idempotent — exactly what the append benchmark wants.
fn one_batch_delta(store: &ExplorationStore) -> ExplorationDelta {
    let mut executed: Vec<FaultCell> = store.frontier.iter().take(DELTA_BATCH).map(|f| f.cell).collect();
    executed.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    ExplorationDelta {
        batch_index: store.batch_index + 1,
        rng_draws: store.rng_draws + 64,
        probe_done: true,
        crash_found: false,
        cases_executed: store.cases_executed + DELTA_BATCH as u64,
        injections_performed: store.injections_performed + DELTA_BATCH as u64,
        frontier_upsert: Vec::new(),
        executed,
        unreached: Vec::new(),
        pruned_functions: Vec::new(),
        coverage: store.coverage.first().cloned().into_iter().collect(),
        clusters: Vec::new(),
    }
}

/// The fabric job the two journal benches run: the survey store's cells at
/// call ordinals 1 and 2, the first [`FABRIC_CELLS`] of them, in leases of
/// [`FABRIC_LEASE`].
fn fabric_spec(store: &ExplorationStore) -> JobSpec {
    let plan = store
        .frontier
        .iter()
        .flat_map(|entry| [entry.cell, FaultCell { call_ordinal: 2, ..entry.cell }])
        .fold(Plan::new(), |plan, cell| plan.entry(cell.plan_entry()));
    JobSpec::new("survey", "noop", plan).max_cases(FABRIC_CELLS).lease_batch(FABRIC_LEASE)
}

/// A fabric over the no-op workload: every case is as cheap as a case gets,
/// so what a lease costs beyond its cases is the ack path.
fn noop_fabric(workers: usize) -> Fabric {
    Fabric::builder()
        .workers(workers)
        .register(FnWorkload::new("noop", Process::new, |_| ExitStatus::Exited(0)))
        .build()
}

/// One journaled lease: the delta the fabric appends once `cells` ran
/// clean with no injection fired, `done` cells having run before them.
fn lease_delta(cells: &[FaultCell], done: usize) -> ExplorationDelta {
    let mut coverage: Vec<(Symbol, FunctionCoverage)> =
        cells.iter().map(|cell| (cell.function, FunctionCoverage::default())).collect();
    coverage.dedup_by_key(|(function, _)| *function);
    ExplorationDelta {
        probe_done: true,
        cases_executed: (done + cells.len()) as u64,
        executed: cells.to_vec(),
        coverage,
        ..ExplorationDelta::default()
    }
}

fn bench_store_scale(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("lfi-store-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let store = survey_exploration_store();
    assert!(store.universe >= CORPUS_FUNCTIONS * 7 / 10, "scaled survey keeps its non-void majority");
    let delta = one_batch_delta(&store);

    let binary_path = dir.join("survey.lfis");
    let xml_path = dir.join("survey.xml");
    save_exploration(&binary_path, &store).unwrap();
    std::fs::write(&xml_path, store.to_xml()).unwrap();

    let mut group = c.benchmark_group("store_scale");
    group.sample_size(10);

    group.bench_function("snapshot_write", |b| {
        let path = dir.join("write.lfis");
        b.iter(|| {
            save_exploration(&path, black_box(&store)).unwrap();
            black_box(())
        })
    });

    group.bench_function("binary_load", |b| {
        b.iter(|| {
            let loaded = load_exploration(black_box(&binary_path)).unwrap();
            assert_eq!(loaded.universe, store.universe);
            black_box(loaded)
        })
    });

    let profiles = survey_profile_store();
    let profiles_path = dir.join("profiles.lfis");
    save_profile_store(&profiles_path, &profiles).unwrap();
    group.bench_function("profile_load", |b| {
        b.iter_custom(|iters| {
            let mut took = Duration::ZERO;
            for _ in 0..iters {
                let started = Instant::now();
                let loaded = load_profile_store(black_box(&profiles_path)).unwrap();
                took += started.elapsed();
                assert!(loaded == profiles, "the loaded profile store equals the saved one");
            }
            took
        })
    });

    group.bench_function("xml_write", |b| {
        let path = dir.join("write.xml");
        b.iter(|| {
            std::fs::write(&path, black_box(&store).to_xml()).unwrap();
            black_box(())
        })
    });

    group.bench_function("xml_load", |b| {
        b.iter(|| {
            let loaded = load_exploration(black_box(&xml_path)).unwrap();
            assert_eq!(loaded.universe, store.universe);
            black_box(loaded)
        })
    });

    group.bench_function("delta_append", |b| {
        let path = dir.join("append.lfij");
        // Appending one framed delta record is the pure O(delta)
        // write-ahead cost the CI ratio gates against the full snapshot
        // write.  No snapshot is offered, so no append compacts (`compact`
        // below times that).
        let mut journal = Journal::create(&path, &store).unwrap();
        b.iter(|| {
            journal.append(black_box(&delta), || None::<ExplorationStore>).unwrap();
            black_box(())
        })
    });

    let mut folded = store.clone();
    group.bench_function("fold_delta", |b| {
        // What recovery pays per journaled delta: applying it to the store
        // (idempotent, so re-applying the same batch each iteration is
        // well-defined).
        b.iter(|| {
            black_box(&delta).apply(&mut folded);
            black_box(())
        })
    });

    group.bench_function("compact", |b| {
        let path = dir.join("compact.lfij");
        let mut journal = Journal::create(&path, &store).unwrap();
        journal.append(&delta, || None::<ExplorationStore>).unwrap();
        b.iter(|| {
            journal.compact(black_box(&folded)).unwrap();
            black_box(())
        })
    });

    let spec = fabric_spec(&store);
    group.bench_function("fabric_ack_append", |b| {
        // The journal is attached on an inert fabric and recovered into a
        // working one, so no lease runs before journaling starts.
        let path = dir.join("ack.journal");
        b.iter_custom(|_| {
            let inert = noop_fabric(0);
            let staged = inert.submit(spec.clone()).unwrap();
            inert.journal_job(staged, &path).unwrap();
            drop(inert);
            let fabric = noop_fabric(1);
            let started = Instant::now();
            let job = fabric.recover_job(spec.clone(), &path).unwrap();
            assert_eq!(fabric.wait_job(job, Duration::from_secs(600)), Some(JobState::Done));
            started.elapsed() / (FABRIC_CELLS / FABRIC_LEASE) as u32
        })
    });

    group.bench_function("fabric_recover", |b| {
        let path = dir.join("recover.journal");
        let inert = noop_fabric(0);
        let staged = inert.submit(spec.clone()).unwrap();
        let snapshot = inert.checkpoint(staged).unwrap();
        let cells: Vec<FaultCell> = snapshot.frontier.iter().map(|f| f.cell).collect();
        // No snapshot is offered, so the log keeps all its deltas for the
        // recovery to fold.
        let mut journal = Journal::create(&path, &snapshot).unwrap();
        for (index, lease) in cells.chunks(FABRIC_LEASE).take(FABRIC_RECORDS).enumerate() {
            journal
                .append(&lease_delta(lease, index * FABRIC_LEASE), || None::<ExplorationStore>)
                .unwrap();
        }
        drop(journal);
        b.iter_custom(|_| {
            let fabric = noop_fabric(0);
            let started = Instant::now();
            let job = fabric.recover_job(spec.clone(), &path).unwrap();
            let took = started.elapsed();
            assert_eq!(fabric.status(job).unwrap().progress.finished, FABRIC_LEASE * FABRIC_RECORDS);
            took
        })
    });

    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_store_scale);
criterion_main!(benches);
