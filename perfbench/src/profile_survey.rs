//! `profile-survey`: cold `Lfi::profile_all` over the full survey corpus and
//! `save_profile_store`, each pass followed by warm starts from the saved
//! file.
//!
//! The profiler, the disassembler and the profile store do all the work
//! here; every other workload starts from a warm store, so a profiler change
//! shows on this workload and nowhere else.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use lfi_core::Lfi;
use lfi_corpus::{build_kernel, survey_corpus, SurveyConfig};
use lfi_isa::Platform;
use lfi_objfile::SharedObject;

use crate::measure::{ms_since, per, Bench, Ctx, Measured, Named};
use crate::stats::{median, percentile, Stream};

/// Warm starts timed after each cold pass: enough that a run holds over a
/// hundred of them.
const RELOADS_PER_PASS: usize = 2;

/// The survey's binaries and the kernel image.
struct Objects {
    libraries: Vec<SharedObject>,
    kernel: SharedObject,
}

/// The survey's binaries and kernel, and where the store is saved.
pub struct State {
    objects: Objects,
    functions: usize,
    store_path: PathBuf,
}

/// A facade with the whole corpus registered (registration is not timed:
/// it is the part of start-up that a store does not save).
fn facade(objects: &Objects) -> Lfi {
    let mut lfi = Lfi::new();
    for object in &objects.libraries {
        lfi.add_library(object.clone());
    }
    lfi.set_kernel(objects.kernel.clone());
    lfi
}

/// The marker type of the workload.
pub struct ProfileSurvey;

impl Bench for ProfileSurvey {
    type State = State;

    fn setup(ctx: &Ctx) -> State {
        let config = SurveyConfig { seed: Stream::new(ctx.seed, 1).next_u64(), ..SurveyConfig::full() };
        let libraries = survey_corpus(config);
        let objects = Objects {
            libraries: libraries.into_iter().map(|library| library.object).collect(),
            kernel: build_kernel(Platform::LinuxX86),
        };
        // Warm-up pass: page in the code and the process-wide kernel memo.
        let lfi = facade(&objects);
        lfi.profile_all().expect("the survey corpus profiles");
        State { objects, functions: config.total_functions(), store_path: ctx.work_dir.join("survey.lfis") }
    }

    fn measure(state: &mut State, _ctx: &Ctx, budget: Duration, traced: bool) -> Measured {
        let libraries = state.objects.libraries.len() as u64;
        let mut out = Measured::default();
        let mut cold_ms = Vec::new();
        let mut reload_ms = Vec::new();
        // Traced spans: cold profile_all, save, load, warm profile_all.
        let (mut profile_all, mut save, mut load, mut replay) = (0.0, 0.0, 0.0, 0.0);
        let (mut analyzed, mut memo_hits, mut memo_lookups, mut disasm_misses, mut bytes) = (0.0, 0.0, 0.0, 0.0, 0.0);
        // Cold passes alternate with warm starts, so both see the same
        // machine over the whole run.
        let started = Instant::now();
        while out.attempted == 0 || started.elapsed() < budget {
            let lfi = facade(&state.objects);
            out.attempted += libraries;
            let t0 = Instant::now();
            let Ok(reports) = lfi.profile_all() else {
                out.failed += libraries;
                continue;
            };
            let t1 = Instant::now();
            if lfi.save_profile_store(&state.store_path).is_err() {
                out.failed += libraries;
                continue;
            }
            let pass_ms = ms_since(t0);
            let analyzed_now: usize = reports.iter().map(|r| r.stats.functions_analyzed).sum();
            let bad = reports.iter().filter(|r| r.stats.served_from_store).count() as u64
                + libraries.saturating_sub(reports.len() as u64);
            if bad > 0 || analyzed_now != state.functions {
                out.failed += bad.max(1);
                continue;
            }
            cold_ms.push(pass_ms);
            if traced {
                profile_all += (t1 - t0).as_secs_f64() * 1e3;
                save += ms_since(t1);
                analyzed += analyzed_now as f64;
                for report in &reports {
                    memo_hits += report.stats.resolution_cache_hits as f64;
                    memo_lookups += (report.stats.resolution_cache_hits + report.stats.resolution_cache_misses) as f64;
                    disasm_misses += report.stats.disasm_cache_misses as f64;
                }
                bytes += std::fs::metadata(&state.store_path).map_or(0.0, |m| m.len() as f64);
            }
            let saved = lfi.profile_store().snapshot();
            for _ in 0..RELOADS_PER_PASS {
                let mut warm = facade(&state.objects);
                out.attempted += libraries;
                let t2 = Instant::now();
                let loaded = warm.load_profile_store_file(&state.store_path).is_ok();
                let t3 = Instant::now();
                let replayed = if loaded { warm.profile_all().ok() } else { None };
                let elapsed = ms_since(t2);
                let Some(replayed) = replayed else {
                    out.failed += libraries;
                    continue;
                };
                let reloaded = warm.profile_store().snapshot();
                let equal = reloaded.len() == saved.len()
                    && reloaded.iter().zip(&saved).all(|((k1, p1), (k2, p2))| k1 == k2 && p1 == p2);
                let unserved = replayed.iter().filter(|r| !r.stats.served_from_store).count() as u64
                    + libraries.saturating_sub(replayed.len() as u64);
                if !equal || unserved > 0 {
                    out.failed += unserved.max(1);
                    continue;
                }
                reload_ms.push(elapsed);
                if traced {
                    load += (t3 - t2).as_secs_f64() * 1e3;
                    replay += ms_since(t3);
                }
            }
        }
        out.wall_ms = ms_since(started);
        let cold_total_ms: f64 = cold_ms.iter().sum();
        let rates: Vec<f64> = cold_ms.iter().map(|ms| state.functions as f64 / ms * 1e3).collect();
        out.work_per_s = median(&rates);
        out.op_ms_mean = per(cold_total_ms, cold_ms.len() as f64);
        out.named = vec![
            Named::new("profile_fns_per_s", out.work_per_s, "fn/s", format!("median of {} cold passes", cold_ms.len())),
            Named::new(
                "profile_reload_ms",
                median(&reload_ms),
                "ms",
                format!("p50 of {} warm starts", reload_ms.len()),
            ),
            Named::new("profile_reload_ms_p90", percentile(&reload_ms, 90.0), "ms", "p90"),
        ];
        out.latency_ms = reload_ms;
        if traced {
            let passes = cold_ms.len() as f64;
            let reloads = out.latency_ms.len() as f64;
            out.layers = vec![
                ("profiler.profile_all_ms", per(profile_all, passes)),
                ("profiler.fns_analyzed", per(analyzed, passes)),
                ("profiler.memo_hit_ratio", per(memo_hits, memo_lookups)),
                ("disasm.cache_misses", per(disasm_misses, passes)),
                ("store.profile_save_ms", per(save, passes)),
                ("store.profile_bytes", per(bytes, passes)),
                ("store.profile_load_ms", per(load, reloads)),
                ("profile.replay_ms", per(replay, reloads)),
            ];
        }
        out
    }
}
