//! The LFI profiler proper: inter-procedural resolution of error return
//! values across library boundaries and into the kernel image, side-effect
//! classification, heuristics, and profile generation.
//!
//! Profiling is driven by a bounded worker pool that parallelizes at
//! *function* granularity over the shared [`AnalysisDb`], so one huge library
//! scales across cores and batch calls ([`Profiler::profile_many`],
//! [`Profiler::profile_all`]) analyze shared dependencies exactly once.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lfi_disasm::{FunctionDisassembly, ObjectDisassembly};
use lfi_intern::Symbol;
use lfi_isa::Inst;
use lfi_objfile::{SharedObject, SymbolDef, SymbolId};
use lfi_profile::{run_pooled, ErrorReturn, FaultProfile, FunctionProfile};

use crate::analysis_db::{AnalysisDb, ResolvedReturns};
use crate::arg_constraints::{analyze_arg_constraints, FunctionArgConstraints};
use crate::return_codes::{analyze_returns, ValueOrigin};
use crate::side_effects::{classify_side_effects, side_effects_in_block};
use crate::{ProfilerError, ProfilerOptions};

/// Timing and size measurements for one profiling run (the §6.2 efficiency
/// experiment reports exactly these quantities), plus the cache-effectiveness
/// counters of the shared [`AnalysisDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfilingStats {
    /// Analysis time attributed to this library: its disassembly (when not
    /// served from cache) plus the sum of its per-function resolution times.
    /// Under parallel profiling this approximates single-thread cost, which
    /// keeps it comparable across worker counts.
    pub duration: Duration,
    /// Number of exported functions analyzed.
    pub functions_analyzed: usize,
    /// Size of the library's text, in bytes.
    pub code_size_bytes: usize,
    /// Longest constant-propagation chain observed (≤ 3 in the paper).
    pub max_propagation_hops: usize,
    /// Disassemblies served from the shared cache while profiling this
    /// library (the library itself and every dependency its resolution
    /// touched).
    pub disasm_cache_hits: u64,
    /// Disassemblies actually computed for this library's profiling run.
    pub disasm_cache_misses: u64,
    /// Inter-procedural resolutions (and kernel syscall sets) served from the
    /// shared memo.
    pub resolution_cache_hits: u64,
    /// Inter-procedural resolutions actually computed.
    pub resolution_cache_misses: u64,
    /// True when the report was replayed from a `ProfileStore` without
    /// running any analysis (set by `lfi_core::Lfi`, never by the profiler).
    pub served_from_store: bool,
}

/// The result of profiling one library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibraryProfileReport {
    /// The generated fault profile, as a shared handle: `lfi_core::Lfi`
    /// stores this very `Arc` and replays it on a store hit, so neither
    /// profiling nor replay copies the profile.  Use
    /// [`Arc::unwrap_or_clone`] for an owned copy.
    pub profile: Arc<FaultProfile>,
    /// Profiling statistics.
    pub stats: ProfilingStats,
}

/// One registered library: its object plus the identity the caches key on.
#[derive(Debug, Clone)]
struct LibraryEntry {
    object: SharedObject,
    /// The library name interned in the process-wide table (memo key half).
    name_sym: Symbol,
    /// Content hash, computed once at registration.
    fingerprint: u64,
}

impl LibraryEntry {
    fn new(object: SharedObject) -> Self {
        let name_sym = Symbol::intern(object.name());
        let fingerprint = object.fingerprint();
        Self { object, name_sym, fingerprint }
    }
}

/// The LFI profiler: add the libraries an application links against (plus,
/// optionally, a kernel image) and ask for fault profiles.
///
/// All profiling entry points take `&self` and share one [`AnalysisDb`], so
/// repeated calls — and concurrent calls from several threads — reuse every
/// disassembly and every completed inter-procedural resolution.  Cloning a
/// profiler keeps sharing the content-addressed disassembly cache but forks
/// the resolution memo (see [`AnalysisDb`] for the exact contract).
///
/// ```
/// use lfi_asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
/// use lfi_isa::Platform;
/// use lfi_profiler::Profiler;
///
/// let lib = LibraryCompiler::new().compile(
///     &LibrarySpec::new("libx.so", Platform::LinuxX86)
///         .function(FunctionSpec::scalar("f", 1).success(0).fault(FaultSpec::returning(-1))),
/// );
/// let mut profiler = Profiler::new();
/// profiler.add_library(lib.object);
/// let report = profiler.profile_library("libx.so").unwrap();
/// assert_eq!(report.profile.function("f").unwrap().error_values().into_iter().collect::<Vec<_>>(), vec![-1, 0]);
/// ```
#[derive(Debug, Default)]
pub struct Profiler {
    options: ProfilerOptions,
    libraries: BTreeMap<String, LibraryEntry>,
    kernel: Option<LibraryEntry>,
    db: AnalysisDb,
}

impl Clone for Profiler {
    fn clone(&self) -> Self {
        Self {
            options: self.options,
            libraries: self.libraries.clone(),
            kernel: self.kernel.clone(),
            db: self.db.fork(),
        }
    }
}

impl Profiler {
    /// Creates a profiler with the paper's default (conservative) options.
    pub fn new() -> Self {
        Self::with_options(ProfilerOptions::default())
    }

    /// Creates a profiler with explicit options.
    pub fn with_options(options: ProfilerOptions) -> Self {
        Self { options, libraries: BTreeMap::new(), kernel: None, db: AnalysisDb::new() }
    }

    /// The options in effect.
    pub fn options(&self) -> ProfilerOptions {
        self.options
    }

    /// The shared analysis cache: disassemblies, memoized resolutions and
    /// their hit/miss counters.
    pub fn analysis_db(&self) -> &AnalysisDb {
        &self.db
    }

    /// Registers a library binary for analysis.  Libraries are keyed by file
    /// name; registering the same name twice replaces the previous object.
    ///
    /// Registering a new or modified object invalidates the memoized
    /// resolutions (they depend on the whole library set); re-registering a
    /// byte-identical object keeps every cache warm.  Returns `true` when the
    /// registration changed the configuration (callers with their own caches
    /// — e.g. a profile store — key their invalidation off this).
    pub fn add_library(&mut self, object: SharedObject) -> bool {
        let entry = LibraryEntry::new(object);
        let unchanged = self
            .libraries
            .get(entry.object.name())
            .is_some_and(|existing| existing.fingerprint == entry.fingerprint);
        self.libraries.insert(entry.object.name().to_owned(), entry);
        if !unchanged {
            self.db.invalidate_resolutions();
        }
        !unchanged
    }

    /// Registers the kernel image used to resolve system-call error codes
    /// (§3.1: "LFI therefore performs static analysis on the kernel image as
    /// well").  Registering a different image invalidates the kernel memo and
    /// the resolutions derived from it.  Returns `true` when the kernel
    /// changed.
    pub fn set_kernel(&mut self, object: SharedObject) -> bool {
        let entry = LibraryEntry::new(object);
        let unchanged = self.kernel.as_ref().is_some_and(|existing| existing.fingerprint == entry.fingerprint);
        self.kernel = Some(entry);
        if !unchanged {
            self.db.invalidate_kernel();
            self.db.invalidate_resolutions();
        }
        !unchanged
    }

    /// Names of the registered libraries, in lexicographic order.
    pub fn library_names(&self) -> impl Iterator<Item = &str> {
        self.libraries.keys().map(String::as_str)
    }

    /// Returns the registered library with the given name, if any.
    pub fn library(&self, name: &str) -> Option<&SharedObject> {
        self.libraries.get(name).map(|entry| &entry.object)
    }

    /// The content fingerprint of the registered library with the given name
    /// (computed once at registration), if any.  Pairs with
    /// [`lfi_profile::FaultProfile`] store keys.
    pub fn library_fingerprint(&self, name: &str) -> Option<u64> {
        self.libraries.get(name).map(|entry| entry.fingerprint)
    }

    /// The fingerprint of the registered kernel image, if any.
    pub fn kernel_fingerprint(&self) -> Option<u64> {
        self.kernel.as_ref().map(|entry| entry.fingerprint)
    }

    /// Profiles one registered library.  Functions are analyzed across the
    /// worker pool; repeat calls replay memoized resolutions from the shared
    /// [`AnalysisDb`].
    ///
    /// # Errors
    ///
    /// Returns [`ProfilerError::UnknownLibrary`] if the library was never
    /// registered, [`ProfilerError::Disasm`] if a binary cannot be
    /// disassembled, and [`ProfilerError::AnalysisPanicked`] if a worker
    /// panicked.
    pub fn profile_library(&self, name: &str) -> Result<LibraryProfileReport, ProfilerError> {
        let mut reports = self.profile_batch(&[name])?;
        Ok(reports.pop().expect("one report per requested library"))
    }

    /// Profiles several libraries through one worker pool and returns the
    /// reports in the same order as `names`.  Work is scheduled per
    /// *function*, not per library, so the pool stays busy even when one
    /// library dwarfs the rest, and shared dependencies are disassembled and
    /// resolved once for the whole batch.
    ///
    /// # Errors
    ///
    /// Returns the first error in `names` order (worker panics are converted
    /// to [`ProfilerError::AnalysisPanicked`], not propagated as panics);
    /// profiling of the other libraries still runs to completion.
    pub fn profile_many(&self, names: &[&str]) -> Result<Vec<LibraryProfileReport>, ProfilerError> {
        self.profile_batch(names)
    }

    /// Profiles every registered library (the "profile the whole system"
    /// workflow mentioned in §6.2), in lexicographic library-name order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Profiler::profile_many`].
    pub fn profile_all(&self) -> Result<Vec<LibraryProfileReport>, ProfilerError> {
        let names: Vec<&str> = self.libraries.keys().map(String::as_str).collect();
        self.profile_batch(&names)
    }

    /// Infers, for each exported function of `name`, which of its error
    /// return values are *argument-dependent* and under which constraints
    /// (§3.1's "false positives … returned only when certain combinations of
    /// arguments are provided").  Functions with no argument-gated value are
    /// omitted.
    ///
    /// # Errors
    ///
    /// Returns [`ProfilerError::UnknownLibrary`] if the library was never
    /// registered and [`ProfilerError::Disasm`] if its binary cannot be
    /// disassembled.
    pub fn argument_constraints(&self, name: &str) -> Result<BTreeMap<String, FunctionArgConstraints>, ProfilerError> {
        let entry = self
            .libraries
            .get(name)
            .ok_or_else(|| ProfilerError::UnknownLibrary { name: name.to_owned() })?;
        let (disassembly, _) = self.db.disasm_cache().disassemble_keyed(entry.fingerprint, &entry.object)?;
        let abi = entry.object.platform().abi();
        let mut out = BTreeMap::new();
        for function in disassembly.exported_functions() {
            let constraints = analyze_arg_constraints(&function.cfg, &abi);
            if !constraints.is_empty() {
                out.insert(function.name.clone(), constraints);
            }
        }
        Ok(out)
    }

    /// The bounded worker pool: flatten every exported function of every
    /// requested library into one job list, then let
    /// `available_parallelism()` workers drain it.
    fn profile_batch(&self, names: &[&str]) -> Result<Vec<LibraryProfileReport>, ProfilerError> {
        struct BatchLibrary<'a> {
            entry: &'a LibraryEntry,
            disassembly: Arc<ObjectDisassembly>,
            disasm_hit: bool,
            disasm_time: Duration,
        }

        let mut entries: Vec<&LibraryEntry> = Vec::with_capacity(names.len());
        for name in names {
            entries.push(
                self.libraries
                    .get(*name)
                    .ok_or_else(|| ProfilerError::UnknownLibrary { name: (*name).to_owned() })?,
            );
        }
        // Cold disassembly dominates batch start-up time, and the requested
        // libraries are independent — disassemble them through the pool too.
        let disassembled = run_pooled(entries.len(), |index| {
            let entry = entries[index];
            let start = Instant::now();
            let result = self.db.disasm_cache().disassemble_keyed(entry.fingerprint, &entry.object);
            (result, start.elapsed())
        });
        let mut batch: Vec<BatchLibrary<'_>> = Vec::with_capacity(names.len());
        for (entry, slot) in entries.iter().zip(disassembled) {
            let (result, disasm_time) = slot.ok_or_else(|| ProfilerError::AnalysisPanicked {
                function: entry.object.name().to_owned(),
                message: "disassembly worker died before completing".to_owned(),
            })?;
            let (disassembly, disasm_hit) = result?;
            batch.push(BatchLibrary { entry, disassembly, disasm_hit, disasm_time });
        }

        // One job per exported function, batch-wide.
        let jobs: Vec<(usize, usize)> = batch
            .iter()
            .enumerate()
            .flat_map(|(lib_idx, lib)| {
                lib.disassembly
                    .functions
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.exported)
                    .map(move |(func_idx, _)| (lib_idx, func_idx))
            })
            .collect();

        struct JobOutput {
            function: FunctionProfile,
            max_hops: usize,
            counters: SessionCounters,
            duration: Duration,
        }

        let run_job = |&(lib_idx, func_idx): &(usize, usize)| -> Result<JobOutput, ProfilerError> {
            let lib = &batch[lib_idx];
            let function = &lib.disassembly.functions[func_idx];
            let start = Instant::now();
            let analysis = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let session = Session::new(self);
                let resolved = session.resolve(lib.entry, function.symbol, 0)?.0;
                Ok((session.counters.take(), resolved))
            }));
            match analysis {
                Ok(Ok((counters, resolved))) => Ok(JobOutput {
                    max_hops: resolved.max_hops,
                    function: FunctionProfile {
                        name: function.name.clone(),
                        error_returns: self.apply_heuristics(function, resolved.returns),
                    },
                    counters,
                    duration: start.elapsed(),
                }),
                Ok(Err(error)) => Err(error),
                Err(payload) => Err(ProfilerError::AnalysisPanicked {
                    function: function.name.clone(),
                    message: panic_message(payload.as_ref()),
                }),
            }
        };

        let outputs = run_pooled(jobs.len(), |index| run_job(&jobs[index]));

        // Assemble per-library reports in request order, functions in symbol
        // order, surfacing the first error in that (deterministic) order.
        let mut outputs = outputs.into_iter();
        let mut reports = Vec::with_capacity(batch.len());
        for lib in &batch {
            let exported = lib.disassembly.functions.iter().filter(|f| f.exported).count();
            let mut profile =
                FaultProfile::new(lib.entry.object.name()).with_platform(lib.entry.object.platform().to_string());
            let mut stats = ProfilingStats {
                duration: lib.disasm_time,
                functions_analyzed: exported,
                code_size_bytes: lib.entry.object.code_size(),
                ..ProfilingStats::default()
            };
            if lib.disasm_hit {
                stats.disasm_cache_hits += 1;
            } else {
                stats.disasm_cache_misses += 1;
            }
            for _ in 0..exported {
                let output = outputs.next().flatten().ok_or_else(|| ProfilerError::AnalysisPanicked {
                    function: profile.library.clone(),
                    message: "profiling worker died before completing the job".to_owned(),
                })??;
                stats.duration += output.duration;
                stats.max_propagation_hops = stats.max_propagation_hops.max(output.max_hops);
                stats.disasm_cache_hits += output.counters.disasm_hits;
                stats.disasm_cache_misses += output.counters.disasm_misses;
                stats.resolution_cache_hits += output.counters.resolution_hits;
                stats.resolution_cache_misses += output.counters.resolution_misses;
                profile.push_function(output.function);
            }
            reports.push(LibraryProfileReport { profile: Arc::new(profile), stats });
        }
        Ok(reports)
    }

    fn apply_heuristics(&self, function: &FunctionDisassembly, mut returns: Vec<ErrorReturn>) -> Vec<ErrorReturn> {
        if self.options.drop_boolean_predicates {
            let only_bool = !returns.is_empty() && returns.iter().all(|r| r.retval == 0 || r.retval == 1);
            let short = function.cfg.insts().len() <= self.options.short_function_threshold;
            let has_calls = function.cfg.insts().iter().any(Inst::is_call);
            if only_bool && short && !has_calls {
                return Vec::new();
            }
        }
        if self.options.drop_zero_success_returns {
            let distinct: HashSet<i64> = returns.iter().map(|r| r.retval).collect();
            // 0 is only "the success return" when some other value exists; a
            // function whose sole distinct return is 0 must keep it, or the
            // heuristic would erase the function's profile entirely.
            if distinct.contains(&0) && distinct.len() > 1 {
                returns.retain(|r| r.retval != 0);
            }
        }
        returns
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Per-job cache counters (session-local view of the shared [`AnalysisDb`]
/// activity, attributed to one library's stats).
#[derive(Debug, Default)]
struct SessionCounters {
    disasm_hits: u64,
    disasm_misses: u64,
    resolution_hits: u64,
    resolution_misses: u64,
}

/// Resolution state for one root function: the per-root scratch memo for
/// path-dependent (cycle- or depth-truncated) results, the recursion stack,
/// and cache counters.  Scheduling-independent results go straight to the
/// shared [`AnalysisDb`] — see its rustdoc for why the split keeps parallel
/// profiling deterministic.
struct Session<'a> {
    profiler: &'a Profiler,
    local: RefCell<HashMap<(Symbol, SymbolId), ResolvedReturns>>,
    in_progress: RefCell<Vec<(Symbol, SymbolId)>>,
    counters: RefCell<SessionCounters>,
}

impl<'a> Session<'a> {
    fn new(profiler: &'a Profiler) -> Self {
        Self {
            profiler,
            local: RefCell::new(HashMap::new()),
            in_progress: RefCell::new(Vec::new()),
            counters: RefCell::new(SessionCounters::default()),
        }
    }

    fn disassembly(&self, entry: &LibraryEntry) -> Result<Arc<ObjectDisassembly>, ProfilerError> {
        let (disassembly, hit) = self.profiler.db.disasm_cache().disassemble_keyed(entry.fingerprint, &entry.object)?;
        let mut counters = self.counters.borrow_mut();
        if hit {
            counters.disasm_hits += 1;
        } else {
            counters.disasm_misses += 1;
        }
        Ok(disassembly)
    }

    /// Error codes a system call can produce, from static analysis of the
    /// kernel image.  Kernel entry points are named `sys_<number>`; results
    /// are memoized process-wide in the [`AnalysisDb`].
    fn kernel_errors(&self, num: u32) -> Vec<i64> {
        if let Some(cached) = self.profiler.db.kernel_errors_cached(num) {
            self.counters.borrow_mut().resolution_hits += 1;
            self.profiler.db.record_resolution(true);
            return cached.to_vec();
        }
        self.counters.borrow_mut().resolution_misses += 1;
        self.profiler.db.record_resolution(false);
        let values = self.compute_kernel_errors(num);
        self.profiler.db.store_kernel_errors(num, values).to_vec()
    }

    fn compute_kernel_errors(&self, num: u32) -> Vec<i64> {
        let Some(kernel) = &self.profiler.kernel else {
            return Vec::new();
        };
        let Ok(disassembly) = self.disassembly(kernel) else {
            return Vec::new();
        };
        let name = format!("sys_{num}");
        let Some(function) = disassembly.function(&name) else {
            return Vec::new();
        };
        let analysis = analyze_returns(&function.cfg, &kernel.object.platform().abi());
        analysis.constants().into_iter().filter(|v| *v < 0).collect()
    }

    /// Resolves the returnable values of a function, recursing into dependent
    /// functions (possibly in other libraries) as the paper describes.
    ///
    /// The boolean is `true` when the result was *truncated* — it depends on
    /// a recursion cycle, a depth bound, or another truncated result — and is
    /// therefore only valid within this session's root.  Untruncated results
    /// are pure functions of the profiler configuration and enter the shared
    /// memo.
    ///
    /// Every branch below decides identically whether the shared memo is
    /// populated or empty: truncation and scratch replay depend only on this
    /// root, and a memo entry is served only where a from-scratch resolution
    /// would produce the same bytes (the `call_height` budget check).  That
    /// is the invariant behind "parallel profiling == sequential profiling".
    fn resolve(
        &self,
        entry: &LibraryEntry,
        symbol: SymbolId,
        depth: usize,
    ) -> Result<(ResolvedReturns, bool), ProfilerError> {
        let key = (entry.name_sym, symbol);
        if self.in_progress.borrow().contains(&key) || depth > self.profiler.options.max_call_depth {
            // Recursion cycle or depth bound: contribute nothing, as a
            // fixed-point seed.
            return Ok((ResolvedReturns::truncation_seed(), true));
        }
        if let Some(partial) = self.local.borrow().get(&key) {
            // This root already computed a (path-dependent) partial result
            // for this function; replaying it keeps the root deterministic.
            return Ok((partial.clone(), true));
        }
        if let Some(cached) = self.profiler.db.lookup_resolution(&key) {
            if depth + cached.call_height <= self.profiler.options.max_call_depth {
                self.counters.borrow_mut().resolution_hits += 1;
                self.profiler.db.record_resolution(true);
                return Ok((cached, false));
            }
            // The memoized subtree would not have fit this call site's depth
            // budget: recompute so the result truncates exactly where a cold
            // run would.
        }
        self.counters.borrow_mut().resolution_misses += 1;
        self.profiler.db.record_resolution(false);
        self.in_progress.borrow_mut().push(key);
        let result = self.resolve_uncached(entry, symbol, depth);
        self.in_progress.borrow_mut().pop();
        if let Ok((resolved, truncated)) = &result {
            if *truncated {
                self.local.borrow_mut().insert(key, resolved.clone());
            } else {
                self.profiler.db.store_resolution(key, resolved.clone());
            }
        }
        result
    }

    fn resolve_uncached(
        &self,
        entry: &LibraryEntry,
        symbol: SymbolId,
        depth: usize,
    ) -> Result<(ResolvedReturns, bool), ProfilerError> {
        let disassembly = self.disassembly(entry)?;
        let Some(function) = disassembly.function_by_symbol(symbol) else {
            // Imported or missing: resolve in the providing library.
            return self.resolve_import(entry, symbol, depth);
        };

        let abi = entry.object.platform().abi();
        let analysis = analyze_returns(&function.cfg, &abi);

        let mut resolved = ResolvedReturns { max_hops: analysis.max_propagation_hops, ..Default::default() };
        let mut truncated = false;
        let kernel_errors = |num: u32| self.kernel_errors(num);
        for origin in &analysis.origins {
            match *origin {
                ValueOrigin::Const { value, block, .. } => {
                    let raw = side_effects_in_block(&function.cfg, block, &abi);
                    let effects = classify_side_effects(&raw, &entry.object, &kernel_errors);
                    resolved.push(value, effects);
                }
                ValueOrigin::SyscallReturn { num, .. } => {
                    for value in self.kernel_errors(num) {
                        resolved.push(value, Vec::new());
                    }
                }
                ValueOrigin::CalleeReturn { sym, .. } => {
                    // resolve_callee returns the callee's height already
                    // adjusted to be relative to *this* function.
                    let (callee, callee_truncated) = self.resolve_callee(entry, SymbolId(sym), depth)?;
                    truncated |= callee_truncated;
                    resolved.call_height = resolved.call_height.max(callee.call_height);
                    resolved.merge(callee);
                }
                ValueOrigin::IndirectCallReturn { .. } | ValueOrigin::Argument { .. } | ValueOrigin::Unknown => {
                    resolved.has_unresolved = true;
                }
            }
        }
        Ok((resolved, truncated))
    }

    fn resolve_callee(
        &self,
        entry: &LibraryEntry,
        callee: SymbolId,
        depth: usize,
    ) -> Result<(ResolvedReturns, bool), ProfilerError> {
        let Some(symbol) = entry.object.symbol(callee) else {
            return Ok((ResolvedReturns::truncation_seed(), false));
        };
        match &symbol.def {
            SymbolDef::Defined { .. } => {
                let (mut resolved, truncated) = self.resolve(entry, callee, depth + 1)?;
                // One call frame below the caller.
                resolved.call_height += 1;
                Ok((resolved, truncated))
            }
            // resolve_import performs the +1 itself (the import alias adds no
            // frame; its provider is resolved at depth + 1).
            SymbolDef::Import { .. } => self.resolve_import(entry, callee, depth),
        }
    }

    fn resolve_import(
        &self,
        entry: &LibraryEntry,
        symbol: SymbolId,
        depth: usize,
    ) -> Result<(ResolvedReturns, bool), ProfilerError> {
        let Some(import) = entry.object.symbol(symbol) else {
            return Ok((ResolvedReturns::truncation_seed(), false));
        };
        let name = &import.name;
        let hint = match &import.def {
            SymbolDef::Import { library_hint } => library_hint.as_deref(),
            SymbolDef::Defined { .. } => None,
        };
        // Prefer the hinted library, then the declared dependencies, then any
        // registered library exporting the symbol (in name order, so import
        // resolution is deterministic regardless of registration order).
        let deps = entry.object.dependencies().iter().map(String::as_str);
        let all = self.profiler.libraries.keys().map(String::as_str);
        for candidate in hint.into_iter().chain(deps).chain(all) {
            let Some(target) = self.profiler.libraries.get(candidate) else {
                continue;
            };
            let Some((id, target_symbol)) = target.object.symbol_by_name(name) else {
                continue;
            };
            if target_symbol.is_export() {
                let (mut resolved, truncated) = self.resolve(target, id, depth + 1)?;
                // The provider sits one call level below whoever asked.
                resolved.call_height += 1;
                return Ok((resolved, truncated));
            }
        }
        Ok((ResolvedReturns::truncation_seed(), false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
    use lfi_isa::{Inst, Loc, Platform};
    use lfi_objfile::ObjectBuilder;
    use lfi_profile::SideEffectKind;

    fn compile(spec: LibrarySpec) -> SharedObject {
        LibraryCompiler::new().compile(&spec).object
    }

    /// A minimal kernel image whose `sys_6` handler can fail with -9, -5, -4.
    fn kernel() -> SharedObject {
        let abi = Platform::LinuxX86.abi();
        let spec = LibrarySpec::new("kernel.img", Platform::LinuxX86).function(
            FunctionSpec::scalar("sys_6", 3)
                .success(0)
                .fault(FaultSpec::returning(-9))
                .fault(FaultSpec::returning(-5))
                .fault(FaultSpec::returning(-4)),
        );
        let _ = abi;
        compile(spec)
    }

    #[test]
    fn direct_constants_and_errno_are_profiled() {
        let lib = compile(
            LibrarySpec::new("liba.so", Platform::LinuxX86).function(
                FunctionSpec::scalar("f", 1)
                    .success(0)
                    .fault(FaultSpec::returning(-1).with_errno(9))
                    .fault(FaultSpec::returning(-2)),
            ),
        );
        let mut profiler = Profiler::new();
        profiler.add_library(lib);
        let report = profiler.profile_library("liba.so").unwrap();
        let f = report.profile.function("f").unwrap();
        assert_eq!(f.error_values().into_iter().collect::<Vec<_>>(), vec![-2, -1, 0]);
        let minus_one = f.error_returns.iter().find(|r| r.retval == -1).unwrap();
        assert_eq!(minus_one.side_effects.len(), 1);
        assert_eq!(minus_one.side_effects[0].kind, SideEffectKind::Tls);
        assert_eq!(minus_one.side_effects[0].value, 9);
        assert_eq!(report.stats.functions_analyzed, 1);
        assert!(report.stats.code_size_bytes > 0);
    }

    #[test]
    fn syscall_errors_come_from_the_kernel_image() {
        let lib = compile(
            LibrarySpec::new("libc.so.6", Platform::LinuxX86)
                .function(FunctionSpec::scalar("close", 1).success(0).fault(FaultSpec::via_syscall(6))),
        );
        let mut profiler = Profiler::new();
        profiler.add_library(lib);
        profiler.set_kernel(kernel());
        let report = profiler.profile_library("libc.so.6").unwrap();
        let close = report.profile.function("close").unwrap();
        let minus_one = close.error_returns.iter().find(|r| r.retval == -1).unwrap();
        let mut errno_values: Vec<i64> = minus_one
            .side_effects
            .iter()
            .filter(|s| s.kind == SideEffectKind::Tls)
            .map(|s| s.value)
            .collect();
        errno_values.sort_unstable();
        // The kernel returns -9/-5/-4; the library negates them into errno.
        assert_eq!(errno_values, vec![4, 5, 9]);
    }

    #[test]
    fn without_a_kernel_image_syscall_errors_are_missed() {
        let lib = compile(
            LibrarySpec::new("libc.so.6", Platform::LinuxX86)
                .function(FunctionSpec::scalar("close", 1).success(0).fault(FaultSpec::via_syscall(6))),
        );
        let mut profiler = Profiler::new();
        profiler.add_library(lib);
        let report = profiler.profile_library("libc.so.6").unwrap();
        let close = report.profile.function("close").unwrap();
        let minus_one = close.error_returns.iter().find(|r| r.retval == -1).unwrap();
        assert!(minus_one.side_effects.is_empty());
    }

    #[test]
    fn dependent_function_errors_propagate_across_libraries() {
        let inner = compile(
            LibrarySpec::new("libinner.so", Platform::LinuxX86).function(
                FunctionSpec::scalar("inner_fail", 0)
                    .success(0)
                    .fault(FaultSpec::returning(-77).with_errno(7)),
            ),
        );
        let outer = compile(
            LibrarySpec::new("libouter.so", Platform::LinuxX86)
                .dependency("libinner.so")
                .import("inner_fail", Some("libinner.so"))
                .function(FunctionSpec::scalar("outer", 1).success(0).fault(FaultSpec::via_callee("inner_fail"))),
        );
        let mut profiler = Profiler::new();
        profiler.add_library(inner);
        profiler.add_library(outer);
        let report = profiler.profile_library("libouter.so").unwrap();
        let outer = report.profile.function("outer").unwrap();
        assert!(outer.error_values().contains(&-77));
        let propagated = outer.error_returns.iter().find(|r| r.retval == -77).unwrap();
        // The callee's errno side effect travels with the propagated value.
        assert!(propagated.side_effects.iter().any(|s| s.value == 7));
    }

    #[test]
    fn dependent_function_in_same_library_is_resolved() {
        let lib = compile(
            LibrarySpec::new("libself.so", Platform::LinuxX86)
                .function(FunctionSpec::scalar("helper", 0).success(0).fault(FaultSpec::returning(-3)).local())
                .function(FunctionSpec::scalar("outer", 1).success(0).fault(FaultSpec::via_callee("helper"))),
        );
        let mut profiler = Profiler::new();
        profiler.add_library(lib);
        let report = profiler.profile_library("libself.so").unwrap();
        // Only `outer` is exported, and it inherits -3 from the local helper.
        assert_eq!(report.profile.function_count(), 1);
        assert!(report.profile.function("outer").unwrap().error_values().contains(&-3));
    }

    #[test]
    fn indirect_call_errors_are_missed_false_negatives() {
        let lib = compile(
            LibrarySpec::new("libind.so", Platform::LinuxX86).function(
                FunctionSpec::scalar("sneaky", 1)
                    .success(0)
                    .fault(FaultSpec::returning(-13).hidden_behind_indirect_call()),
            ),
        );
        let mut profiler = Profiler::new();
        profiler.add_library(lib);
        let report = profiler.profile_library("libind.so").unwrap();
        assert!(!report.profile.function("sneaky").unwrap().error_values().contains(&-13));
    }

    #[test]
    fn phantom_guard_errors_are_reported_false_positives() {
        let lib = compile(
            LibrarySpec::new("libph.so", Platform::LinuxX86)
                .function(FunctionSpec::scalar("stateful", 1).success(0).fault(FaultSpec::returning(-99).phantom())),
        );
        let mut profiler = Profiler::new();
        profiler.add_library(lib);
        let report = profiler.profile_library("libph.so").unwrap();
        assert!(report.profile.function("stateful").unwrap().error_values().contains(&-99));
    }

    #[test]
    fn heuristics_drop_success_returns_and_boolean_predicates() {
        let spec = LibrarySpec::new("libh.so", Platform::LinuxX86)
            .function(FunctionSpec::scalar("f", 1).success(0).fault(FaultSpec::returning(-1)))
            .function(FunctionSpec::scalar("is_file", 2).boolean_predicate());
        let lib = compile(spec);

        let mut conservative = Profiler::new();
        conservative.add_library(lib.clone());
        let report = conservative.profile_library("libh.so").unwrap();
        assert!(report.profile.function("f").unwrap().error_values().contains(&0));
        assert!(!report.profile.function("is_file").unwrap().is_empty());

        let mut tuned = Profiler::with_options(ProfilerOptions::with_heuristics());
        tuned.add_library(lib);
        let report = tuned.profile_library("libh.so").unwrap();
        assert_eq!(report.profile.function("f").unwrap().error_values().into_iter().collect::<Vec<_>>(), vec![-1]);
        assert!(report.profile.function("is_file").unwrap().is_empty());
    }

    #[test]
    fn zero_only_function_survives_the_success_return_heuristic() {
        // Regression pin for both branches of drop_zero_success_returns:
        // a function whose only distinct return value is 0 keeps it (the
        // heuristic must be a no-op), while a function returning {0, -1}
        // drops the 0.
        let lib = compile(
            LibrarySpec::new("libzero.so", Platform::LinuxX86)
                .function(FunctionSpec::scalar("always_ok", 1).success(0))
                .function(FunctionSpec::scalar("can_fail", 1).success(0).fault(FaultSpec::returning(-1))),
        );
        let mut profiler =
            Profiler::with_options(ProfilerOptions { drop_zero_success_returns: true, ..ProfilerOptions::default() });
        profiler.add_library(lib);
        let report = profiler.profile_library("libzero.so").unwrap();
        let always_ok = report.profile.function("always_ok").unwrap();
        assert_eq!(always_ok.error_values().into_iter().collect::<Vec<_>>(), vec![0]);
        let can_fail = report.profile.function("can_fail").unwrap();
        assert_eq!(can_fail.error_values().into_iter().collect::<Vec<_>>(), vec![-1]);
    }

    #[test]
    fn stripped_libraries_still_profile_exports() {
        let lib = compile(
            LibrarySpec::new("libstrip.so", Platform::LinuxX86)
                .function(FunctionSpec::scalar("helper", 0).success(0).fault(FaultSpec::returning(-3)).local())
                .function(FunctionSpec::scalar("api", 1).success(0).fault(FaultSpec::via_callee("helper"))),
        )
        .stripped();
        let mut profiler = Profiler::new();
        profiler.add_library(lib);
        let report = profiler.profile_library("libstrip.so").unwrap();
        assert!(report.profile.function("api").unwrap().error_values().contains(&-3));
    }

    #[test]
    fn unknown_library_is_an_error() {
        let profiler = Profiler::new();
        assert!(matches!(profiler.profile_library("libmissing.so"), Err(ProfilerError::UnknownLibrary { .. })));
    }

    #[test]
    fn mutually_recursive_functions_terminate() {
        // a calls b on its error path, b calls a on its error path.
        let abi = Platform::LinuxX86.abi();
        let object = ObjectBuilder::new("librec.so", Platform::LinuxX86)
            .export("a", vec![Inst::Call { sym: 1 }, Inst::Ret])
            .export(
                "b",
                vec![
                    Inst::Cmp { a: Loc::Arg(0), b: 0i64.into() },
                    Inst::JmpCond { cond: lfi_isa::Cond::Eq, target: 4 },
                    Inst::MovImm { dst: abi.return_loc(), imm: -8 },
                    Inst::Ret,
                    Inst::Call { sym: 0 },
                    Inst::Ret,
                ],
            )
            .build();
        let mut profiler = Profiler::new();
        profiler.add_library(object);
        let report = profiler.profile_library("librec.so").unwrap();
        assert!(report.profile.function("a").unwrap().error_values().contains(&-8));
        assert!(report.profile.function("b").unwrap().error_values().contains(&-8));
        // Cycle-truncated results are path-dependent, so neither function's
        // resolution may enter the shared memo — that is what keeps parallel
        // profiling deterministic.
        assert_eq!(profiler.analysis_db().resolutions_cached(), 0);
        // And repeating the run still produces identical output.
        let again = profiler.profile_library("librec.so").unwrap();
        assert_eq!(again.profile, report.profile);
    }

    #[test]
    fn memoized_results_respect_the_depth_budget_of_each_call_site() {
        // f -> g -> h -> k(-5), with exported h and max_call_depth = 2.
        // Resolving h from its own root is complete ({-5}, height 1) and is
        // memoized; resolving f reaches h at depth 2, where h's subtree no
        // longer fits the budget (2 + 1 > 2).  The memo entry must NOT be
        // served there — otherwise f's profile would depend on whether h's
        // job happened to run first, and parallel profiling would be
        // nondeterministic.  f must always truncate at k, exactly like a
        // cold run with an empty memo.
        let abi = Platform::LinuxX86.abi();
        let object = ObjectBuilder::new("libchain.so", Platform::LinuxX86)
            .export("f", vec![Inst::Call { sym: 3 }, Inst::Ret])
            .export("h", vec![Inst::Call { sym: 2 }, Inst::Ret])
            .local("k", vec![Inst::MovImm { dst: abi.return_loc(), imm: -5 }, Inst::Ret])
            .local("g", vec![Inst::Call { sym: 1 }, Inst::Ret])
            .build();
        let options = ProfilerOptions { max_call_depth: 2, ..ProfilerOptions::default() };
        let mut profiler = Profiler::with_options(options);
        profiler.add_library(object);

        let cold = profiler.profile_library("libchain.so").unwrap();
        assert!(cold.profile.function("h").unwrap().error_values().contains(&-5));
        assert!(!cold.profile.function("f").unwrap().error_values().contains(&-5));

        // Warm repeat — h ({-5}, height 1) and k are memoized now — must be
        // byte-identical to the cold run.
        let warm = profiler.profile_library("libchain.so").unwrap();
        assert_eq!(warm.profile.to_xml(), cold.profile.to_xml());

        // At a shallower call site the memo IS valid: a wrapper calling h at
        // depth 1 (1 + 1 <= 2) sees the full result.
        let mut deep_enough = Profiler::with_options(options);
        deep_enough.add_library(
            ObjectBuilder::new("libchain.so", Platform::LinuxX86)
                .export("wrapper", vec![Inst::Call { sym: 1 }, Inst::Ret])
                .export("h", vec![Inst::Call { sym: 2 }, Inst::Ret])
                .local("k", vec![Inst::MovImm { dst: abi.return_loc(), imm: -5 }, Inst::Ret])
                .build(),
        );
        let report = deep_enough.profile_library("libchain.so").unwrap();
        assert!(report.profile.function("wrapper").unwrap().error_values().contains(&-5));
        let again = deep_enough.profile_library("libchain.so").unwrap();
        assert_eq!(again.profile.to_xml(), report.profile.to_xml());
    }

    #[test]
    fn profile_many_runs_in_parallel_and_preserves_order() {
        let liba = compile(
            LibrarySpec::new("liba.so", Platform::LinuxX86)
                .function(FunctionSpec::scalar("fa", 0).success(0).fault(FaultSpec::returning(-1))),
        );
        let libb = compile(
            LibrarySpec::new("libb.so", Platform::LinuxX86)
                .function(FunctionSpec::scalar("fb", 0).success(0).fault(FaultSpec::returning(-2))),
        );
        let mut profiler = Profiler::new();
        profiler.add_library(liba);
        profiler.add_library(libb);
        let reports = profiler.profile_many(&["libb.so", "liba.so"]).unwrap();
        assert_eq!(reports[0].profile.library, "libb.so");
        assert_eq!(reports[1].profile.library, "liba.so");
        let all = profiler.profile_all().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].profile.library, "liba.so");
    }

    #[test]
    fn profile_many_propagates_errors_instead_of_panicking() {
        let liba = compile(
            LibrarySpec::new("liba.so", Platform::LinuxX86)
                .function(FunctionSpec::scalar("fa", 0).success(0).fault(FaultSpec::returning(-1))),
        );
        let mut profiler = Profiler::new();
        profiler.add_library(liba);
        let err = profiler.profile_many(&["liba.so", "libmissing.so"]).unwrap_err();
        assert!(matches!(err, ProfilerError::UnknownLibrary { ref name } if name == "libmissing.so"));
    }

    #[test]
    fn warm_cache_serves_resolutions_and_disassemblies() {
        let lib = compile(
            LibrarySpec::new("libwarm.so", Platform::LinuxX86)
                .function(FunctionSpec::scalar("f", 1).success(0).fault(FaultSpec::returning(-1)))
                .function(FunctionSpec::scalar("g", 1).success(0).fault(FaultSpec::returning(-2))),
        );
        let mut profiler = Profiler::new();
        profiler.add_library(lib.clone());
        let cold = profiler.profile_library("libwarm.so").unwrap();
        assert_eq!(cold.stats.disasm_cache_misses, 1);
        assert_eq!(cold.stats.resolution_cache_hits, 0);
        let warm = profiler.profile_library("libwarm.so").unwrap();
        assert_eq!(warm.profile, cold.profile);
        assert_eq!(warm.stats.disasm_cache_hits, 1);
        assert_eq!(warm.stats.disasm_cache_misses, 0);
        assert_eq!(warm.stats.resolution_cache_hits, 2);
        assert_eq!(warm.stats.resolution_cache_misses, 0);
        // Re-registering the identical object keeps the caches warm...
        profiler.add_library(lib);
        assert_eq!(profiler.analysis_db().resolutions_cached(), 2);
        // ...but registering modified content invalidates the memo.
        let modified = compile(
            LibrarySpec::new("libwarm.so", Platform::LinuxX86)
                .function(FunctionSpec::scalar("f", 1).success(0).fault(FaultSpec::returning(-7))),
        );
        profiler.add_library(modified);
        assert_eq!(profiler.analysis_db().resolutions_cached(), 0);
        let reprofiled = profiler.profile_library("libwarm.so").unwrap();
        assert!(reprofiled.profile.function("f").unwrap().error_values().contains(&-7));
    }

    #[test]
    fn cloned_profilers_share_disassembly_but_not_resolutions() {
        let lib = compile(
            LibrarySpec::new("libclone.so", Platform::LinuxX86)
                .function(FunctionSpec::scalar("f", 1).success(0).fault(FaultSpec::returning(-1))),
        );
        let mut profiler = Profiler::new();
        profiler.add_library(lib);
        profiler.profile_library("libclone.so").unwrap();
        let clone = profiler.clone();
        assert_eq!(clone.analysis_db().resolutions_cached(), 0);
        let report = clone.profile_library("libclone.so").unwrap();
        // The disassembly came from the shared content-addressed cache (one
        // up-front hit plus one from the function's resolution session).
        assert_eq!(report.stats.disasm_cache_hits, 2);
        assert_eq!(report.stats.disasm_cache_misses, 0);
    }

    #[test]
    fn output_argument_side_effects_reach_the_profile() {
        let lib = compile(
            LibrarySpec::new("libout.so", Platform::LinuxX86).function(
                FunctionSpec::scalar("getaddr", 2)
                    .success(0)
                    .fault(FaultSpec::returning(-1).with_output_arg(1, 0)),
            ),
        );
        let mut profiler = Profiler::new();
        profiler.add_library(lib);
        let report = profiler.profile_library("libout.so").unwrap();
        let f = report.profile.function("getaddr").unwrap();
        let minus_one = f.error_returns.iter().find(|r| r.retval == -1).unwrap();
        assert!(minus_one
            .side_effects
            .iter()
            .any(|s| s.kind == SideEffectKind::OutputArg && s.offset == 1));
    }
}
