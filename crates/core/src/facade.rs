use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use lfi_controller::Campaign;
use lfi_explore::{ExplorationStore, Explorer};
use lfi_objfile::SharedObject;
use lfi_profile::{FaultProfile, ProfileKey, ProfileStore};
use lfi_profiler::{LibraryProfileReport, Profiler, ProfilerError, ProfilerOptions, ProfilingStats};
use lfi_rules::{ClosedLoop, RuleSet};
use lfi_scenario::generator::{Exhaustive, Random, ScenarioGenerator};
use lfi_scenario::{FaultSpace, Plan, ScenarioError};

/// Errors surfaced by the [`Lfi`] facade: profiling failures and scenario
/// generator misconfiguration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LfiError {
    /// Profiling a registered library failed.
    Profiler(ProfilerError),
    /// A scenario generator rejected its configuration.
    Scenario(ScenarioError),
}

impl fmt::Display for LfiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LfiError::Profiler(e) => write!(f, "profiling failed: {e}"),
            LfiError::Scenario(e) => write!(f, "scenario generation failed: {e}"),
        }
    }
}

impl Error for LfiError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LfiError::Profiler(e) => Some(e),
            LfiError::Scenario(e) => Some(e),
        }
    }
}

impl From<ProfilerError> for LfiError {
    fn from(value: ProfilerError) -> Self {
        LfiError::Profiler(value)
    }
}

impl From<ScenarioError> for LfiError {
    fn from(value: ScenarioError) -> Self {
        LfiError::Scenario(value)
    }
}

/// One memoized profile set: the named libraries' profiles, copied once out
/// of the store's handles, and the fault spaces derived from them per
/// [`ScenarioGenerator::cache_key`].
#[derive(Clone)]
struct ProfileSet {
    /// The store's handles the profiles were copied from: the set is valid
    /// only while the store still holds these very profiles.
    handles: Vec<Arc<FaultProfile>>,
    profiles: Arc<[FaultProfile]>,
    spaces: HashMap<u64, FaultSpace>,
}

/// What the facade derives from its [`ProfileStore`], memoized: the store is
/// the database and the fault space the derived artifact, asked for instead
/// of rebuilt.  Sets are keyed by the [`ProfileKey`]s of the named
/// libraries, in call order.
#[derive(Default)]
struct SpaceMemo {
    sets: Mutex<HashMap<Vec<ProfileKey>, ProfileSet>>,
}

impl SpaceMemo {
    /// The sets.  Every update is a single map operation, so a thread that
    /// panicked while holding the lock cannot have left them half-updated.
    fn lock(&self) -> MutexGuard<'_, HashMap<Vec<ProfileKey>, ProfileSet>> {
        self.sets.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The shared profiles behind `handles`: the memoized copy when the set
    /// under `keys` was copied from these very handles, a fresh one (which
    /// replaces it) otherwise.
    fn profiles(&self, keys: &[ProfileKey], handles: Vec<Arc<FaultProfile>>) -> Arc<[FaultProfile]> {
        let mut sets = self.lock();
        if let Some(set) = sets.get(keys) {
            if set.handles.iter().map(Arc::as_ptr).eq(handles.iter().map(Arc::as_ptr)) {
                return Arc::clone(&set.profiles);
            }
        }
        let profiles: Arc<[FaultProfile]> = handles.iter().map(|profile| FaultProfile::clone(profile)).collect();
        let set = ProfileSet { handles, profiles: Arc::clone(&profiles), spaces: HashMap::new() };
        sets.insert(keys.to_vec(), set);
        profiles
    }

    /// The set under `keys`, if it still holds `profiles`.
    fn set_of<'a>(
        sets: &'a mut HashMap<Vec<ProfileKey>, ProfileSet>,
        keys: &[ProfileKey],
        profiles: &Arc<[FaultProfile]>,
    ) -> Option<&'a mut ProfileSet> {
        sets.get_mut(keys).filter(|set| Arc::ptr_eq(&set.profiles, profiles))
    }

    /// The space memoized for `profiles` under the generator's key, or
    /// `build`'s (run outside the lock), memoized unless the set was
    /// replaced meanwhile.
    fn space(
        &self,
        keys: &[ProfileKey],
        profiles: &Arc<[FaultProfile]>,
        generator: u64,
        build: impl FnOnce() -> FaultSpace,
    ) -> FaultSpace {
        let memoized =
            Self::set_of(&mut self.lock(), keys, profiles).and_then(|set| set.spaces.get(&generator).cloned());
        if let Some(space) = memoized {
            return space;
        }
        let space = build();
        if let Some(set) = Self::set_of(&mut self.lock(), keys, profiles) {
            set.spaces.insert(generator, space.clone());
        }
        space
    }

    fn clear(&self) {
        self.lock().clear();
    }
}

impl Clone for SpaceMemo {
    fn clone(&self) -> Self {
        Self { sets: Mutex::new(self.lock().clone()) }
    }
}

impl fmt::Debug for SpaceMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpaceMemo").field("profile_sets", &self.lock().len()).finish()
    }
}

/// The top-level LFI facade: "profile the target application's shared
/// libraries … then conduct fault injection experiments using various fault
/// scenarios" (§2).
///
/// `Lfi` owns a [`Profiler`] and a [`ProfileStore`]: every generated profile
/// is stored under a key derived from the whole profiling configuration —
/// every registered library's content fingerprint, the profiler options and
/// the kernel image — so campaigns and repeated
/// [`Lfi::profile`]/[`Lfi::profiles_of`] calls replay prior results instead
/// of re-analyzing.
///
/// Next to the store, `Lfi` memoizes what explorations derive from it: the
/// named libraries' profiles as one shared `Arc<[FaultProfile]>`, and per
/// generator the [`FaultSpace`] of its plan over them.  [`Lfi::explore`],
/// [`Lfi::rules`] and [`Lfi::resume_exploration`] start from the memo, so
/// a repeat call neither copies a profile nor regenerates, compiles or
/// sorts a plan.  The contract:
/// - a profile set is keyed by the named libraries' store keys, in call
///   order, and is used only while the store still holds the very profiles
///   it was copied from;
/// - a space is keyed by [`ScenarioGenerator::cache_key`]; a generator
///   returning `None` ([`Random`], `Filtered`, `Composite`) is generated
///   anew on every call;
/// - every named library resolves through the store before the memo is
///   consulted, so an unknown library is an error even after a call over
///   the others was memoized;
/// - [`Lfi::add_library`] and [`Lfi::set_kernel`] with new content,
///   [`Lfi::load_profile_store`] and [`Lfi::load_profile_store_file`] clear
///   the memo along with the store.
///
/// Scenario generation is pluggable through
/// [`ScenarioGenerator`] ([`Lfi::scenario`]), and [`Lfi::campaign`] hands the
/// generated faultload straight to a fluent [`Campaign`] builder whose
/// `start` turns a [`Workload`](lfi_controller::Workload) into a streaming
/// session, so the whole Figure 1 pipeline — profile → scenario → campaign →
/// events → report — is one chain:
///
/// ```
/// use lfi_asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
/// use lfi_controller::{CaseEvent, FnWorkload};
/// use lfi_core::Lfi;
/// use lfi_isa::Platform;
/// use lfi_profiler::ProfilerOptions;
/// use lfi_runtime::{ExitStatus, NativeLibrary, Process};
/// use lfi_scenario::generator::Exhaustive;
///
/// // The target application's shared library...
/// let lib = LibraryCompiler::new().compile(
///     &LibrarySpec::new("libdemo.so", Platform::LinuxX86)
///         .function(FunctionSpec::scalar("demo_read", 3).success(0).fault(FaultSpec::returning(-1).with_errno(5))),
/// );
/// // ...and its runtime behaviour, as the dynamic linker would load it.
/// let runtime = NativeLibrary::builder("libdemo.so").function("demo_read", |ctx| ctx.arg(2)).build();
///
/// let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
/// lfi.add_library(lib.object);
/// let mut run = lfi
///     .campaign(&Exhaustive, &["libdemo.so"])     // profile + generate + build
///     .unwrap()
///     .parallelism(2)                             // independent processes per case
///     .start(FnWorkload::new(
///         "demo-reader",
///         move || {
///             let mut process = Process::new();
///             process.load(runtime.clone());
///             process
///         },
///         |process| match process.call("demo_read", &[3, 0, 8]) {
///             Ok(n) if n >= 0 => ExitStatus::Exited(0),
///             _ => ExitStatus::Exited(1),
///         },
///     ));
/// // The session streams incremental events; collapse the rest on demand.
/// let injections = run.by_ref().filter(|e| matches!(e, CaseEvent::Injection { .. })).count();
/// assert_eq!(injections, 1);
/// let report = run.into_report();
/// assert_eq!(report.outcomes.len(), 1);
/// assert_eq!(report.failures().count(), 1);
/// assert_eq!(report.total_injections(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Lfi {
    profiler: Profiler,
    store: ProfileStore,
    memo: SpaceMemo,
}

impl Lfi {
    /// Creates a facade with the paper's default (conservative) profiler
    /// options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a facade with explicit profiler options.
    pub fn with_options(options: ProfilerOptions) -> Self {
        Self { profiler: Profiler::with_options(options), ..Self::default() }
    }

    /// Registers a library binary of the target application.
    ///
    /// Registering a new or modified object invalidates the whole
    /// [`ProfileStore`]: import resolution may consult *any* registered
    /// library, so a changed library set can change any stored profile.
    /// Re-registering a byte-identical object keeps the store warm.
    pub fn add_library(&mut self, object: SharedObject) {
        if self.profiler.add_library(object) {
            self.store.clear();
            self.memo.clear();
        }
    }

    /// Registers the kernel image used to resolve syscall error codes.
    /// Registering a different image invalidates the [`ProfileStore`].
    pub fn set_kernel(&mut self, object: SharedObject) {
        if self.profiler.set_kernel(object) {
            self.store.clear();
            self.memo.clear();
        }
    }

    /// Access to the underlying profiler.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The store of previously generated profiles — export it with
    /// [`ProfileStore::to_xml`] to persist profiling work across runs.
    pub fn profile_store(&self) -> &ProfileStore {
        &self.store
    }

    /// Replaces the profile store, e.g. with one restored through
    /// [`ProfileStore::from_xml`].  Entries only replay when their key —
    /// library name, platform, and a hash folding *every* registered
    /// library's content fingerprint with the profiler options and kernel
    /// image — matches the current configuration, so loading a stale store
    /// is safe: any changed dependency misses.
    pub fn load_profile_store(&mut self, store: ProfileStore) {
        self.store = store;
        self.memo.clear();
    }

    /// Saves the profile store to `path` in the `lfi-store` binary snapshot
    /// format (magic + version + CRC-checked record).  XML via
    /// [`ProfileStore::to_xml`] remains the human-readable interchange
    /// format; the binary file is the fast path for large stores.
    ///
    /// # Errors
    ///
    /// [`lfi_store::StoreError`] naming the path on IO failure.
    pub fn save_profile_store(&self, path: impl AsRef<std::path::Path>) -> Result<(), lfi_store::StoreError> {
        lfi_store::save_profile_store(path, &self.store)
    }

    /// Loads and installs a profile store from `path`, sniffing the on-disk
    /// format by magic — binary snapshots decode through the checked codec,
    /// anything else parses as the XML interchange format.  The same
    /// staleness contract as [`Lfi::load_profile_store`] applies.
    ///
    /// # Errors
    ///
    /// [`lfi_store::StoreError`] naming the path, byte offset and detected
    /// format; truncated or hostile input never panics.
    pub fn load_profile_store_file(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), lfi_store::StoreError> {
        self.store = lfi_store::load_profile_store(path)?;
        self.memo.clear();
        Ok(())
    }

    /// Loads an [`ExplorationStore`] checkpoint from `path`, sniffing the
    /// format by magic: a binary snapshot, a recovered exploration journal
    /// (snapshot plus durable deltas), or the XML interchange format.
    /// Pair with [`Lfi::resume_exploration`] to continue the run.
    ///
    /// # Errors
    ///
    /// [`lfi_store::StoreError`] naming the path, byte offset and detected
    /// format; truncated or hostile input never panics.
    pub fn load_exploration(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<ExplorationStore, lfi_store::StoreError> {
        lfi_store::load_exploration(path)
    }

    /// Saves an [`ExplorationStore`] checkpoint to `path` as a binary
    /// snapshot — the counterpart of [`Lfi::load_exploration`].
    ///
    /// # Errors
    ///
    /// [`lfi_store::StoreError`] naming the path on IO failure.
    pub fn save_exploration(
        &self,
        path: impl AsRef<std::path::Path>,
        store: &ExplorationStore,
    ) -> Result<(), lfi_store::StoreError> {
        lfi_store::save_exploration(path, store)
    }

    /// The store key under which `library`'s profile is (or would be)
    /// cached, when the library is registered.
    ///
    /// The hash folds the *entire* profiling configuration — every registered
    /// library's name and content fingerprint (import resolution may route
    /// through any of them), the profiler options and the kernel image — with
    /// the stable FNV-1a from [`lfi_objfile::stable_hash`], *not*
    /// `DefaultHasher`: a changed dependency must miss even through
    /// [`Lfi::load_profile_store`], and a persisted store must keep replaying
    /// across toolchain upgrades.
    fn profile_key(&self, library: &str) -> Option<ProfileKey> {
        use lfi_objfile::stable_hash::{fold, fold_u64, OFFSET_BASIS};
        let object = self.profiler.library(library)?;
        let mut hash = OFFSET_BASIS;
        for name in self.profiler.library_names() {
            hash = fold(hash, name.as_bytes());
            hash = fold_u64(hash, self.profiler.library_fingerprint(name).unwrap_or(0));
        }
        hash = fold_u64(hash, self.profiler.options().stable_hash());
        hash = fold_u64(hash, u64::from(self.profiler.kernel_fingerprint().is_some()));
        hash = fold_u64(hash, self.profiler.kernel_fingerprint().unwrap_or(0));
        Some(ProfileKey::new(library, Some(object.platform().to_string()), hash))
    }

    /// A report replayed from the store: the stored profile with stats that
    /// say so (`served_from_store`, zero analysis time).
    fn replay_report(&self, library: &str, profile: &FaultProfile) -> LibraryProfileReport {
        let stats = ProfilingStats {
            functions_analyzed: profile.function_count(),
            code_size_bytes: self.profiler.library(library).map_or(0, SharedObject::code_size),
            served_from_store: true,
            ..ProfilingStats::default()
        };
        LibraryProfileReport { profile: profile.clone(), stats }
    }

    /// Profiles one registered library, replaying the [`ProfileStore`] when
    /// it already holds a profile for this exact binary, options and kernel.
    ///
    /// # Errors
    ///
    /// See [`Profiler::profile_library`].
    pub fn profile(&self, library: &str) -> Result<LibraryProfileReport, ProfilerError> {
        let Some(key) = self.profile_key(library) else {
            return Err(ProfilerError::UnknownLibrary { name: library.to_owned() });
        };
        if let Some(stored) = self.store.get(&key) {
            return Ok(self.replay_report(library, &stored));
        }
        let report = self.profiler.profile_library(library)?;
        self.store.insert(key, report.profile.clone());
        Ok(report)
    }

    /// Profiles every registered library: stored profiles replay instantly,
    /// the rest run through the profiler's worker pool as one batch.
    ///
    /// # Errors
    ///
    /// See [`Profiler::profile_all`].
    pub fn profile_all(&self) -> Result<Vec<LibraryProfileReport>, ProfilerError> {
        let names: Vec<String> = self.profiler.library_names().map(str::to_owned).collect();
        let mut reports: Vec<Option<LibraryProfileReport>> = names.iter().map(|_| None).collect();
        let mut missing: Vec<&str> = Vec::new();
        let mut missing_slots: Vec<(usize, ProfileKey)> = Vec::new();
        for (slot, name) in names.iter().enumerate() {
            let key = self.profile_key(name).expect("library_names() yields registered libraries");
            if let Some(stored) = self.store.get(&key) {
                reports[slot] = Some(self.replay_report(name, &stored));
            } else {
                missing.push(name);
                missing_slots.push((slot, key));
            }
        }
        for ((slot, key), report) in missing_slots.into_iter().zip(self.profiler.profile_many(&missing)?) {
            self.store.insert(key, report.profile.clone());
            reports[slot] = Some(report);
        }
        Ok(reports.into_iter().map(|r| r.expect("every slot filled")).collect())
    }

    /// The fault profiles of the named libraries, profiling on demand (and
    /// replaying the [`ProfileStore`] where possible).
    ///
    /// # Errors
    ///
    /// Fails when any named library is unknown or cannot be disassembled.
    pub fn profiles_of(&self, libraries: &[&str]) -> Result<Vec<FaultProfile>, ProfilerError> {
        Ok(self.shared_profiles(libraries)?.1.to_vec())
    }

    /// The named libraries' profiles as one shared slice, with their store
    /// keys.  Every library resolves through the store first, in order —
    /// profiling on a miss — so an unknown or broken library fails here
    /// exactly as in [`Lfi::profiles_of`], before any memo lookup.  The
    /// slice comes from the memo while the store still holds the profiles
    /// it was copied from.
    fn shared_profiles(&self, libraries: &[&str]) -> Result<(Vec<ProfileKey>, Arc<[FaultProfile]>), ProfilerError> {
        let mut keys = Vec::with_capacity(libraries.len());
        let mut handles = Vec::with_capacity(libraries.len());
        for &library in libraries {
            let Some(key) = self.profile_key(library) else {
                return Err(ProfilerError::UnknownLibrary { name: library.to_owned() });
            };
            let handle = match self.store.get(&key) {
                Some(stored) => stored,
                None => self.store.insert(key.clone(), self.profiler.profile_library(library)?.profile),
            };
            keys.push(key);
            handles.push(handle);
        }
        let profiles = self.memo.profiles(&keys, handles);
        Ok((keys, profiles))
    }

    /// The profiles of `libraries` and the fault space of `generator`'s
    /// plan over them.  A generator with a
    /// [`cache_key`](ScenarioGenerator::cache_key) gets the space built once
    /// per profile set; one without is generated and enumerated every call.
    fn fault_space<G>(&self, generator: &G, libraries: &[&str]) -> Result<(Arc<[FaultProfile]>, FaultSpace), LfiError>
    where
        G: ScenarioGenerator + ?Sized,
    {
        let (keys, profiles) = self.shared_profiles(libraries)?;
        let build = || FaultSpace::from_plan(&generator.generate(&profiles));
        let space = match generator.cache_key() {
            Some(key) => self.memo.space(&keys, &profiles, key, build),
            None => build(),
        };
        Ok((profiles, space))
    }

    /// Profiles the named libraries and runs any [`ScenarioGenerator`] over
    /// the result (§4's pluggable faultload generation).
    ///
    /// # Errors
    ///
    /// Fails when any named library is unknown or cannot be disassembled.
    pub fn scenario<G>(&self, generator: &G, libraries: &[&str]) -> Result<Plan, LfiError>
    where
        G: ScenarioGenerator + ?Sized,
    {
        Ok(generator.generate(&self.shared_profiles(libraries)?.1))
    }

    /// Profiles the named libraries, runs the generator, and returns a
    /// [`Campaign`] pre-populated with one test case per generated plan
    /// entry — set an execution policy and a parallelism degree, then hand
    /// a [`Workload`](lfi_controller::Workload) to [`Campaign::start`] for
    /// a streaming session of case events (or [`Campaign::run_workload`]
    /// for the blocking report).
    ///
    /// # Errors
    ///
    /// Fails when any named library is unknown or cannot be disassembled.
    pub fn campaign<G>(&self, generator: &G, libraries: &[&str]) -> Result<Campaign, LfiError>
    where
        G: ScenarioGenerator + ?Sized,
    {
        Ok(Campaign::from_generator(generator, &self.shared_profiles(libraries)?.1))
    }

    /// Profiles the named libraries, runs the generator, and returns an
    /// [`Explorer`] whose universe is the generated plan's [`FaultSpace`]
    /// and whose crash escalation draws sibling errnos from the profiles —
    /// the adaptive counterpart of [`Lfi::campaign`].  Profiles and space
    /// come from the facade's memo (see [`Lfi`]), so a repeat call costs
    /// only the explorer's own frontier.  Configure
    /// (seed, batch size, budgets), then call [`Explorer::run_workload`] or
    /// drive it batch by batch with [`Explorer::step_workload`], snapshotting
    /// [`Explorer::store`] for kill-safe resumption.
    ///
    /// # Errors
    ///
    /// Fails when any named library is unknown or cannot be disassembled.
    pub fn explore<G>(&self, generator: &G, libraries: &[&str]) -> Result<Explorer, LfiError>
    where
        G: ScenarioGenerator + ?Sized,
    {
        let (profiles, space) = self.fault_space(generator, libraries)?;
        Ok(Explorer::from_space(&space, profiles))
    }

    /// Profiles the named libraries, runs the generator, and returns a
    /// [`ClosedLoop`]: an [`Explorer`] whose refinement policy is the given
    /// [`RuleSet`] instead of the built-in crash-adjacent heuristic.  Rules
    /// evaluate live on the campaign's event stream (the control-plane
    /// contract pinned in [`lfi_rules`]); frontier-shaping decisions —
    /// escalate, mute, re-weight — apply between batches, and a `Mute`,
    /// `Pause` or `Cancel` also cancels the rest of its batch.  Drive it with
    /// [`ClosedLoop::run_workload`] or batch by batch with
    /// [`ClosedLoop::step_workload`], then read
    /// [`ClosedLoop::decision_log`] for the byte-stable audit trail.
    ///
    /// # Errors
    ///
    /// Fails when any named library is unknown or cannot be disassembled.
    pub fn rules<G>(&self, generator: &G, libraries: &[&str], set: RuleSet) -> Result<ClosedLoop, LfiError>
    where
        G: ScenarioGenerator + ?Sized,
    {
        let (profiles, space) = self.fault_space(generator, libraries)?;
        Ok(ClosedLoop::new(Explorer::from_space(&space, profiles), set))
    }

    /// Rebuilds an [`Explorer`] from a persisted [`ExplorationStore`]
    /// (profiling the named libraries for the escalation profiles), resuming
    /// a killed exploration exactly where its last snapshot left off.
    ///
    /// # Errors
    ///
    /// Fails when any named library is unknown or cannot be disassembled.
    pub fn resume_exploration(&self, store: &ExplorationStore, libraries: &[&str]) -> Result<Explorer, LfiError> {
        Ok(Explorer::resume(self.shared_profiles(libraries)?.1, store))
    }

    /// A [`FabricBuilder`](lfi_fabric::FabricBuilder) for the long-running
    /// multi-tenant service: register workloads, pick a fleet size, and
    /// `build()` a [`Fabric`](lfi_fabric::Fabric) that multiplexes many
    /// named jobs — each a plan from [`Lfi::scenario`] — over one shared
    /// work-stealing worker fleet with crash-safe lease handoff.
    ///
    /// The fabric owns the execution side and the facade keeps no state for
    /// it: a job's plan comes from the profiling pipeline above, and the
    /// fabric enumerates its [`FaultSpace`] at submit time.
    pub fn fabric(&self) -> lfi_fabric::FabricBuilder {
        lfi_fabric::Fabric::builder()
    }

    /// Generates the exhaustive scenario over the given libraries (§4);
    /// shorthand for [`Lfi::scenario`] with [`Exhaustive`].
    ///
    /// # Errors
    ///
    /// Fails when any named library is unknown or cannot be disassembled.
    pub fn exhaustive_scenario(&self, libraries: &[&str]) -> Result<Plan, LfiError> {
        self.scenario(&Exhaustive, libraries)
    }

    /// Generates the random scenario over the given libraries (§4);
    /// shorthand for [`Lfi::scenario`] with [`Random`].
    ///
    /// # Errors
    ///
    /// Fails when the probability is NaN or outside `[0, 1]`, or when any
    /// named library is unknown or cannot be disassembled.
    pub fn random_scenario(&self, libraries: &[&str], probability: f64, seed: u64) -> Result<Plan, LfiError> {
        self.scenario(&Random::new(probability, seed)?, libraries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
    use lfi_controller::FnWorkload;
    use lfi_isa::Platform;
    use lfi_runtime::{ExitStatus, NativeLibrary, Process};
    use lfi_scenario::generator::Filtered;

    fn demo() -> SharedObject {
        LibraryCompiler::new()
            .compile(
                &LibrarySpec::new("libdemo.so", Platform::LinuxX86)
                    .function(FunctionSpec::scalar("a", 1).success(0).fault(FaultSpec::returning(-1)))
                    .function(
                        FunctionSpec::scalar("b", 1)
                            .success(0)
                            .fault(FaultSpec::returning(-2))
                            .fault(FaultSpec::returning(-3)),
                    ),
            )
            .object
    }

    #[test]
    fn facade_profiles_and_generates_scenarios() {
        let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
        lfi.add_library(demo());
        lfi.set_kernel(lfi_corpus::build_kernel(Platform::LinuxX86));
        let report = lfi.profile("libdemo.so").unwrap();
        assert_eq!(report.profile.function_count(), 2);
        let exhaustive = lfi.exhaustive_scenario(&["libdemo.so"]).unwrap();
        assert_eq!(exhaustive.len(), 3);
        let random = lfi.random_scenario(&["libdemo.so"], 0.1, 1).unwrap();
        assert_eq!(random.len(), 2);
        assert!(lfi.profile_all().is_ok());
        assert!(lfi.profile("libmissing.so").is_err());
        assert!(lfi.profiler().library("libdemo.so").is_some());
    }

    #[test]
    fn facade_accepts_any_generator_and_reports_typed_errors() {
        let mut lfi = Lfi::new();
        lfi.add_library(demo());

        // A combinator generator through the same entry point.
        let narrowed = lfi
            .scenario(&Filtered::new(Exhaustive).allow(["b"]).max_entries(1), &["libdemo.so"])
            .unwrap();
        assert_eq!(narrowed.intercepted_functions(), vec!["b"]);
        assert_eq!(narrowed.len(), 1);

        // Unknown libraries and invalid probabilities map to distinct
        // LfiError variants (and both render a message).
        let missing = lfi.scenario(&Exhaustive, &["libmissing.so"]).unwrap_err();
        assert!(matches!(missing, LfiError::Profiler(_)));
        assert!(missing.to_string().contains("profiling failed"));
        assert!(missing.source().is_some());
        let invalid = lfi.random_scenario(&["libdemo.so"], f64::NAN, 1).unwrap_err();
        assert!(matches!(invalid, LfiError::Scenario(ScenarioError::InvalidProbability { .. })));
        assert!(invalid.source().is_some());
    }

    #[test]
    fn profile_store_replays_and_invalidates() {
        let mut lfi = Lfi::new();
        lfi.add_library(demo());
        let cold = lfi.profile("libdemo.so").unwrap();
        assert!(!cold.stats.served_from_store);
        assert_eq!(lfi.profile_store().len(), 1);

        // Second call replays the stored profile, byte for byte.
        let warm = lfi.profile("libdemo.so").unwrap();
        assert!(warm.stats.served_from_store);
        assert_eq!(warm.profile, cold.profile);
        assert_eq!(warm.stats.functions_analyzed, cold.stats.functions_analyzed);

        // profile_all mixes replayed and fresh work transparently.
        let all = lfi.profile_all().unwrap();
        assert_eq!(all.len(), 1);
        assert!(all[0].stats.served_from_store);

        // The XML round-trip reloads into a store the facade accepts.
        let exported = lfi.profile_store().to_xml();
        let mut restored = Lfi::new();
        restored.add_library(demo());
        restored.load_profile_store(lfi_profile::ProfileStore::from_xml(&exported).unwrap());
        let replayed = restored.profile("libdemo.so").unwrap();
        assert!(replayed.stats.served_from_store);
        assert_eq!(replayed.profile, cold.profile);

        // Re-registering identical content keeps the store; new content
        // clears it.
        lfi.add_library(demo());
        assert_eq!(lfi.profile_store().len(), 1);
        let modified = LibraryCompiler::new()
            .compile(
                &LibrarySpec::new("libdemo.so", Platform::LinuxX86)
                    .function(FunctionSpec::scalar("a", 1).success(0).fault(FaultSpec::returning(-9))),
            )
            .object;
        lfi.add_library(modified);
        assert!(lfi.profile_store().is_empty());
        let reprofiled = lfi.profile("libdemo.so").unwrap();
        assert!(!reprofiled.stats.served_from_store);
        assert!(reprofiled.profile.function("a").unwrap().error_values().contains(&-9));

        // A kernel registration also invalidates (syscall errors feed
        // profiles).
        lfi.set_kernel(lfi_corpus::build_kernel(Platform::LinuxX86));
        assert!(lfi.profile_store().is_empty());
    }

    #[test]
    fn profile_store_files_round_trip_in_both_formats() {
        let dir = std::env::temp_dir().join(format!("lfi-facade-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut lfi = Lfi::new();
        lfi.add_library(demo());
        let cold = lfi.profile("libdemo.so").unwrap();

        // Binary save → sniffing load replays warm, byte for byte.
        let binary = dir.join("profiles.lfis");
        lfi.save_profile_store(&binary).unwrap();
        let mut restored = Lfi::new();
        restored.add_library(demo());
        restored.load_profile_store_file(&binary).unwrap();
        let replayed = restored.profile("libdemo.so").unwrap();
        assert!(replayed.stats.served_from_store);
        assert_eq!(replayed.profile, cold.profile);

        // The same sniffing loader takes the XML interchange form.
        let xml = dir.join("profiles.xml");
        std::fs::write(&xml, lfi.profile_store().to_xml()).unwrap();
        let mut from_xml = Lfi::new();
        from_xml.add_library(demo());
        from_xml.load_profile_store_file(&xml).unwrap();
        assert!(from_xml.profile("libdemo.so").unwrap().stats.served_from_store);

        // Hostile input is a typed error naming the path, never a panic.
        let truncated = dir.join("truncated.lfis");
        let bytes = std::fs::read(&binary).unwrap();
        std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
        let error = restored.load_profile_store_file(&truncated).unwrap_err();
        assert!(error.to_string().contains("truncated.lfis"), "error names the path: {error}");

        // Exploration checkpoints share the facade's save/load pair.
        let checkpoint = dir.join("exploration.lfis");
        let store = lfi_explore::ExplorationStore::from_xml(
            "<exploration-store seed=\"7\" batch-size=\"4\" parallelism=\"1\" halt-on-crash=\"false\" \
             universe=\"0\" batch-index=\"0\" rng-draws=\"0\" probe-done=\"false\" crash-found=\"false\" \
             cases-executed=\"0\" injections-performed=\"0\" elapsed-ms=\"0\"><budget /><frontier />\
             <executed /><unreached /><pruned /><coverage /><clusters /></exploration-store>",
        )
        .unwrap();
        lfi.save_exploration(&checkpoint, &store).unwrap();
        assert_eq!(lfi.load_exploration(&checkpoint).unwrap(), store);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_keys_cover_the_whole_dependency_set() {
        // libapp.so's profile embeds resolutions from libinner.so, so a store
        // exported against one libinner must not replay against another —
        // even when it is loaded *after* registration, where add_library's
        // clear() cannot intervene.
        fn app() -> SharedObject {
            LibraryCompiler::new()
                .compile(
                    &LibrarySpec::new("libapp.so", Platform::LinuxX86)
                        .dependency("libinner.so")
                        .import("inner", Some("libinner.so"))
                        .function(FunctionSpec::scalar("entry", 1).success(0).fault(FaultSpec::via_callee("inner"))),
                )
                .object
        }
        fn inner(ret: i64) -> SharedObject {
            LibraryCompiler::new()
                .compile(
                    &LibrarySpec::new("libinner.so", Platform::LinuxX86)
                        .function(FunctionSpec::scalar("inner", 0).success(0).fault(FaultSpec::returning(ret))),
                )
                .object
        }

        let mut first = Lfi::new();
        first.add_library(app());
        first.add_library(inner(-1));
        assert!(first
            .profile("libapp.so")
            .unwrap()
            .profile
            .function("entry")
            .unwrap()
            .error_values()
            .contains(&-1));
        let xml = first.profile_store().to_xml();

        let mut second = Lfi::new();
        second.add_library(app());
        second.add_library(inner(-7));
        second.load_profile_store(lfi_profile::ProfileStore::from_xml(&xml).unwrap());
        let report = second.profile("libapp.so").unwrap();
        assert!(!report.stats.served_from_store);
        let entry = report.profile.function("entry").unwrap();
        assert!(entry.error_values().contains(&-7));
        assert!(!entry.error_values().contains(&-1));
    }

    #[test]
    fn options_are_part_of_the_store_key() {
        // The same binary profiled under different options must not collide:
        // keys fold the options in, so a store exported from a heuristics-on
        // facade misses in a conservative one.
        let mut tuned = Lfi::with_options(ProfilerOptions::with_heuristics());
        tuned.add_library(demo());
        tuned.profile("libdemo.so").unwrap();
        let mut conservative = Lfi::new();
        conservative.add_library(demo());
        conservative.load_profile_store(tuned.profile_store().clone());
        let report = conservative.profile("libdemo.so").unwrap();
        assert!(!report.stats.served_from_store);
        // Conservative profiling keeps the 0 success return; a (wrong) store
        // hit would have replayed the heuristics-filtered profile.
        assert!(report.profile.function("a").unwrap().error_values().contains(&0));
    }

    #[test]
    fn facade_explore_closes_the_loop_and_resumes() {
        let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
        lfi.add_library(demo());
        let runtime = NativeLibrary::builder("libdemo.so").function("a", |_| 0).function("b", |_| 0).build();
        // A workload that crashes when b() fails with -3 and merely errors
        // on every other injected fault, as one shared Workload object.
        let workload = FnWorkload::shared(
            "demo-ab",
            move || {
                let mut process = Process::new();
                process.load(runtime.clone());
                process
            },
            |process: &mut Process| {
                let _ = process.call("a", &[1]);
                match process.call("b", &[1]) {
                    Ok(-3) => ExitStatus::Crashed(lfi_runtime::Signal::Segv),
                    Ok(n) if n < 0 => ExitStatus::Exited(1),
                    _ => ExitStatus::Exited(0),
                }
            },
        );

        let mut explorer = lfi.explore(&Exhaustive, &["libdemo.so"]).unwrap().seed(5).batch_size(2);
        assert_eq!(explorer.universe_len(), 3, "a: -1; b: -2, -3");
        // Drive one batch, snapshot, resume through the facade, finish.
        let first = explorer.step_workload(&workload).unwrap();
        assert_eq!(first.outcomes.len(), 1, "the probe batch");
        let store = lfi_explore::ExplorationStore::from_xml(&explorer.store().to_xml()).unwrap();
        let mut resumed = lfi.resume_exploration(&store, &["libdemo.so"]).unwrap();
        let report = resumed.run_workload(&workload);
        assert!(resumed.finished());
        // The three universe cells plus the crash-escalated neighbour at
        // b's next call ordinal (which turns out unreached).
        assert_eq!(report.coverage.executed, 4);
        assert!(resumed.crash_found());
        assert_eq!(report.crash_clusters().count(), 1);
        assert_eq!(report.crash_clusters().next().unwrap().example.retval, -3);

        assert!(lfi.explore(&Exhaustive, &["libmissing.so"]).is_err());
        assert!(lfi.resume_exploration(&store, &["libmissing.so"]).is_err());
    }

    /// Whether two spaces share one allocation, i.e. one was not rebuilt.
    fn same_space(a: &(Arc<[FaultProfile]>, FaultSpace), b: &(Arc<[FaultProfile]>, FaultSpace)) -> bool {
        std::ptr::eq(a.1.cells(), b.1.cells()) && Arc::ptr_eq(&a.0, &b.0)
    }

    /// An exhaustive planner under a cache key of its own.
    struct Rekeyed(u64);

    impl ScenarioGenerator for Rekeyed {
        fn name(&self) -> &str {
            "rekeyed"
        }

        fn generate(&self, profiles: &[FaultProfile]) -> Plan {
            Exhaustive.generate(profiles)
        }

        fn cache_key(&self) -> Option<u64> {
            Some(self.0)
        }
    }

    #[test]
    fn the_fault_space_is_built_once_per_profile_set_and_generator() {
        const LIBS: &[&str] = &["libdemo.so"];
        let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
        lfi.add_library(demo());
        let exhaustive = |lfi: &Lfi| lfi.fault_space(&Exhaustive, LIBS).unwrap();
        let first = exhaustive(&lfi);
        assert_eq!(first.1.len(), 3);
        assert!(same_space(&exhaustive(&lfi), &first), "a repeat call hits");

        // The forwarding impls reach the same entry.
        assert!(same_space(&lfi.fault_space(&Box::new(Exhaustive), LIBS).unwrap(), &first));
        assert!(same_space(&lfi.fault_space(&&Exhaustive, LIBS).unwrap(), &first));
        assert_eq!(lfi.explore(&Box::new(Exhaustive), LIBS).unwrap().universe_len(), 3);
        assert_eq!(lfi.explore(&&Exhaustive, LIBS).unwrap().universe_len(), 3);
        assert!(same_space(&exhaustive(&lfi), &first));

        // A different key builds its own space, and keeps it.
        let rekeyed = lfi.fault_space(&Rekeyed(1), LIBS).unwrap();
        assert_eq!(rekeyed.1, first.1);
        assert!(!same_space(&rekeyed, &first));
        assert!(Arc::ptr_eq(&rekeyed.0, &first.0), "one profile set under both keys");
        assert!(same_space(&lfi.fault_space(&Rekeyed(1), LIBS).unwrap(), &rekeyed));
        assert!(same_space(&exhaustive(&lfi), &first));

        // Generators without a key are never memoized.
        let random = Random::new(0.5, 1).unwrap();
        let filtered = Filtered::new(Exhaustive).allow(["b"]);
        let composite = lfi_scenario::Composite::new().push(Exhaustive);
        let uncached: [&dyn ScenarioGenerator; 3] = [&random, &filtered, &composite];
        for generator in uncached {
            let once = lfi.fault_space(generator, LIBS).unwrap();
            let twice = lfi.fault_space(generator, LIBS).unwrap();
            assert_eq!(once.1, twice.1);
            assert!(!std::ptr::eq(once.1.cells(), twice.1.cells()), "{} is rebuilt", generator.name());
        }

        // Re-registering identical content keeps the memo; new content
        // rebuilds it.
        lfi.add_library(demo());
        assert!(same_space(&exhaustive(&lfi), &first));
        lfi.add_library(
            LibraryCompiler::new()
                .compile(
                    &LibrarySpec::new("libdemo.so", Platform::LinuxX86)
                        .function(FunctionSpec::scalar("a", 1).success(0).fault(FaultSpec::returning(-9))),
                )
                .object,
        );
        let modified = exhaustive(&lfi);
        assert!(!same_space(&modified, &first));
        assert_eq!(modified.1.len(), 1);
        assert!(same_space(&exhaustive(&lfi), &modified));

        // A new kernel rebuilds it.
        lfi.set_kernel(lfi_corpus::build_kernel(Platform::LinuxX86));
        let kernel = exhaustive(&lfi);
        assert!(!same_space(&kernel, &modified));
        assert!(same_space(&exhaustive(&lfi), &kernel));

        // Loading a store rebuilds it, even one sharing the current
        // store's profiles.
        lfi.load_profile_store(lfi.profile_store().clone());
        let loaded = exhaustive(&lfi);
        assert!(!same_space(&loaded, &kernel));
        assert!(same_space(&exhaustive(&lfi), &loaded));

        let path = std::env::temp_dir().join(format!("lfi-facade-memo-{}.lfis", std::process::id()));
        lfi.save_profile_store(&path).unwrap();
        lfi.load_profile_store_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let from_file = exhaustive(&lfi);
        assert!(!same_space(&from_file, &loaded));
        assert!(same_space(&exhaustive(&lfi), &from_file));

        // So does a store cleared behind the facade's back: the memo serves
        // only the profiles the store still holds.
        lfi.profile_store().clear();
        let recomputed = exhaustive(&lfi);
        assert!(!same_space(&recomputed, &from_file));
        assert_eq!(recomputed.1, from_file.1);
    }

    #[test]
    fn a_memo_hit_never_skips_an_error() {
        let mut lfi = Lfi::new();
        lfi.add_library(demo());
        lfi.explore(&Exhaustive, &["libdemo.so"]).unwrap();
        let unknown = LfiError::Profiler(ProfilerError::UnknownLibrary { name: "nope.so".into() });
        for libraries in [&["libdemo.so", "nope.so"], &["nope.so", "libdemo.so"]] {
            assert_eq!(lfi.explore(&Exhaustive, libraries).unwrap_err(), unknown);
            assert_eq!(lfi.rules(&Exhaustive, libraries, RuleSet::new()).unwrap_err(), unknown);
            assert_eq!(lfi.scenario(&Exhaustive, libraries).unwrap_err(), unknown);
            assert_eq!(LfiError::from(lfi.profiles_of(libraries).unwrap_err()), unknown);
        }
        let store = lfi.explore(&Exhaustive, &["libdemo.so"]).unwrap().store();
        assert_eq!(lfi.resume_exploration(&store, &["libdemo.so", "nope.so"]).unwrap_err(), unknown);
        assert!(lfi.explore(&Exhaustive, &["libdemo.so"]).is_ok(), "the memo survives the errors");
    }

    #[test]
    fn facade_fabric_runs_a_generated_plan() {
        // The facade generates the plan; the fabric executes it as a job on
        // its shared fleet.
        let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
        lfi.add_library(demo());
        let plan = lfi.exhaustive_scenario(&["libdemo.so"]).unwrap();
        let runtime = NativeLibrary::builder("libdemo.so").function("a", |_| 0).function("b", |_| 0).build();
        let fabric = lfi
            .fabric()
            .workers(1)
            .register(FnWorkload::new(
                "demo-ab",
                move || {
                    let mut process = Process::new();
                    process.load(runtime.clone());
                    process
                },
                |process: &mut Process| {
                    let mut worst = 0i64;
                    for _ in 0..3 {
                        worst = worst.min(process.call("a", &[1]).unwrap_or(0));
                        worst = worst.min(process.call("b", &[1]).unwrap_or(0));
                    }
                    if worst < 0 {
                        ExitStatus::Exited(1)
                    } else {
                        ExitStatus::Exited(0)
                    }
                },
            ))
            .build();
        let job = fabric.submit(lfi_fabric::JobSpec::new("demo", "demo-ab", plan)).unwrap();
        assert!(fabric.wait_idle(std::time::Duration::from_secs(30)));
        let report = fabric.report(job).unwrap();
        assert_eq!(report.state, lfi_fabric::JobState::Done);
        assert_eq!(report.coverage.executed, 3);
        assert_eq!(report.coverage.failures, 3);
        let reports = fabric.drain();
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn facade_campaign_runs_end_to_end() {
        // Heuristics on: the profile lists exactly the fault values (-1, -2,
        // -3), so the exhaustive campaign has one case per fault.
        let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
        lfi.add_library(demo());
        let runtime = NativeLibrary::builder("libdemo.so").function("a", |_| 0).function("b", |_| 0).build();
        let campaign = lfi.campaign(&Exhaustive, &["libdemo.so"]).unwrap();
        assert_eq!(campaign.case_list().len(), 3);
        let report = campaign.parallelism(3).run_workload(FnWorkload::new(
            "demo",
            move || {
                let mut process = Process::new();
                process.load(runtime.clone());
                process
            },
            |process| {
                // Call both functions a few times so every trigger ordinal
                // in the per-entry cases can fire.
                let mut worst = 0i64;
                for _ in 0..3 {
                    worst = worst.min(process.call("a", &[1]).unwrap_or(0));
                    worst = worst.min(process.call("b", &[1]).unwrap_or(0));
                }
                if worst < 0 {
                    ExitStatus::Exited(1)
                } else {
                    ExitStatus::Exited(0)
                }
            },
        ));
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report.failures().count(), 3);
        assert_eq!(report.total_injections(), 3);
        assert!(lfi.campaign(&Exhaustive, &["libmissing.so"]).is_err());
    }
}
