//! The [`ScenarioGenerator`] abstraction: pluggable faultload generators.
//!
//! §4 of the paper describes scenario generation as an open-ended activity —
//! exhaustive sweeps, random sampling, ready-made libc faultloads, and
//! hand-written plans all coexist.  This module turns that into a first-class
//! trait so campaigns can be parameterized by *how* their faultload is
//! produced: the built-in generators ([`Exhaustive`], [`Random`],
//! [`ReadyMade`], [`TriggerLoad`]) plus the combinators ([`Filtered`],
//! [`Composite`]) cover the paper's §4 catalogue, and user crates can plug in
//! their own implementations.
//!
//! ```
//! use lfi_profile::{ErrorReturn, FaultProfile, FunctionProfile};
//! use lfi_scenario::generator::{Exhaustive, Filtered, Random, ScenarioGenerator};
//!
//! let mut profile = FaultProfile::new("libc.so.6");
//! profile.push_function(FunctionProfile {
//!     name: "read".into(),
//!     error_returns: vec![ErrorReturn::bare(-1)],
//! });
//! profile.push_function(FunctionProfile {
//!     name: "write".into(),
//!     error_returns: vec![ErrorReturn::bare(-1)],
//! });
//!
//! let everything = Exhaustive.generate(std::slice::from_ref(&profile));
//! assert_eq!(everything.len(), 2);
//!
//! let only_read = Filtered::new(Exhaustive).allow(["read"]).generate(std::slice::from_ref(&profile));
//! assert_eq!(only_read.intercepted_functions(), vec!["read"]);
//!
//! // Probabilities are validated up front (NaN and out-of-range rejected).
//! assert!(Random::new(f64::NAN, 1).is_err());
//! assert!(Random::new(0.1, 1).is_ok());
//! ```

use std::collections::BTreeSet;

use lfi_profile::FaultProfile;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::{FaultAction, Plan, PlanEntry, ScenarioError, Trigger};

/// A faultload generator: turns fault profiles into an executable [`Plan`].
///
/// Implementations are cheap, reusable value objects; the same generator can
/// be applied to many profile sets.  `name` is a stable slug used to label
/// campaign test cases, `description` is free-form metadata for reports.
pub trait ScenarioGenerator {
    /// Stable, human-readable slug identifying the generator kind
    /// (e.g. `"exhaustive"`, `"random"`).
    fn name(&self) -> &str;

    /// One-line description including the generator's parameters.
    fn description(&self) -> String {
        self.name().to_owned()
    }

    /// Generates the faultload over the given profiles.
    fn generate(&self, profiles: &[FaultProfile]) -> Plan;

    /// A key under which what this generator derives from a profile set may
    /// be memoized, or `None` (the default) for "never cache".
    ///
    /// Two generators that return the same `Some(key)` must generate the
    /// same plan from the same profiles, whatever their type.  Return
    /// `Some` only when the plan is a pure function of the profiles and the
    /// key: a generator whose output depends on parameters the key does not
    /// capture — or on a wrapped generator, as for [`Filtered`] and
    /// [`Composite`] — keeps `None`.  [`ScenarioGenerator::name`] is no
    /// key: every [`Filtered`] is named `"filtered"`, whatever it wraps.
    fn cache_key(&self) -> Option<u64> {
        None
    }
}

impl<G: ScenarioGenerator + ?Sized> ScenarioGenerator for &G {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn description(&self) -> String {
        (**self).description()
    }

    fn generate(&self, profiles: &[FaultProfile]) -> Plan {
        (**self).generate(profiles)
    }

    fn cache_key(&self) -> Option<u64> {
        (**self).cache_key()
    }
}

impl<G: ScenarioGenerator + ?Sized> ScenarioGenerator for Box<G> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn description(&self) -> String {
        (**self).description()
    }

    fn generate(&self, profiles: &[FaultProfile]) -> Plan {
        (**self).generate(profiles)
    }

    fn cache_key(&self) -> Option<u64> {
        (**self).cache_key()
    }
}

/// Validates an injection probability: must be a number in `[0, 1]`.
fn validated_probability(probability: f64) -> Result<f64, ScenarioError> {
    if probability.is_nan() || !(0.0..=1.0).contains(&probability) {
        return Err(ScenarioError::InvalidProbability { value: probability });
    }
    Ok(probability)
}

// ---------------------------------------------------------------------------
// Exhaustive
// ---------------------------------------------------------------------------

/// The *exhaustive* scenario of §4: every exported function of every profiled
/// library is included, and consecutive calls to a function iterate through
/// its possible error codes (call 1 injects the first fault, call 2 the
/// second, …).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exhaustive;

/// The exhaustive generator's cache key: an arbitrary constant (`"exhaust"`
/// in ASCII) that a user generator is unlikely to pick by accident.
const EXHAUSTIVE_CACHE_KEY: u64 = 0x0074_7375_6168_7865;

impl ScenarioGenerator for Exhaustive {
    fn name(&self) -> &str {
        "exhaustive"
    }

    fn description(&self) -> String {
        "exhaustive: one call-count trigger per profiled error value".to_owned()
    }

    /// The exhaustive plan has no parameters: one key covers it.
    fn cache_key(&self) -> Option<u64> {
        Some(EXHAUSTIVE_CACHE_KEY)
    }

    fn generate(&self, profiles: &[FaultProfile]) -> Plan {
        let mut plan = Plan::new();
        for profile in profiles {
            for function in &profile.functions {
                let mut call_ordinal = 1u64;
                for error in &function.error_returns {
                    if error.side_effects.is_empty() {
                        plan.entries.push(PlanEntry {
                            function: function.name.clone(),
                            trigger: Trigger::on_call(call_ordinal),
                            action: FaultAction { retval: Some(error.retval), ..FaultAction::default() },
                        });
                        call_ordinal += 1;
                    } else {
                        for effect in &error.side_effects {
                            plan.entries.push(PlanEntry {
                                function: function.name.clone(),
                                trigger: Trigger::on_call(call_ordinal),
                                action: FaultAction {
                                    retval: Some(error.retval),
                                    side_effects: vec![effect.clone()],
                                    ..FaultAction::default()
                                },
                            });
                            call_ordinal += 1;
                        }
                    }
                }
            }
        }
        plan
    }
}

// ---------------------------------------------------------------------------
// Random
// ---------------------------------------------------------------------------

/// The *random* scenario of §4: each profiled function gets one
/// probability-triggered entry whose injected error is drawn uniformly from
/// the function's fault set every time the trigger fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Random {
    probability: f64,
    seed: u64,
}

impl Random {
    /// Creates a random-scenario generator.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidProbability`] when `probability` is
    /// NaN or outside `[0, 1]` — previously such values silently produced
    /// degenerate plans (never- or always-firing triggers).
    pub fn new(probability: f64, seed: u64) -> Result<Self, ScenarioError> {
        Ok(Random { probability: validated_probability(probability)?, seed })
    }

    /// The per-call injection probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// The seed recorded in generated plans (drives the controller's RNG).
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl ScenarioGenerator for Random {
    fn name(&self) -> &str {
        "random"
    }

    fn description(&self) -> String {
        format!("random: p={} seed={}", self.probability, self.seed)
    }

    fn generate(&self, profiles: &[FaultProfile]) -> Plan {
        let mut plan = Plan::new().with_seed(self.seed);
        for profile in profiles {
            for function in &profile.functions {
                if function.error_returns.is_empty() {
                    continue;
                }
                plan.entries.push(PlanEntry {
                    function: function.name.clone(),
                    trigger: Trigger::with_probability(self.probability),
                    action: FaultAction { random_choices: function.error_returns.clone(), ..FaultAction::default() },
                });
            }
        }
        plan
    }
}

// ---------------------------------------------------------------------------
// ReadyMade
// ---------------------------------------------------------------------------

/// Which of the §4 ready-made libc faultloads to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ReadyMadeKind {
    FileIo,
    Memory,
    SocketIo,
    RandomIo { probability: f64, seed: u64 },
}

/// The ready-made libc scenarios of §4 ("all faults related to file I/O, all
/// memory allocation faults, or all socket I/O faults"), as a generator.
///
/// Wraps the function lists of [`crate::ready_made`]; profiles are narrowed
/// to the selected subset before generation, so the generator composes with
/// any profile set, not just libc.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadyMade {
    kind: ReadyMadeKind,
}

impl ReadyMade {
    /// Exhaustive injection over the file-I/O functions.
    pub fn file_io() -> Self {
        ReadyMade { kind: ReadyMadeKind::FileIo }
    }

    /// Exhaustive injection over the memory-allocation functions.
    pub fn memory() -> Self {
        ReadyMade { kind: ReadyMadeKind::Memory }
    }

    /// Exhaustive injection over the socket-I/O functions.
    pub fn socket_io() -> Self {
        ReadyMade { kind: ReadyMadeKind::SocketIo }
    }

    /// Random injection over the I/O functions (file + socket) — the §6.1
    /// Pidgin configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidProbability`] for NaN or
    /// out-of-`[0, 1]` probabilities.
    pub fn random_io(probability: f64, seed: u64) -> Result<Self, ScenarioError> {
        Ok(ReadyMade { kind: ReadyMadeKind::RandomIo { probability: validated_probability(probability)?, seed } })
    }

    fn functions(&self) -> Vec<&'static str> {
        match self.kind {
            ReadyMadeKind::FileIo => crate::ready_made::FILE_IO_FUNCTIONS.to_vec(),
            ReadyMadeKind::Memory => crate::ready_made::MEMORY_FUNCTIONS.to_vec(),
            ReadyMadeKind::SocketIo => crate::ready_made::SOCKET_FUNCTIONS.to_vec(),
            ReadyMadeKind::RandomIo { .. } => {
                let mut functions = crate::ready_made::FILE_IO_FUNCTIONS.to_vec();
                functions.extend_from_slice(crate::ready_made::SOCKET_FUNCTIONS);
                functions
            }
        }
    }
}

impl ScenarioGenerator for ReadyMade {
    fn name(&self) -> &str {
        match self.kind {
            ReadyMadeKind::FileIo => "ready-made-file-io",
            ReadyMadeKind::Memory => "ready-made-memory",
            ReadyMadeKind::SocketIo => "ready-made-socket-io",
            ReadyMadeKind::RandomIo { .. } => "ready-made-random-io",
        }
    }

    fn description(&self) -> String {
        match self.kind {
            ReadyMadeKind::RandomIo { probability, seed } => {
                format!("ready-made random I/O faults: p={probability} seed={seed}")
            }
            _ => format!("ready-made {} faults (exhaustive)", self.name().trim_start_matches("ready-made-")),
        }
    }

    fn generate(&self, profiles: &[FaultProfile]) -> Plan {
        let functions = self.functions();
        let narrowed: Vec<FaultProfile> = profiles
            .iter()
            .map(|profile| {
                let mut narrowed = profile.clone();
                narrowed.retain_functions(&functions);
                narrowed
            })
            .collect();
        match self.kind {
            ReadyMadeKind::RandomIo { probability, seed } => Random { probability, seed }.generate(&narrowed),
            _ => Exhaustive.generate(&narrowed),
        }
    }
}

// ---------------------------------------------------------------------------
// TriggerLoad
// ---------------------------------------------------------------------------

/// The "N triggers on the top-K most-called functions" construction used by
/// the overhead experiments (Tables 3 and 4): exactly `count` call-count
/// triggers spread round-robin over the given functions, drawing error codes
/// from the profiles.  `passthrough` keeps the benchmark completing by always
/// calling the original function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerLoad {
    functions: Vec<String>,
    count: usize,
    passthrough: bool,
    seed: u64,
}

impl TriggerLoad {
    /// Creates a trigger-load generator over the named functions.
    pub fn new<I, S>(functions: I, count: usize, seed: u64) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TriggerLoad { functions: functions.into_iter().map(Into::into).collect(), count, passthrough: true, seed }
    }

    /// Sets whether triggered calls still reach the original function
    /// (default `true`, the overhead-experiment configuration).
    pub fn passthrough(mut self, passthrough: bool) -> Self {
        self.passthrough = passthrough;
        self
    }
}

impl ScenarioGenerator for TriggerLoad {
    fn name(&self) -> &str {
        "trigger-load"
    }

    fn description(&self) -> String {
        format!(
            "trigger-load: {} triggers over {} functions (passthrough={}, seed={})",
            self.count,
            self.functions.len(),
            self.passthrough,
            self.seed
        )
    }

    fn generate(&self, profiles: &[FaultProfile]) -> Plan {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut plan = Plan::new().with_seed(self.seed);
        if self.functions.is_empty() || self.count == 0 {
            return plan;
        }
        // Collect the fault pool per function (empty profiles fall back to -1).
        let pool_for = |name: &str| -> Vec<i64> {
            for profile in profiles {
                if let Some(function) = profile.function(name) {
                    let values: Vec<i64> = function.error_values().into_iter().collect();
                    if !values.is_empty() {
                        return values;
                    }
                }
            }
            vec![-1]
        };
        for i in 0..self.count {
            let function = &self.functions[i % self.functions.len()];
            let pool = pool_for(function);
            // The -1 fallback keeps this total even if the pool helper ever
            // returns an empty vector.
            let retval = *pool.choose(&mut rng).unwrap_or(&-1);
            let inject_at = rng.gen_range(1..=1000u64);
            let mut action = FaultAction::return_value(retval);
            action.call_original = self.passthrough;
            plan.entries
                .push(PlanEntry { function: function.clone(), trigger: Trigger::on_call(inject_at), action });
        }
        plan
    }
}

// ---------------------------------------------------------------------------
// Filtered
// ---------------------------------------------------------------------------

/// A combinator that narrows another generator's plan: function allow/deny
/// lists and an entry-count cap.  Filtering is a pure restriction — the
/// resulting entries are always a subset of the inner generator's entries
/// (checked by a property test in `tests/property_tests.rs`).
#[derive(Debug, Clone)]
pub struct Filtered<G> {
    inner: G,
    allow: Option<BTreeSet<String>>,
    deny: BTreeSet<String>,
    max_entries: Option<usize>,
}

impl<G: ScenarioGenerator> Filtered<G> {
    /// Wraps a generator with no restrictions yet.
    pub fn new(inner: G) -> Self {
        Filtered { inner, allow: None, deny: BTreeSet::new(), max_entries: None }
    }

    /// Keeps only entries for the named functions (an allow-list; repeated
    /// calls extend the list).
    pub fn allow<I, S>(mut self, functions: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.allow.get_or_insert_with(BTreeSet::new).extend(functions.into_iter().map(Into::into));
        self
    }

    /// Drops entries for the named functions (a deny-list; applied after the
    /// allow-list and extendable by repeated calls).
    pub fn deny<I, S>(mut self, functions: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.deny.extend(functions.into_iter().map(Into::into));
        self
    }

    /// Caps the plan at the first `max` surviving entries.
    pub fn max_entries(mut self, max: usize) -> Self {
        self.max_entries = Some(max);
        self
    }
}

impl<G: ScenarioGenerator> ScenarioGenerator for Filtered<G> {
    fn name(&self) -> &str {
        "filtered"
    }

    fn description(&self) -> String {
        format!(
            "filtered({}): allow={:?} deny={} cap={:?}",
            self.inner.description(),
            self.allow.as_ref().map(BTreeSet::len),
            self.deny.len(),
            self.max_entries
        )
    }

    fn generate(&self, profiles: &[FaultProfile]) -> Plan {
        let mut plan = self.inner.generate(profiles);
        plan.entries.retain(|entry| {
            self.allow.as_ref().is_none_or(|allow| allow.contains(&entry.function))
                && !self.deny.contains(&entry.function)
        });
        if let Some(max) = self.max_entries {
            plan.entries.truncate(max);
        }
        plan
    }
}

// ---------------------------------------------------------------------------
// Composite
// ---------------------------------------------------------------------------

/// A combinator that concatenates the plans of several generators, in order.
/// The first constituent plan that carries a seed provides the composite
/// plan's seed.
#[derive(Default)]
pub struct Composite {
    parts: Vec<Box<dyn ScenarioGenerator + Send + Sync>>,
}

impl Composite {
    /// An empty composite (generates an empty plan until parts are added).
    pub fn new() -> Self {
        Composite::default()
    }

    /// Appends a constituent generator.
    pub fn push(mut self, generator: impl ScenarioGenerator + Send + Sync + 'static) -> Self {
        self.parts.push(Box::new(generator));
        self
    }

    /// Number of constituent generators.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when no generators were added.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl std::fmt::Debug for Composite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Composite").field("parts", &self.description()).finish()
    }
}

impl ScenarioGenerator for Composite {
    fn name(&self) -> &str {
        "composite"
    }

    fn description(&self) -> String {
        let parts: Vec<String> = self.parts.iter().map(|p| p.description()).collect();
        format!("composite[{}]", parts.join(" + "))
    }

    fn generate(&self, profiles: &[FaultProfile]) -> Plan {
        let mut plan = Plan::new();
        for part in &self.parts {
            let generated = part.generate(profiles);
            if plan.seed.is_none() {
                plan.seed = generated.seed;
            }
            plan.entries.extend(generated.entries);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_profile::{ErrorReturn, FunctionProfile, SideEffect};

    fn demo_profile() -> FaultProfile {
        let mut profile = FaultProfile::new("libc.so.6");
        profile.push_function(FunctionProfile {
            name: "close".into(),
            error_returns: vec![ErrorReturn {
                retval: -1,
                side_effects: vec![
                    SideEffect::tls("libc.so.6", 0x12fff4, 9),
                    SideEffect::tls("libc.so.6", 0x12fff4, 5),
                ],
            }],
        });
        profile.push_function(FunctionProfile {
            name: "read".into(),
            error_returns: vec![ErrorReturn::bare(-1), ErrorReturn::bare(0)],
        });
        profile.push_function(FunctionProfile { name: "malloc".into(), error_returns: vec![ErrorReturn::bare(0)] });
        profile.push_function(FunctionProfile::new("getpid"));
        profile
    }

    #[test]
    fn exhaustive_iterates_error_codes_per_call() {
        let plan = Exhaustive.generate(&[demo_profile()]);
        // close: 2 errno alternatives; read: 2 bare codes; malloc: 1; getpid: none.
        assert_eq!(plan.len(), 5);
        let close_entries: Vec<_> = plan.entries_for("close").collect();
        assert_eq!(close_entries[0].trigger.inject_at_call, Some(1));
        assert_eq!(close_entries[1].trigger.inject_at_call, Some(2));
        assert_eq!(close_entries[0].action.side_effects[0].value, 9);
        assert_eq!(close_entries[1].action.side_effects[0].value, 5);
        assert!(plan.entries_for("getpid").next().is_none());
        assert!(!plan.entries.iter().any(|e| e.action.call_original));
        assert_eq!(Exhaustive.name(), "exhaustive");
        assert!(Exhaustive.description().contains("exhaustive"));
    }

    #[test]
    fn random_has_one_entry_per_faulty_function_and_validates_probability() {
        let generator = Random::new(0.1, 7).unwrap();
        assert_eq!(generator.probability(), 0.1);
        assert_eq!(generator.seed(), 7);
        let plan = generator.generate(&[demo_profile()]);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.seed, Some(7));
        for entry in &plan.entries {
            assert_eq!(entry.trigger.probability, Some(0.1));
            assert!(!entry.action.random_choices.is_empty());
        }

        for bad in [f64::NAN, -0.1, 1.1, f64::INFINITY, f64::NEG_INFINITY] {
            let error = Random::new(bad, 1).unwrap_err();
            assert!(matches!(error, ScenarioError::InvalidProbability { .. }), "{bad} accepted");
            assert!(error.to_string().contains("probability"));
        }
        // The boundary values are legal.
        assert!(Random::new(0.0, 1).is_ok());
        assert!(Random::new(1.0, 1).is_ok());
        assert!(Random::new(0.1, 7).unwrap().description().contains("p=0.1"));
    }

    #[test]
    fn ready_made_generators_mirror_the_free_functions() {
        let profile = demo_profile();
        let file_io = ReadyMade::file_io().generate(std::slice::from_ref(&profile));
        assert_eq!(file_io.intercepted_functions(), vec!["close", "read"]);
        let memory = ReadyMade::memory().generate(std::slice::from_ref(&profile));
        assert_eq!(memory.intercepted_functions(), vec!["malloc"]);
        let sockets = ReadyMade::socket_io().generate(std::slice::from_ref(&profile));
        assert!(sockets.is_empty());
        let random_io = ReadyMade::random_io(0.25, 3).unwrap().generate(std::slice::from_ref(&profile));
        assert_eq!(random_io.intercepted_functions(), vec!["close", "read"]);
        assert!(random_io.entries.iter().all(|e| e.trigger.probability == Some(0.25)));
        assert!(ReadyMade::random_io(2.0, 3).is_err());
        assert!(ReadyMade::file_io().description().contains("file-io"));
    }

    #[test]
    fn trigger_load_produces_requested_count_and_is_deterministic() {
        let profiles = [demo_profile()];
        let generator = TriggerLoad::new(["close", "read"], 100, 99);
        let a = generator.generate(&profiles);
        let b = generator.generate(&profiles);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(a.entries.iter().all(|e| e.action.call_original));
        // Functions without profile data fall back to -1.
        let c = TriggerLoad::new(["unknown_fn"], 3, 1).passthrough(false).generate(&profiles);
        assert!(c.entries.iter().all(|e| e.action.retval == Some(-1)));
        assert!(!c.entries.iter().any(|e| e.action.call_original));
        assert!(TriggerLoad::new(Vec::<String>::new(), 10, 1).generate(&profiles).is_empty());
        assert!(TriggerLoad::new(["close"], 0, 1).generate(&profiles).is_empty());
        assert!(generator.description().contains("100 triggers"));
    }

    #[test]
    fn filtered_restricts_and_caps() {
        let profile = demo_profile();
        let all = Exhaustive.generate(std::slice::from_ref(&profile));

        let allowed = Filtered::new(Exhaustive)
            .allow(["read", "getpid"])
            .generate(std::slice::from_ref(&profile));
        assert_eq!(allowed.intercepted_functions(), vec!["read"]);

        let denied = Filtered::new(Exhaustive).deny(["close"]).generate(std::slice::from_ref(&profile));
        assert!(denied.entries_for("close").next().is_none());
        assert_eq!(denied.len(), all.len() - 2);

        let capped = Filtered::new(Exhaustive).max_entries(2).generate(std::slice::from_ref(&profile));
        assert_eq!(capped.len(), 2);
        assert_eq!(capped.entries[..], all.entries[..2]);

        let chained = Filtered::new(Exhaustive)
            .allow(["close", "read"])
            .deny(["close"])
            .max_entries(1)
            .generate(std::slice::from_ref(&profile));
        assert_eq!(chained.len(), 1);
        assert_eq!(chained.entries[0].function, "read");
        assert!(Filtered::new(Exhaustive).allow(["a"]).description().contains("filtered"));
    }

    #[test]
    fn filtered_entries_are_a_subset_of_the_inner_plan() {
        let profile = demo_profile();
        let all = Exhaustive.generate(std::slice::from_ref(&profile));
        let filtered = Filtered::new(Exhaustive)
            .allow(["close", "read", "malloc"])
            .deny(["read"])
            .max_entries(3)
            .generate(std::slice::from_ref(&profile));
        for entry in &filtered.entries {
            assert!(all.entries.contains(entry), "filtered invented {entry:?}");
        }
    }

    #[test]
    fn composite_concatenates_and_takes_the_first_seed() {
        let profile = demo_profile();
        let composite = Composite::new()
            .push(Filtered::new(Exhaustive).allow(["read"]))
            .push(Random::new(0.5, 11).unwrap());
        assert_eq!(composite.len(), 2);
        assert!(!composite.is_empty());
        let plan = composite.generate(std::slice::from_ref(&profile));
        // 2 exhaustive read entries + 3 random entries.
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.seed, Some(11));
        assert!(composite.description().contains("composite["));
        assert!(format!("{composite:?}").contains("Composite"));

        let empty = Composite::new();
        assert!(empty.is_empty());
        assert!(empty.generate(std::slice::from_ref(&profile)).is_empty());
    }

    #[test]
    fn generators_compose_through_references_and_boxes() {
        let profile = demo_profile();
        let by_ref: &dyn ScenarioGenerator = &Exhaustive;
        assert_eq!(by_ref.generate(std::slice::from_ref(&profile)).len(), 5);
        let boxed: Box<dyn ScenarioGenerator> = Box::new(Exhaustive);
        assert_eq!(boxed.name(), "exhaustive");
        assert_eq!(boxed.generate(std::slice::from_ref(&profile)).len(), 5);
        // A Filtered over a reference works too (no ownership required).
        let filtered = Filtered::new(&Exhaustive).max_entries(1);
        assert_eq!(filtered.generate(std::slice::from_ref(&profile)).len(), 1);
    }

    #[test]
    fn only_the_exhaustive_generator_is_cacheable() {
        let key = Exhaustive.cache_key();
        assert!(key.is_some());
        // The forwarding impls forward the key.
        fn key_of<G: ScenarioGenerator>(generator: G) -> Option<u64> {
            generator.cache_key()
        }
        let by_ref: &Exhaustive = &Exhaustive;
        let by_ref_ref: &&Exhaustive = &by_ref;
        assert_eq!(key_of(by_ref), key);
        assert_eq!(key_of(by_ref_ref), key);
        assert_eq!(key_of(Box::new(Exhaustive)), key);
        let boxed: Box<dyn ScenarioGenerator> = Box::new(Exhaustive);
        assert_eq!(boxed.cache_key(), key);
        // Parameterized and wrapping generators never cache.
        assert_eq!(Random::new(0.5, 1).unwrap().cache_key(), None);
        assert_eq!(Filtered::new(Exhaustive).cache_key(), None);
        assert_eq!(Composite::new().push(Exhaustive).cache_key(), None);
        assert_eq!(ReadyMade::file_io().cache_key(), None);
        assert_eq!(TriggerLoad::new(["read"], 1, 1).cache_key(), None);
    }

    #[test]
    fn xml_round_trip_of_generated_plans() {
        let plan = Exhaustive.generate(&[demo_profile()]);
        assert_eq!(Plan::from_xml(&plan.to_xml()).unwrap(), plan);
        let plan = Random::new(0.25, 3).unwrap().generate(&[demo_profile()]);
        assert_eq!(Plan::from_xml(&plan.to_xml()).unwrap(), plan);
    }
}
