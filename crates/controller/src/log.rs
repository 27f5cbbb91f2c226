use std::fmt;

use lfi_intern::Symbol;
use lfi_profile::SideEffect;

use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};

/// One injection performed by the controller, as recorded in the LFI log
/// (§5.2: "a text file that records each injection, the applied side effects,
/// and the events that triggered that injection").
///
/// Function and stack-frame names are stored as interned [`Symbol`]s — the
/// hot path that records them never allocates a string; names are resolved
/// when a report is rendered ([`TestLog::to_text`]) or via
/// [`InjectionRecord::function_name`].
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionRecord {
    /// Intercepted function.
    pub function: Symbol,
    /// Which call to the function this was (1-based).
    pub call_number: u64,
    /// Return value injected, if the call was not passed through.
    pub retval: Option<i64>,
    /// errno value injected, if any.
    pub errno: Option<i64>,
    /// Side effects applied.
    pub side_effects: Vec<SideEffect>,
    /// Whether the original function was still invoked.
    pub call_original: bool,
    /// The call stack at injection time, innermost frame last.
    pub stack: Vec<Symbol>,
}

impl InjectionRecord {
    /// The intercepted function's name.
    pub fn function_name(&self) -> &'static str {
        self.function.as_str()
    }

    /// The call stack resolved to names, innermost frame last.
    pub(crate) fn stack_names(&self) -> Vec<&'static str> {
        self.stack.iter().map(|frame| frame.as_str()).collect()
    }
}

/// The log produced by one fault-injection run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TestLog {
    /// Every injection, in the order it happened.
    pub injections: Vec<InjectionRecord>,
    /// Total number of intercepted calls (with or without injection).
    pub intercepted_calls: u64,
    /// Intercepted-call totals per function, sorted by function *name* so the
    /// listing is reproducible across processes.  This is the per-case
    /// reached-how-far data exploration engines prune on: a planned
    /// nth-call fault whose function shows fewer than `n` calls here was
    /// never reached.
    pub calls_per_function: Vec<(Symbol, u64)>,
}

impl TestLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of injections performed.
    pub fn injection_count(&self) -> usize {
        self.injections.len()
    }

    /// How many intercepted calls reached `function` during the run (0 when
    /// the function was never called, or not intercepted at all).
    pub fn calls_to_sym(&self, function: Symbol) -> u64 {
        self.calls_per_function
            .iter()
            .find(|(symbol, _)| *symbol == function)
            .map_or(0, |(_, count)| *count)
    }

    /// Renders the log as the human-readable text file the paper describes
    /// (names are resolved here, on the report path).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# LFI test log: {} intercepted calls, {} injections\n",
            self.intercepted_calls,
            self.injections.len()
        ));
        for (index, record) in self.injections.iter().enumerate() {
            out.push_str(&format!(
                "[{index}] {} call #{}: retval={} errno={} calloriginal={}\n",
                record.function_name(),
                record.call_number,
                record.retval.map_or_else(|| "-".to_owned(), |v| v.to_string()),
                record.errno.map_or_else(|| "-".to_owned(), |v| v.to_string()),
                record.call_original,
            ));
            if !record.side_effects.is_empty() {
                for effect in &record.side_effects {
                    out.push_str(&format!(
                        "      side-effect {} {}@{:#x} = {}\n",
                        effect.kind, effect.module, effect.offset, effect.value
                    ));
                }
            }
            if !record.stack.is_empty() {
                out.push_str(&format!("      stack: {}\n", record.stack_names().join(" <- ")));
            }
        }
        out
    }

    /// Distills a deterministic replay script from the log (§5.2): each
    /// recorded injection becomes a call-count trigger with the exact fault
    /// that was applied, so the test case can be reproduced and attached to a
    /// regression suite.
    pub fn replay_plan(&self) -> Plan {
        let mut plan = Plan::new();
        for record in &self.injections {
            plan.entries.push(PlanEntry {
                function: record.function_name().to_owned(),
                trigger: Trigger::on_call(record.call_number),
                action: FaultAction {
                    retval: record.retval,
                    errno: record.errno,
                    side_effects: record.side_effects.clone(),
                    call_original: record.call_original,
                    arg_modifications: Vec::new(),
                    random_choices: Vec::new(),
                },
            });
        }
        plan
    }
}

impl fmt::Display for TestLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} injections over {} intercepted calls", self.injections.len(), self.intercepted_calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_profile::SideEffect;

    fn sample_log() -> TestLog {
        TestLog {
            injections: vec![
                InjectionRecord {
                    function: Symbol::intern("read"),
                    call_number: 5,
                    retval: Some(-1),
                    errno: Some(4),
                    side_effects: vec![SideEffect::tls("libc.so.6", 0x12fff4, 4)],
                    call_original: false,
                    stack: vec![Symbol::intern("resolver_child"), Symbol::intern("read")],
                },
                InjectionRecord {
                    function: Symbol::intern("write"),
                    call_number: 2,
                    retval: None,
                    errno: None,
                    side_effects: Vec::new(),
                    call_original: true,
                    stack: Vec::new(),
                },
            ],
            intercepted_calls: 40,
            calls_per_function: vec![(Symbol::intern("read"), 30), (Symbol::intern("write"), 10)],
        }
    }

    #[test]
    fn text_rendering_mentions_every_injection() {
        let log = sample_log();
        let text = log.to_text();
        assert!(text.contains("read call #5"));
        assert!(text.contains("write call #2"));
        assert!(text.contains("side-effect"));
        assert!(text.contains("resolver_child <- read"));
        assert!(log.to_string().contains("2 injections"));
        assert_eq!(log.injections[0].function_name(), "read");
        assert_eq!(log.injections[0].stack_names(), vec!["resolver_child", "read"]);
    }

    #[test]
    fn replay_plan_reproduces_each_injection_deterministically() {
        let log = sample_log();
        let replay = log.replay_plan();
        assert_eq!(replay.len(), 2);
        assert_eq!(replay.entries[0].function, "read");
        assert_eq!(replay.entries[0].trigger.inject_at_call, Some(5));
        assert_eq!(replay.entries[0].action.retval, Some(-1));
        assert_eq!(replay.entries[0].action.errno, Some(4));
        assert!(replay.entries[1].action.call_original);
        // The replay plan survives the XML round trip so it can be stored in
        // regression suites.
        assert_eq!(Plan::from_xml(&replay.to_xml()).unwrap(), replay);
    }

    #[test]
    fn per_function_call_totals() {
        let log = sample_log();
        assert_eq!(log.calls_to_sym(Symbol::intern("read")), 30);
        assert_eq!(log.calls_to_sym(Symbol::intern("write")), 10);
        assert_eq!(log.calls_to_sym(Symbol::intern("close_never_seen")), 0);
        assert_eq!(log.injection_count(), 2);
    }
}
