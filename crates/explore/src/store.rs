//! The [`ExplorationStore`]: a lossless XML snapshot of exploration state.
//!
//! Mirrors the role `ProfileStore` plays for profiling (and reuses the same
//! XML machinery from `lfi-profile`): persist it next to the profile store,
//! and a killed campaign resumes deterministically via
//! [`Explorer::resume`](crate::Explorer::resume).

use lfi_intern::Symbol;
use lfi_profile::xml::{self, XmlElement};
use lfi_profile::ProfileError;
use lfi_scenario::FaultCell;

use crate::ledger::{sort_clusters, CrashCluster, FunctionCoverage, OutcomeClass};
use crate::state::FrontierCell;

/// The complete serializable state of an [`Explorer`](crate::Explorer):
/// configuration, budgets, the frontier *in scheduling order*, the coverage
/// map (keyed by interned symbols in memory, by name on disk), the crash
/// cluster table, and the RNG stream position.  `to_xml`/`from_xml` are a
/// lossless round trip, so `Explorer::resume` continues with exactly the
/// remaining batch sequence of the snapshotted run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExplorationStore {
    /// RNG seed of the exploration.
    pub seed: u64,
    /// Cells per batch.
    pub batch_size: usize,
    /// Worker threads per batch.
    pub parallelism: usize,
    /// Stop at the first crashing batch.
    pub halt_on_crash: bool,
    /// Remaining-case bound, if any (total, not remaining — `cases_executed`
    /// counts against it).
    pub case_budget: Option<u64>,
    /// Total-injection bound, if any.
    pub injection_budget: Option<u64>,
    /// Size of the enumerated seed universe.
    pub universe: usize,
    /// Batches executed so far.
    pub batch_index: u64,
    /// Draws consumed from the RNG stream.
    pub rng_draws: u64,
    /// Whether the probe batch ran.
    pub probe_done: bool,
    /// Whether any batch produced a signal death.
    pub crash_found: bool,
    /// Cases executed so far (probe included).
    pub cases_executed: u64,
    /// Injections performed so far.
    pub injections_performed: u64,
    /// Pending cells, in scheduling order, with priorities.
    pub frontier: Vec<FrontierCell>,
    /// Cells already run, sorted by cell key.
    pub executed: Vec<FaultCell>,
    /// Cells whose planned injection is known to never fire (executed
    /// without triggering, or depth-pruned), sorted by cell key.
    pub unreached: Vec<FaultCell>,
    /// Functions pruned wholesale, sorted by name.
    pub pruned_functions: Vec<Symbol>,
    /// Per-function coverage, sorted by name.
    pub coverage: Vec<(Symbol, FunctionCoverage)>,
    /// Crash clusters, in key order (function name, stack frame names,
    /// outcome class).  Every writer keeps this order and every reader
    /// relies on it: the ledger and a delta's fold find clusters by binary
    /// search.  [`ExplorationStore::from_xml`] sorts what it parses, since a
    /// hand-edited file can list clusters in any order.
    pub clusters: Vec<CrashCluster>,
}

fn cell_element(name: &str, cell: &FaultCell) -> XmlElement {
    let mut element = XmlElement::new(name)
        .attr("function", cell.function.as_str())
        .attr("ordinal", cell.call_ordinal)
        .attr("retval", cell.retval);
    if let Some(errno) = cell.errno {
        element = element.attr("errno", errno);
    }
    element
}

fn required<'a>(element: &'a XmlElement, name: &str) -> Result<&'a str, ProfileError> {
    element
        .attribute(name)
        .ok_or_else(|| ProfileError::schema(format!("<{}> missing {name} attribute", element.name)))
}

fn parse_number<T: std::str::FromStr>(field: &str, text: &str) -> Result<T, ProfileError> {
    text.parse()
        .map_err(|_| ProfileError::InvalidNumber { field: field.into(), text: text.to_owned() })
}

fn attr_number<T: std::str::FromStr>(element: &XmlElement, name: &str) -> Result<T, ProfileError> {
    parse_number(name, required(element, name)?)
}

fn attr_number_opt<T: std::str::FromStr>(element: &XmlElement, name: &str) -> Result<Option<T>, ProfileError> {
    element.attribute(name).map(|text| parse_number(name, text)).transpose()
}

fn attr_flag(element: &XmlElement, name: &str) -> bool {
    element.attribute(name) == Some("true")
}

fn parse_cell(element: &XmlElement) -> Result<FaultCell, ProfileError> {
    Ok(FaultCell {
        function: Symbol::intern(required(element, "function")?),
        call_ordinal: attr_number(element, "ordinal")?,
        retval: attr_number(element, "retval")?,
        errno: attr_number_opt(element, "errno")?,
    })
}

impl ExplorationStore {
    /// Serializes the store as an `<exploration-store>` document.  Output is
    /// deterministic: the frontier keeps its scheduling order, every other
    /// collection is written pre-sorted by name/cell key.
    pub fn to_xml(&self) -> String {
        let mut root = XmlElement::new("exploration-store")
            .attr("seed", self.seed)
            .attr("batch-size", self.batch_size)
            .attr("parallelism", self.parallelism)
            .attr("halt-on-crash", self.halt_on_crash)
            .attr("universe", self.universe)
            .attr("batch-index", self.batch_index)
            .attr("rng-draws", self.rng_draws)
            .attr("probe-done", self.probe_done)
            .attr("crash-found", self.crash_found)
            .attr("cases-executed", self.cases_executed)
            .attr("injections-performed", self.injections_performed);

        let mut budget = XmlElement::new("budget");
        if let Some(cases) = self.case_budget {
            budget = budget.attr("cases", cases);
        }
        if let Some(injections) = self.injection_budget {
            budget = budget.attr("injections", injections);
        }
        root = root.child(budget);

        let mut frontier = XmlElement::new("frontier");
        for entry in &self.frontier {
            frontier = frontier.child(cell_element("cell", &entry.cell).attr("priority", entry.priority));
        }
        root = root.child(frontier);

        let mut executed = XmlElement::new("executed");
        for cell in &self.executed {
            executed = executed.child(cell_element("cell", cell));
        }
        root = root.child(executed);

        let mut unreached = XmlElement::new("unreached");
        for cell in &self.unreached {
            unreached = unreached.child(cell_element("cell", cell));
        }
        root = root.child(unreached);

        let mut pruned = XmlElement::new("pruned");
        for symbol in &self.pruned_functions {
            pruned = pruned.child(XmlElement::new("function").attr("name", symbol.as_str()));
        }
        root = root.child(pruned);

        let mut coverage = XmlElement::new("coverage");
        for (symbol, function) in &self.coverage {
            let mut element = XmlElement::new("function")
                .attr("name", symbol.as_str())
                .attr("observed-calls", function.observed_calls);
            for (ordinal, retval, errno) in &function.triggered {
                let mut triggered = XmlElement::new("triggered").attr("ordinal", ordinal).attr("retval", retval);
                if let Some(errno) = errno {
                    triggered = triggered.attr("errno", errno);
                }
                element = element.child(triggered);
            }
            coverage = coverage.child(element);
        }
        root = root.child(coverage);

        let mut clusters = XmlElement::new("clusters");
        for cluster in &self.clusters {
            let mut element = XmlElement::new("cluster")
                .attr("function", cluster.function.as_str())
                .attr("outcome", cluster.outcome)
                .attr("count", cluster.count)
                .attr("example-case", &cluster.example_case)
                .attr("example-ordinal", cluster.example.call_ordinal)
                .attr("example-retval", cluster.example.retval);
            if let Some(errno) = cluster.example.errno {
                element = element.attr("example-errno", errno);
            }
            for frame in &cluster.stack {
                element = element.child(XmlElement::new("frame").attr("name", frame.as_str()));
            }
            clusters = clusters.child(element);
        }
        root = root.child(clusters);

        root.to_xml_string()
    }

    /// Parses a store from its XML form.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] when the document is not well-formed XML or
    /// does not follow the `<exploration-store>` schema.
    pub fn from_xml(text: &str) -> Result<ExplorationStore, ProfileError> {
        let root = xml::parse(text)?;
        if root.name != "exploration-store" {
            return Err(ProfileError::schema(format!("expected <exploration-store>, found <{}>", root.name)));
        }
        let budget = root.first_child("budget");
        let frontier = root
            .first_child("frontier")
            .map(|element| {
                element
                    .children_named("cell")
                    .map(|cell| Ok(FrontierCell { cell: parse_cell(cell)?, priority: attr_number(cell, "priority")? }))
                    .collect::<Result<Vec<_>, ProfileError>>()
            })
            .transpose()?
            .unwrap_or_default();
        let cells_of = |name: &str| -> Result<Vec<FaultCell>, ProfileError> {
            root.first_child(name)
                .map(|element| element.children_named("cell").map(parse_cell).collect())
                .transpose()
                .map(Option::unwrap_or_default)
        };
        let pruned_functions = root
            .first_child("pruned")
            .map(|element| {
                element
                    .children_named("function")
                    .map(|f| Ok(Symbol::intern(required(f, "name")?)))
                    .collect::<Result<Vec<_>, ProfileError>>()
            })
            .transpose()?
            .unwrap_or_default();
        let coverage = root
            .first_child("coverage")
            .map(|element| {
                element
                    .children_named("function")
                    .map(|f| {
                        let symbol = Symbol::intern(required(f, "name")?);
                        let mut function = FunctionCoverage {
                            observed_calls: attr_number(f, "observed-calls")?,
                            ..FunctionCoverage::default()
                        };
                        for triggered in f.children_named("triggered") {
                            function.triggered.insert((
                                attr_number(triggered, "ordinal")?,
                                attr_number(triggered, "retval")?,
                                attr_number_opt(triggered, "errno")?,
                            ));
                        }
                        Ok((symbol, function))
                    })
                    .collect::<Result<Vec<_>, ProfileError>>()
            })
            .transpose()?
            .unwrap_or_default();
        let mut clusters = root
            .first_child("clusters")
            .map(|element| {
                element
                    .children_named("cluster")
                    .map(|c| {
                        let function = Symbol::intern(required(c, "function")?);
                        let outcome_text = required(c, "outcome")?;
                        let outcome = OutcomeClass::parse(outcome_text)
                            .ok_or_else(|| ProfileError::schema(format!("unknown outcome class {outcome_text:?}")))?;
                        Ok(CrashCluster {
                            function,
                            stack: c
                                .children_named("frame")
                                .map(|f| Ok(Symbol::intern(required(f, "name")?)))
                                .collect::<Result<Vec<_>, ProfileError>>()?,
                            outcome,
                            count: attr_number(c, "count")?,
                            example: FaultCell {
                                function,
                                call_ordinal: attr_number(c, "example-ordinal")?,
                                retval: attr_number(c, "example-retval")?,
                                errno: attr_number_opt(c, "example-errno")?,
                            },
                            example_case: required(c, "example-case")?.to_owned(),
                        })
                    })
                    .collect::<Result<Vec<_>, ProfileError>>()
            })
            .transpose()?
            .unwrap_or_default();
        sort_clusters(&mut clusters);
        Ok(ExplorationStore {
            seed: attr_number(&root, "seed")?,
            batch_size: attr_number(&root, "batch-size")?,
            parallelism: attr_number(&root, "parallelism")?,
            halt_on_crash: attr_flag(&root, "halt-on-crash"),
            case_budget: budget.map(|b| attr_number_opt(b, "cases")).transpose()?.flatten(),
            injection_budget: budget.map(|b| attr_number_opt(b, "injections")).transpose()?.flatten(),
            universe: attr_number(&root, "universe")?,
            batch_index: attr_number(&root, "batch-index")?,
            rng_draws: attr_number(&root, "rng-draws")?,
            probe_done: attr_flag(&root, "probe-done"),
            crash_found: attr_flag(&root, "crash-found"),
            cases_executed: attr_number(&root, "cases-executed")?,
            injections_performed: attr_number(&root, "injections-performed")?,
            frontier,
            executed: cells_of("executed")?,
            unreached: cells_of("unreached")?,
            pruned_functions,
            coverage,
            clusters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_runtime::Signal;

    fn cell(function: &str, ordinal: u64, retval: i64, errno: Option<i64>) -> FaultCell {
        FaultCell { function: Symbol::intern(function), call_ordinal: ordinal, retval, errno }
    }

    fn sample_store() -> ExplorationStore {
        let mut coverage = FunctionCoverage { observed_calls: 4, ..FunctionCoverage::default() };
        coverage.triggered.insert((1, -1, Some(9)));
        coverage.triggered.insert((2, -1, None));
        ExplorationStore {
            seed: 7,
            batch_size: 8,
            parallelism: 2,
            halt_on_crash: true,
            case_budget: Some(100),
            injection_budget: None,
            universe: 42,
            batch_index: 3,
            rng_draws: 17,
            probe_done: true,
            crash_found: true,
            cases_executed: 20,
            injections_performed: 18,
            frontier: vec![
                FrontierCell { cell: cell("read", 2, -1, Some(5)), priority: 100 },
                FrontierCell { cell: cell("write", 1, -1, None), priority: -50 },
            ],
            executed: vec![cell("close", 1, -1, Some(9))],
            unreached: vec![cell("close", 9, -1, Some(9))],
            pruned_functions: vec![Symbol::intern("getpid")],
            coverage: vec![(Symbol::intern("close"), coverage)],
            clusters: vec![CrashCluster {
                function: Symbol::intern("close"),
                stack: vec![Symbol::intern("flush_all"), Symbol::intern("close")],
                outcome: OutcomeClass::Crash(Signal::Segv),
                count: 2,
                example: cell("close", 1, -1, Some(5)),
                example_case: "close-c1-r-1-e5".into(),
            }],
        }
    }

    #[test]
    fn xml_round_trip_is_lossless() {
        let store = sample_store();
        let xml = store.to_xml();
        assert!(xml.contains("<exploration-store"));
        assert!(xml.contains("rng-draws=\"17\""));
        assert!(xml.contains("crash:SIGSEGV"));
        let parsed = ExplorationStore::from_xml(&xml).unwrap();
        assert_eq!(parsed, store);
        // Round-tripping the parse again is stable.
        assert_eq!(parsed.to_xml(), xml);
    }

    #[test]
    fn optional_budgets_and_errnos_round_trip() {
        let mut store = sample_store();
        store.case_budget = None;
        store.injection_budget = Some(3);
        store.frontier[0].cell.errno = None;
        store.clusters[0].example.errno = None;
        store.clusters[0].outcome = OutcomeClass::Failure(3);
        store.clusters[0].stack.clear();
        store.crash_found = false;
        let parsed = ExplorationStore::from_xml(&store.to_xml()).unwrap();
        assert_eq!(parsed, store);
    }

    #[test]
    fn clusters_parse_into_key_order() {
        let mut store = sample_store();
        let function = Symbol::intern("write");
        let example = FaultCell { function, ..store.clusters[0].example };
        let write = CrashCluster { function, example, ..store.clusters[0].clone() };
        store.clusters.insert(0, write);
        let parsed = ExplorationStore::from_xml(&store.to_xml()).unwrap();
        store.clusters.reverse();
        assert_eq!(parsed, store, "close sorts before write");
    }

    #[test]
    fn schema_violations_are_reported() {
        assert!(ExplorationStore::from_xml("<plan />").is_err());
        assert!(ExplorationStore::from_xml("not xml at all").is_err());
        // Missing the required counters.
        assert!(ExplorationStore::from_xml("<exploration-store />").is_err());
        // A frontier cell without a function name.
        let bad = sample_store().to_xml().replace("function=\"read\" ", "");
        assert!(ExplorationStore::from_xml(&bad).is_err());
        // A malformed number.
        let bad = sample_store().to_xml().replace("rng-draws=\"17\"", "rng-draws=\"xx\"");
        assert!(matches!(ExplorationStore::from_xml(&bad), Err(ProfileError::InvalidNumber { .. })));
        // An unknown outcome class.
        let bad = sample_store().to_xml().replace("crash:SIGSEGV", "melted");
        assert!(ExplorationStore::from_xml(&bad).is_err());
        // A failure class no run produces: exit 0 is success.
        let bad = sample_store().to_xml().replace("crash:SIGSEGV", "exit:0");
        assert!(ExplorationStore::from_xml(&bad).is_err());
    }
}
