//! Closed-loop control over fabric jobs: a [`JobMonitor`] polls a job's
//! event stream through a [`FabricClient`] — the wire protocol's `events`
//! and `status` verbs — feeds a [`RuleEngine`], and applies `Pause`/`Cancel`
//! decisions through the client's job controls.  The same monitor drives a
//! local fleet ([`FabricHandle::connect`](lfi_fabric::FabricHandle::connect))
//! or a remote campaign service ([`FabricClient::tcp`]).

use lfi_explore::CellResult;
use lfi_fabric::{FabricClient, JobEvent, JobEventKind, JobId, WireError};
use lfi_intern::Symbol;
use lfi_scenario::FaultCell;

use crate::engine::{Action, Decision, RuleEngine, RuleSet};

/// Drives a per-job [`RuleEngine`] from a fabric job's event stream.
///
/// [`JobMonitor::poll`] pulls the next page of events after the cursor and
/// folds each into the engine.  A `Finished` event folds the cell its case
/// name parses to ([`FaultCell::parse`]) with the [`CellResult`] the event
/// carries, so the engine keys clusters as the job's
/// [`FaultLedger`](lfi_explore::FaultLedger) does.  The monitor then applies
/// any `Pause`/`Cancel` decisions through the client and refreshes the
/// `job/*` status gauges in the engine's sink.  A failed page read is the
/// caller's error to see, so a broken transport never reads as a stream
/// that is caught up.
///
/// Determinism note: the job event stream is already serialized (dense
/// `seq`), so rule evaluation order is exact regardless of poll timing —
/// polling more or less often changes *when* decisions apply, never *what*
/// the decision log contains up to a given event seq.
#[derive(Debug)]
pub struct JobMonitor {
    client: FabricClient,
    job: JobId,
    cursor: u64,
    engine: RuleEngine,
}

impl JobMonitor {
    /// Monitors `job` through `client`, evaluating `set`.
    pub fn new(client: FabricClient, job: JobId, set: RuleSet) -> Self {
        JobMonitor { client, job, cursor: 0, engine: RuleEngine::new(set) }
    }

    /// The monitored job.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// The event-stream cursor (next `seq` to read).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The engine (decision log, state, metrics).
    pub fn engine(&self) -> &RuleEngine {
        &self.engine
    }

    /// Mutable engine access (e.g. [`RuleEngine::clear_pause`] after a
    /// resume).
    pub fn engine_mut(&mut self) -> &mut RuleEngine {
        &mut self.engine
    }

    /// Pulls up to `max` events, folds them, applies control decisions,
    /// and refreshes status gauges.  Returns how many events were folded;
    /// `Ok(0)` means the cursor is at the stream head.
    ///
    /// # Errors
    ///
    /// The [`WireError`] of the page read when the transport fails or the
    /// server refuses it (an unknown job); nothing is folded then.
    pub fn poll(&mut self, max: usize) -> Result<usize, WireError> {
        let (next, events) = self.client.events(self.job, self.cursor, max)?;
        self.cursor = next;
        let folded = events.len();
        let before = self.engine.decisions().len();
        for event in events {
            self.fold(event);
        }
        let new: Vec<Decision> = self.engine.decisions()[before..].to_vec();
        // A refused transition (the job already ended) changes nothing.
        for decision in &new {
            match decision.action {
                Action::Pause => {
                    let _ = self.client.pause(self.job);
                }
                Action::Cancel => {
                    let _ = self.client.cancel(self.job);
                }
                _ => {}
            }
        }
        if let Ok(snapshot) = self.client.status(self.job) {
            let sink = self.engine.sink_mut();
            sink.gauge("job/pending", &[], snapshot.pending as f64);
            sink.gauge("job/outstanding", &[], snapshot.outstanding as f64);
            sink.gauge("job/started", &[], snapshot.progress.started as f64);
            sink.gauge("job/finished", &[], snapshot.progress.finished as f64);
            sink.gauge("job/skipped", &[], snapshot.progress.skipped as f64);
            sink.gauge("job/crashes", &[], snapshot.progress.crashes as f64);
            sink.gauge("job/injections", &[], snapshot.progress.injections as f64);
            sink.gauge("job/requeued", &[], snapshot.requeued as f64);
            sink.gauge("job/clusters", &[], snapshot.clusters as f64);
        }
        self.engine.export_vitals();
        Ok(folded)
    }

    /// Folds one wire event into the engine.
    fn fold(&mut self, event: JobEvent) {
        match event.kind {
            JobEventKind::State(state) => {
                let sink = self.engine.sink_mut();
                sink.incr("job/state_changes", &[("state", &state.to_string())], 1.0);
            }
            JobEventKind::Started { .. } => {
                self.engine.started();
            }
            JobEventKind::Injection { function, .. } => {
                self.engine.injection(Symbol::intern(&function));
            }
            JobEventKind::Finished { case, outcome, injections, stack } => {
                // The fabric runs no baseline probe, so observed calls are
                // unknown — and no cluster key reads them.
                let result = CellResult { outcome, injections: injections as u64, observed_calls: 0, stack };
                self.engine.finished(FaultCell::parse(&case), &result);
            }
            JobEventKind::Skipped { .. } => {
                self.engine.skipped();
            }
            JobEventKind::Requeued { cells } => {
                self.engine.sink_mut().incr("job/requeued_cells", &[], cells as f64);
            }
        }
    }
}
