//! Binary encode/decode of the persisted domain types.
//!
//! Writes go through the `bytes` shim's `BufMut`; reads go through a
//! checked [`Reader`], a cursor over the borrowed payload slice that
//! checks the bytes remaining before every access, so hostile or truncated
//! payloads surface as [`StoreError::corrupt`] with a byte offset — never a
//! panic — and decoding copies only the decoded values, never the payload.
//!
//! Everything is little-endian.  Strings are `u32` length + UTF-8 bytes;
//! options are a presence byte; collections are a `u32` count followed by
//! the elements.  [`Symbol`]s are persisted by *name* (and re-interned on
//! load), so files are portable across processes and interning orders.

use bytes::{BufMut, BytesMut};

use lfi_explore::{CrashCluster, ExplorationDelta, ExplorationStore, FrontierCell, FunctionCoverage, OutcomeClass};
use lfi_intern::Symbol;
use lfi_profile::{
    run_pooled, ErrorReturn, FaultProfile, FunctionProfile, ProfileKey, ProfileStore, SideEffect, SideEffectKind,
};
use lfi_scenario::FaultCell;

use crate::StoreError;

/// A bounds-checked read cursor over a borrowed payload: every accessor
/// validates the bytes remaining first and reports the byte offset (within
/// the payload) on failure.  It never copies the payload.
pub(crate) struct Reader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(payload: &'a [u8]) -> Self {
        Self::at(payload, 0)
    }

    /// A cursor positioned at byte `pos` of `payload`, so the offsets its
    /// errors report stay relative to the whole payload.
    fn at(payload: &'a [u8], pos: usize) -> Self {
        Self { payload, pos }
    }

    /// Offset of the next unread byte.
    pub(crate) fn offset(&self) -> u64 {
        self.pos as u64
    }

    fn remaining(&self) -> usize {
        self.payload.len() - self.pos
    }

    /// The next `bytes` bytes, consumed.
    fn take(&mut self, bytes: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < bytes {
            return Err(StoreError::corrupt(self.offset(), format!("truncated while reading {what}")));
        }
        let taken = &self.payload[self.pos..self.pos + bytes];
        self.pos += bytes;
        Ok(taken)
    }

    /// The next `N` bytes as an array, consumed.
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], StoreError> {
        Ok(self.take(N, what)?.try_into().expect("take returns exactly N bytes"))
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, StoreError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    pub(crate) fn i64(&mut self, what: &str) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(self.array(what)?))
    }

    pub(crate) fn flag(&mut self, what: &str) -> Result<bool, StoreError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::corrupt(self.offset() - 1, format!("bad flag byte {other} for {what}"))),
        }
    }

    pub(crate) fn opt_u64(&mut self, what: &str) -> Result<Option<u64>, StoreError> {
        Ok(if self.flag(what)? { Some(self.u64(what)?) } else { None })
    }

    pub(crate) fn opt_i64(&mut self, what: &str) -> Result<Option<i64>, StoreError> {
        Ok(if self.flag(what)? { Some(self.i64(what)?) } else { None })
    }

    /// A collection count, sanity-bounded by the bytes actually remaining
    /// (each element needs at least `min_element` bytes), so a hostile
    /// length can never trigger a huge allocation.
    pub(crate) fn count(&mut self, min_element: usize, what: &str) -> Result<usize, StoreError> {
        let count = self.u32(what)? as usize;
        if count.saturating_mul(min_element.max(1)) > self.remaining() {
            return Err(StoreError::corrupt(self.offset() - 4, format!("impossible {what} count {count}")));
        }
        Ok(count)
    }

    /// Reads a length-prefixed string as a borrowed `&str` (zero-copy).
    fn str(&mut self, what: &str) -> Result<&'a str, StoreError> {
        let len = self.u32(what)? as usize;
        let start = self.offset();
        std::str::from_utf8(self.take(len, what)?).map_err(|_| StoreError::corrupt(start, format!("non-UTF-8 {what}")))
    }

    /// Steps over a length-prefixed string without checking its UTF-8.
    fn skip_str(&mut self, what: &str) -> Result<(), StoreError> {
        let len = self.u32(what)? as usize;
        self.take(len, what).map(drop)
    }

    pub(crate) fn string(&mut self, what: &str) -> Result<String, StoreError> {
        Ok(self.str(what)?.to_owned())
    }

    pub(crate) fn opt_string(&mut self, what: &str) -> Result<Option<String>, StoreError> {
        Ok(if self.flag(what)? { Some(self.string(what)?) } else { None })
    }

    pub(crate) fn symbol(&mut self, what: &str) -> Result<Symbol, StoreError> {
        Ok(Symbol::intern(self.str(what)?))
    }

    /// The payload must be fully consumed — trailing garbage is corruption.
    pub(crate) fn finish(self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::corrupt(self.offset(), "trailing bytes after record payload"));
        }
        Ok(())
    }
}

fn put_string(out: &mut BytesMut, text: &str) {
    out.put_u32_le(text.len() as u32);
    out.put_slice(text.as_bytes());
}

fn put_opt_string(out: &mut BytesMut, text: Option<&str>) {
    match text {
        Some(text) => {
            out.put_u8(1);
            put_string(out, text);
        }
        None => out.put_u8(0),
    }
}

fn put_opt_u64(out: &mut BytesMut, value: Option<u64>) {
    match value {
        Some(value) => {
            out.put_u8(1);
            out.put_u64_le(value);
        }
        None => out.put_u8(0),
    }
}

fn put_opt_i64(out: &mut BytesMut, value: Option<i64>) {
    match value {
        Some(value) => {
            out.put_u8(1);
            out.put_i64_le(value);
        }
        None => out.put_u8(0),
    }
}

fn put_flag(out: &mut BytesMut, value: bool) {
    out.put_u8(u8::from(value));
}

// -- fault cells ------------------------------------------------------------

fn put_cell(out: &mut BytesMut, cell: &FaultCell) {
    put_string(out, cell.function.as_str());
    out.put_u64_le(cell.call_ordinal);
    out.put_i64_le(cell.retval);
    put_opt_i64(out, cell.errno);
}

fn get_cell(r: &mut Reader) -> Result<FaultCell, StoreError> {
    Ok(FaultCell {
        function: r.symbol("cell function")?,
        call_ordinal: r.u64("cell ordinal")?,
        retval: r.i64("cell retval")?,
        errno: r.opt_i64("cell errno")?,
    })
}

fn put_cells(out: &mut BytesMut, cells: &[FaultCell]) {
    out.put_u32_le(cells.len() as u32);
    for cell in cells {
        put_cell(out, cell);
    }
}

fn get_cells(r: &mut Reader, what: &str) -> Result<Vec<FaultCell>, StoreError> {
    let count = r.count(21, what)?;
    let mut cells = Vec::with_capacity(count);
    for _ in 0..count {
        cells.push(get_cell(r)?);
    }
    Ok(cells)
}

fn put_outcome(out: &mut BytesMut, outcome: OutcomeClass) {
    // The Display/parse pair is the stable outcome encoding — shared with
    // the XML store, so the two formats can never drift apart.
    put_string(out, &outcome.to_string());
}

fn get_outcome(r: &mut Reader) -> Result<OutcomeClass, StoreError> {
    let text = r.string("outcome class")?;
    OutcomeClass::parse(&text).ok_or_else(|| StoreError::corrupt(r.offset(), format!("unknown outcome class {text:?}")))
}

fn put_cluster(out: &mut BytesMut, cluster: &CrashCluster) {
    put_string(out, cluster.function.as_str());
    out.put_u32_le(cluster.stack.len() as u32);
    for frame in &cluster.stack {
        put_string(out, frame.as_str());
    }
    put_outcome(out, cluster.outcome);
    out.put_u64_le(cluster.count);
    put_cell(out, &cluster.example);
    put_string(out, &cluster.example_case);
}

fn get_cluster(r: &mut Reader) -> Result<CrashCluster, StoreError> {
    let function = r.symbol("cluster function")?;
    let frames = r.count(4, "cluster stack")?;
    let mut stack = Vec::with_capacity(frames);
    for _ in 0..frames {
        stack.push(r.symbol("stack frame")?);
    }
    Ok(CrashCluster {
        function,
        stack,
        outcome: get_outcome(r)?,
        count: r.u64("cluster count")?,
        example: get_cell(r)?,
        example_case: r.string("cluster example case")?,
    })
}

fn put_clusters(out: &mut BytesMut, clusters: &[CrashCluster]) {
    out.put_u32_le(clusters.len() as u32);
    for cluster in clusters {
        put_cluster(out, cluster);
    }
}

fn get_clusters(r: &mut Reader) -> Result<Vec<CrashCluster>, StoreError> {
    let count = r.count(8, "cluster table")?;
    let mut clusters = Vec::with_capacity(count);
    for _ in 0..count {
        clusters.push(get_cluster(r)?);
    }
    Ok(clusters)
}

fn put_coverage(out: &mut BytesMut, coverage: &[(Symbol, FunctionCoverage)]) {
    out.put_u32_le(coverage.len() as u32);
    for (symbol, function) in coverage {
        put_string(out, symbol.as_str());
        out.put_u64_le(function.observed_calls);
        out.put_u32_le(function.triggered.len() as u32);
        for &(ordinal, retval, errno) in &function.triggered {
            out.put_u64_le(ordinal);
            out.put_i64_le(retval);
            put_opt_i64(out, errno);
        }
    }
}

fn get_coverage(r: &mut Reader) -> Result<Vec<(Symbol, FunctionCoverage)>, StoreError> {
    let count = r.count(16, "coverage table")?;
    let mut coverage = Vec::with_capacity(count);
    for _ in 0..count {
        let symbol = r.symbol("coverage function")?;
        let observed_calls = r.u64("observed calls")?;
        let triggered_count = r.count(17, "triggered cells")?;
        let mut function = FunctionCoverage { observed_calls, triggered: Default::default() };
        for _ in 0..triggered_count {
            let ordinal = r.u64("triggered ordinal")?;
            let retval = r.i64("triggered retval")?;
            let errno = r.opt_i64("triggered errno")?;
            function.triggered.insert((ordinal, retval, errno));
        }
        coverage.push((symbol, function));
    }
    Ok(coverage)
}

fn put_frontier(out: &mut BytesMut, frontier: &[FrontierCell]) {
    out.put_u32_le(frontier.len() as u32);
    for entry in frontier {
        put_cell(out, &entry.cell);
        out.put_i64_le(i64::from(entry.priority));
    }
}

fn get_frontier(r: &mut Reader, what: &str) -> Result<Vec<FrontierCell>, StoreError> {
    let count = r.count(29, what)?;
    let mut frontier = Vec::with_capacity(count);
    for _ in 0..count {
        let cell = get_cell(r)?;
        let priority = r.i64("frontier priority")?;
        let priority = i32::try_from(priority)
            .map_err(|_| StoreError::corrupt(r.offset(), format!("priority {priority} out of range")))?;
        frontier.push(FrontierCell { cell, priority });
    }
    Ok(frontier)
}

// -- exploration store ------------------------------------------------------

/// Encodes an [`ExplorationStore`] snapshot payload.
pub fn encode_exploration_store(store: &ExplorationStore) -> Vec<u8> {
    let mut out = BytesMut::with_capacity(256 + store.frontier.len() * 32);
    out.put_u64_le(store.seed);
    out.put_u64_le(store.batch_size as u64);
    out.put_u64_le(store.parallelism as u64);
    put_flag(&mut out, store.halt_on_crash);
    put_opt_u64(&mut out, store.case_budget);
    put_opt_u64(&mut out, store.injection_budget);
    out.put_u64_le(store.universe as u64);
    out.put_u64_le(store.batch_index);
    out.put_u64_le(store.rng_draws);
    put_flag(&mut out, store.probe_done);
    put_flag(&mut out, store.crash_found);
    out.put_u64_le(store.cases_executed);
    out.put_u64_le(store.injections_performed);
    put_frontier(&mut out, &store.frontier);
    put_cells(&mut out, &store.executed);
    put_cells(&mut out, &store.unreached);
    out.put_u32_le(store.pruned_functions.len() as u32);
    for symbol in &store.pruned_functions {
        put_string(&mut out, symbol.as_str());
    }
    put_coverage(&mut out, &store.coverage);
    put_clusters(&mut out, &store.clusters);
    out.into()
}

/// Decodes an [`ExplorationStore`] snapshot payload.
pub fn decode_exploration_store(payload: &[u8]) -> Result<ExplorationStore, StoreError> {
    let mut r = Reader::new(payload);
    let store = ExplorationStore {
        seed: r.u64("seed")?,
        batch_size: r.u64("batch size")? as usize,
        parallelism: r.u64("parallelism")? as usize,
        halt_on_crash: r.flag("halt_on_crash")?,
        case_budget: r.opt_u64("case budget")?,
        injection_budget: r.opt_u64("injection budget")?,
        universe: r.u64("universe")? as usize,
        batch_index: r.u64("batch index")?,
        rng_draws: r.u64("rng draws")?,
        probe_done: r.flag("probe_done")?,
        crash_found: r.flag("crash_found")?,
        cases_executed: r.u64("cases executed")?,
        injections_performed: r.u64("injections performed")?,
        frontier: get_frontier(&mut r, "frontier")?,
        executed: get_cells(&mut r, "executed cells")?,
        unreached: get_cells(&mut r, "unreached cells")?,
        pruned_functions: {
            let count = r.count(4, "pruned functions")?;
            let mut pruned = Vec::with_capacity(count);
            for _ in 0..count {
                pruned.push(r.symbol("pruned function")?);
            }
            pruned
        },
        coverage: get_coverage(&mut r)?,
        clusters: get_clusters(&mut r)?,
    };
    r.finish()?;
    Ok(store)
}

// -- exploration delta ------------------------------------------------------

/// Encodes an [`ExplorationDelta`] payload: the absolute counters, then
/// the frontier upserts, executed and unreached cells, pruned functions,
/// coverage entries and clusters.  Removed frontier cells are not written:
/// [`ExplorationDelta::apply`] derives them.
pub fn encode_exploration_delta(delta: &ExplorationDelta) -> Vec<u8> {
    let mut out = BytesMut::with_capacity(128);
    out.put_u64_le(delta.batch_index);
    out.put_u64_le(delta.rng_draws);
    put_flag(&mut out, delta.probe_done);
    put_flag(&mut out, delta.crash_found);
    out.put_u64_le(delta.cases_executed);
    out.put_u64_le(delta.injections_performed);
    put_frontier(&mut out, &delta.frontier_upsert);
    put_cells(&mut out, &delta.executed);
    put_cells(&mut out, &delta.unreached);
    out.put_u32_le(delta.pruned_functions.len() as u32);
    for symbol in &delta.pruned_functions {
        put_string(&mut out, symbol.as_str());
    }
    put_coverage(&mut out, &delta.coverage);
    put_clusters(&mut out, &delta.clusters);
    out.into()
}

/// Decodes an [`ExplorationDelta`] payload.
pub fn decode_exploration_delta(payload: &[u8]) -> Result<ExplorationDelta, StoreError> {
    let mut r = Reader::new(payload);
    let delta = ExplorationDelta {
        batch_index: r.u64("batch index")?,
        rng_draws: r.u64("rng draws")?,
        probe_done: r.flag("probe_done")?,
        crash_found: r.flag("crash_found")?,
        cases_executed: r.u64("cases executed")?,
        injections_performed: r.u64("injections performed")?,
        frontier_upsert: get_frontier(&mut r, "frontier upserts")?,
        executed: get_cells(&mut r, "executed cells")?,
        unreached: get_cells(&mut r, "unreached cells")?,
        pruned_functions: {
            let count = r.count(4, "pruned functions")?;
            let mut pruned = Vec::with_capacity(count);
            for _ in 0..count {
                pruned.push(r.symbol("pruned function")?);
            }
            pruned
        },
        coverage: get_coverage(&mut r)?,
        clusters: get_clusters(&mut r)?,
    };
    r.finish()?;
    Ok(delta)
}

// -- profiles ---------------------------------------------------------------

fn put_profile(out: &mut BytesMut, profile: &FaultProfile) {
    put_string(out, &profile.library);
    put_opt_string(out, profile.platform.as_deref());
    out.put_u32_le(profile.functions.len() as u32);
    for function in &profile.functions {
        put_string(out, &function.name);
        out.put_u32_le(function.error_returns.len() as u32);
        for error in &function.error_returns {
            out.put_i64_le(error.retval);
            out.put_u32_le(error.side_effects.len() as u32);
            for effect in &error.side_effects {
                let kind: u8 = match effect.kind {
                    SideEffectKind::Tls => 0,
                    SideEffectKind::Global => 1,
                    SideEffectKind::OutputArg => 2,
                };
                out.put_u8(kind);
                put_string(out, &effect.module);
                out.put_u32_le(effect.offset);
                out.put_i64_le(effect.value);
            }
        }
    }
}

fn get_profile(r: &mut Reader) -> Result<FaultProfile, StoreError> {
    let library = r.string("profile library")?;
    let platform = r.opt_string("profile platform")?;
    let mut profile = FaultProfile::new(library);
    profile.platform = platform;
    let functions = r.count(8, "profile functions")?;
    profile.functions.reserve_exact(functions);
    for _ in 0..functions {
        let name = r.string("function name")?;
        let mut function = FunctionProfile::new(name);
        let errors = r.count(12, "error returns")?;
        function.error_returns.reserve_exact(errors);
        for _ in 0..errors {
            let retval = r.i64("error retval")?;
            let mut error = ErrorReturn::bare(retval);
            let effects = r.count(17, "side effects")?;
            error.side_effects.reserve_exact(effects);
            for _ in 0..effects {
                let kind = match r.u8("side-effect kind")? {
                    0 => SideEffectKind::Tls,
                    1 => SideEffectKind::Global,
                    2 => SideEffectKind::OutputArg,
                    other => {
                        return Err(StoreError::corrupt(r.offset() - 1, format!("unknown side-effect kind {other}")));
                    }
                };
                let module = r.string("side-effect module")?;
                let offset = r.u32("side-effect offset")?;
                let value = r.i64("side-effect value")?;
                error.side_effects.push(SideEffect { kind, module, offset, value });
            }
            function.error_returns.push(error);
        }
        profile.push_function(function);
    }
    Ok(profile)
}

fn put_profile_entry(out: &mut BytesMut, key: &ProfileKey, profile: &FaultProfile) {
    put_string(out, &key.library);
    put_opt_string(out, key.platform.as_deref());
    out.put_u64_le(key.code_hash);
    put_profile(out, profile);
}

fn get_profile_entry(r: &mut Reader) -> Result<(ProfileKey, FaultProfile), StoreError> {
    let library = r.string("entry library")?;
    let platform = r.opt_string("entry platform")?;
    let code_hash = r.u64("entry code hash")?;
    let profile = get_profile(r)?;
    Ok((ProfileKey { library, platform, code_hash }, profile))
}

/// Encodes a full [`ProfileStore`] snapshot payload (entries in key order,
/// so output is deterministic — the same order `to_xml` uses).
pub fn encode_profile_store(store: &ProfileStore) -> Vec<u8> {
    let entries = store.snapshot();
    let mut out = BytesMut::with_capacity(64 + entries.len() * 128);
    out.put_u32_le(entries.len() as u32);
    for (key, profile) in &entries {
        put_profile_entry(&mut out, key, profile);
    }
    out.into()
}

/// Steps over one profile entry: the same reads and bounds checks as
/// [`get_profile_entry`], minus the UTF-8 checks and the allocations.  The
/// scan only decides which entries go to the pool: an entry it fails to
/// delimit decodes in order instead, so it never changes a decode's result.
fn skip_profile_entry(r: &mut Reader) -> Result<(), StoreError> {
    r.skip_str("entry library")?;
    if r.flag("entry platform")? {
        r.skip_str("entry platform")?;
    }
    r.take(8, "entry code hash")?;
    r.skip_str("profile library")?;
    if r.flag("profile platform")? {
        r.skip_str("profile platform")?;
    }
    for _ in 0..r.count(8, "profile functions")? {
        r.skip_str("function name")?;
        for _ in 0..r.count(12, "error returns")? {
            r.take(8, "error retval")?;
            for _ in 0..r.count(17, "side effects")? {
                r.take(1, "side-effect kind")?;
                r.skip_str("side-effect module")?;
                r.take(12, "side-effect offset and value")?;
            }
        }
    }
    Ok(())
}

/// Decodes a full [`ProfileStore`] snapshot payload.
///
/// A sequential scan first delimits every entry; the entries then decode on
/// the shared worker pool ([`run_pooled`]), each through a cursor
/// positioned in the whole payload (error offsets stay payload-relative),
/// and enter the store in entry order (a duplicated key resolves to the
/// later entry).  The result is exactly the one-entry-at-a-time loop's: the
/// first failing entry in entry order reports the error, and entries from
/// the one the scan could not delimit onwards decode in order after all
/// before them decoded cleanly.
pub fn decode_profile_store(payload: &[u8]) -> Result<ProfileStore, StoreError> {
    let mut r = Reader::new(payload);
    let count = r.count(21, "profile entries")?;
    let mut extents = Vec::with_capacity(count);
    for _ in 0..count {
        let start = r.pos;
        if skip_profile_entry(&mut r).is_err() {
            r.pos = start;
            break;
        }
        extents.push(start..r.pos);
    }
    let decoded = run_pooled(extents.len(), |index| {
        let extent = &extents[index];
        let mut entry_reader = Reader::at(payload, extent.start);
        let entry = get_profile_entry(&mut entry_reader)?;
        if entry_reader.pos != extent.end {
            return Err(StoreError::corrupt(entry_reader.offset(), "profile entry does not end where the scan did"));
        }
        Ok(entry)
    });
    let store = ProfileStore::new();
    for entry in decoded {
        let (key, profile) = entry.expect("decoding a profile entry never panics")?;
        store.insert(key, profile);
    }
    // The entry the scan could not delimit, and every one after it, decode
    // in order from where the scan stopped, as the sequential loop would.
    for _ in extents.len()..count {
        let (key, profile) = get_profile_entry(&mut r)?;
        store.insert(key, profile);
    }
    r.finish()?;
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-entry-at-a-time loop the pooled decoder must agree with.
    fn decode_profile_store_sequentially(payload: &[u8]) -> Result<ProfileStore, StoreError> {
        let mut r = Reader::new(payload);
        let count = r.count(21, "profile entries")?;
        let store = ProfileStore::new();
        for _ in 0..count {
            let (key, profile) = get_profile_entry(&mut r)?;
            store.insert(key, profile);
        }
        r.finish()?;
        Ok(store)
    }

    fn entry(library: &str, platform: Option<&str>, code_hash: u64, functions: usize) -> (ProfileKey, FaultProfile) {
        let mut profile = FaultProfile::new(library);
        profile.platform = platform.map(str::to_owned);
        for index in 0..functions {
            let mut function = FunctionProfile::new(format!("{library}_fn{index}"));
            let mut error = ErrorReturn::bare(-1 - index as i64);
            error.side_effects.push(SideEffect {
                kind: [SideEffectKind::Tls, SideEffectKind::Global, SideEffectKind::OutputArg][index % 3],
                module: "libstate.so".to_owned(),
                offset: 0x10 * index as u32,
                value: index as i64,
            });
            function.error_returns.push(error);
            function.error_returns.push(ErrorReturn::bare(0));
            profile.push_function(function);
        }
        (ProfileKey { library: library.to_owned(), platform: profile.platform.clone(), code_hash }, profile)
    }

    /// A snapshot payload holding `entries` in the given order.
    fn payload_of(entries: &[(ProfileKey, FaultProfile)]) -> Vec<u8> {
        let mut out = BytesMut::with_capacity(256);
        out.put_u32_le(entries.len() as u32);
        for (key, profile) in entries {
            put_profile_entry(&mut out, key, profile);
        }
        out.into()
    }

    fn three_entries() -> Vec<(ProfileKey, FaultProfile)> {
        vec![
            entry("liba.so", Some("Linux/x86"), 0xA, 2),
            entry("libb.so", None, 0xB, 1),
            entry("libc.so", None, 0xC, 3),
        ]
    }

    /// The pooled and the sequential decoder agree on `payload`: the same
    /// store, or the same error offset and message.
    fn assert_agrees(payload: &[u8], context: &str) {
        match (decode_profile_store(payload), decode_profile_store_sequentially(payload)) {
            (Ok(pooled), Ok(reference)) => assert_eq!(pooled, reference, "{context}"),
            (Err(pooled), Err(reference)) => {
                assert_eq!((pooled.offset, pooled.to_string()), (reference.offset, reference.to_string()), "{context}")
            }
            (pooled, reference) => panic!("{context}: pooled {pooled:?}, sequential {reference:?}"),
        }
    }

    #[test]
    fn pooled_decode_matches_the_sequential_loop_on_every_cut_and_flip() {
        let payload = payload_of(&three_entries());
        assert_agrees(&payload, "intact");
        assert_eq!(decode_profile_store(&payload).unwrap().len(), 3);
        for cut in 0..payload.len() {
            assert_agrees(&payload[..cut], &format!("cut {cut}"));
        }
        for at in 0..payload.len() {
            for mask in [0x01, 0x02, 0x80, 0xFF] {
                let mut bytes = payload.clone();
                bytes[at] ^= mask;
                assert_agrees(&bytes, &format!("byte {at} flipped with {mask:#04x}"));
            }
        }
        let mut trailing = payload;
        trailing.push(0);
        assert_agrees(&trailing, "trailing byte");
    }

    /// The first failing entry in entry order reports the error, even when
    /// a later entry is the one the scan cannot delimit.
    #[test]
    fn an_earlier_entry_error_outranks_a_later_truncation() {
        let entries = three_entries();
        let mut payload = payload_of(&entries);
        // Entry 0's library name starts after the entry count and its length.
        payload[8] = 0xFF;
        let entry_two = payload.len() - payload_of(&entries[2..]).len() + 4;
        payload.truncate(entry_two + 10);
        let error = decode_profile_store(&payload).unwrap_err();
        assert_eq!(
            (error.offset, error.to_string()),
            (Some(8), "corrupt store data: non-UTF-8 entry library [format: binary] [offset: 8]".to_owned())
        );
        assert_agrees(&payload, "utf-8 in entry 0, entry 2 truncated");
    }

    #[test]
    fn outcome_classes_no_run_produces_are_corrupt() {
        for (text, valid) in [("exit:3", true), ("crash:SIGSEGV", true), ("exit:0", false), ("melted", false)] {
            let mut out = BytesMut::with_capacity(16);
            put_string(&mut out, text);
            let payload: Vec<u8> = out.into();
            match get_outcome(&mut Reader::new(&payload)) {
                Ok(outcome) => assert!(valid && outcome.to_string() == text, "{text} decoded to {outcome}"),
                Err(error) => assert!(!valid && error.to_string().contains("unknown outcome class"), "{text}: {error}"),
            }
        }
    }

    #[test]
    fn a_duplicated_key_resolves_to_the_later_entry() {
        let first = entry("liba.so", None, 0xA, 1);
        let mut last = entry("liba.so", None, 0xA, 2);
        last.1.functions[0].name = "replaced".to_owned();
        let payload = payload_of(&[first, entry("libb.so", None, 0xB, 1), last.clone()]);
        let store = decode_profile_store(&payload).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(*store.get(&last.0).unwrap(), last.1);
        assert_agrees(&payload, "duplicated key");
    }
}
