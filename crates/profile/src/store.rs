//! A reusable, thread-safe store of generated fault profiles.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::xml::{self, XmlElement};
use crate::{FaultProfile, ProfileError};

/// Identity of a stored profile: which library, on which platform, profiled
/// from which exact binary.
///
/// `code_hash` is whatever content hash the producer keys its binaries by
/// (the profiler uses `SharedObject::fingerprint`, folded with its own
/// options), so a stored profile can never be replayed against a binary other
/// than the one it was computed from.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProfileKey {
    /// Library file name (e.g. `libc.so.6`).
    pub library: String,
    /// Platform label, when the producer recorded one.
    pub platform: Option<String>,
    /// Content hash of the analyzed binary (plus any producer-side salt).
    pub code_hash: u64,
}

impl ProfileKey {
    /// Creates a key.
    pub fn new(library: impl Into<String>, platform: Option<String>, code_hash: u64) -> Self {
        Self { library: library.into(), platform, code_hash }
    }
}

/// An in-memory store of [`FaultProfile`]s keyed by [`ProfileKey`], with a
/// lossless XML round-trip for persistence.
///
/// The paper's workflow profiles a system once and then runs many injection
/// campaigns against the result; `ProfileStore` is the piece that makes
/// "once" literal.  `lfi_core::Lfi` consults its store before invoking the
/// profiler and inserts every fresh report, so repeated `profile()` calls,
/// `profiles_of()` chains and whole campaigns replay stored profiles for as
/// long as the underlying binaries (hence their `code_hash`) stay unchanged.
///
/// Invalidation is the producer's job, and how much to invalidate depends on
/// how profiles were produced: the facade conservatively [`clear`]s the whole
/// store whenever its library set or kernel image changes, because its
/// profiles embed cross-library import resolution.
///
/// [`clear`]: ProfileStore::clear
///
/// Profiles are handed out as `Arc`s: a store hit never copies the profile.
/// All methods take `&self`; the store is safe to share across threads.
#[derive(Debug, Default)]
pub struct ProfileStore {
    entries: RwLock<HashMap<ProfileKey, Arc<FaultProfile>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Clone for ProfileStore {
    /// Clones the entries (cheaply — they are `Arc`s) with fresh counters.
    fn clone(&self) -> Self {
        let entries = self.entries.read().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
        Self { entries: RwLock::new(entries), hits: AtomicU64::new(0), misses: AtomicU64::new(0) }
    }
}

impl PartialEq for ProfileStore {
    fn eq(&self, other: &Self) -> bool {
        *self.entries.read().unwrap_or_else(std::sync::PoisonError::into_inner)
            == *other.entries.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl ProfileStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The stored profile for `key`, if any.  Counts toward the hit/miss
    /// statistics.
    pub fn get(&self, key: &ProfileKey) -> Option<Arc<FaultProfile>> {
        let entries = self.entries.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let found = entries.get(key).cloned();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores `profile` under `key`, replacing any previous entry, and
    /// returns the shared handle.  An `Arc` is stored as is, so a caller
    /// that keeps a handle to the profile shares it with the store.
    pub fn insert(&self, key: ProfileKey, profile: impl Into<Arc<FaultProfile>>) -> Arc<FaultProfile> {
        let profile = profile.into();
        let mut entries = self.entries.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        entries.insert(key, Arc::clone(&profile));
        profile
    }

    /// Number of stored profiles.
    pub fn len(&self) -> usize {
        self.entries.read().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// True when the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Store hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Store misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The stored entries, sorted by key — the deterministic iteration
    /// every serializer builds on ([`ProfileStore::to_xml`] here,
    /// `lfi-store`'s binary codec externally).  Profiles are `Arc`s, so
    /// the snapshot copies handles, not profile bodies.
    pub fn snapshot(&self) -> Vec<(ProfileKey, Arc<FaultProfile>)> {
        let entries = self.entries.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut sorted: Vec<(ProfileKey, Arc<FaultProfile>)> =
            entries.iter().map(|(key, profile)| (key.clone(), Arc::clone(profile))).collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        sorted
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        self.entries.write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Serializes the store to XML: a `<profile-store>` document with one
    /// `<entry>` per profile, sorted by key so output is deterministic.
    pub fn to_xml(&self) -> String {
        let entries = self.entries.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut sorted: Vec<(&ProfileKey, &Arc<FaultProfile>)> = entries.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(b.0));
        let mut root = XmlElement::new("profile-store");
        for (key, profile) in sorted {
            let mut entry = XmlElement::new("entry").attr("library", &key.library);
            if let Some(platform) = &key.platform {
                entry = entry.attr("platform", platform);
            }
            entry = entry.attr("code-hash", format!("{:016X}", key.code_hash));
            root = root.child(entry.child(profile.to_xml_element()));
        }
        root.to_xml_string()
    }

    /// Parses a store from its XML form.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] if the document is not well-formed XML or
    /// does not follow the store schema.
    pub fn from_xml(text: &str) -> Result<ProfileStore, ProfileError> {
        let root = xml::parse(text)?;
        if root.name != "profile-store" {
            return Err(ProfileError::schema(format!("expected <profile-store>, found <{}>", root.name)));
        }
        let store = ProfileStore::new();
        for entry in root.children_named("entry") {
            let library = entry
                .attribute("library")
                .ok_or_else(|| ProfileError::schema("<entry> missing library attribute"))?
                .to_owned();
            let platform = entry.attribute("platform").map(str::to_owned);
            let hash_text = entry
                .attribute("code-hash")
                .ok_or_else(|| ProfileError::schema("<entry> missing code-hash attribute"))?;
            let code_hash = u64::from_str_radix(hash_text, 16)
                .map_err(|_| ProfileError::InvalidNumber { field: "code-hash".into(), text: hash_text.to_owned() })?;
            let profile_element = entry
                .first_child("profile")
                .ok_or_else(|| ProfileError::schema("<entry> missing <profile> child"))?;
            let profile = FaultProfile::from_xml_element(profile_element)?;
            store.insert(ProfileKey { library, platform, code_hash }, profile);
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErrorReturn, FunctionProfile, SideEffect};

    fn profile(library: &str) -> FaultProfile {
        let mut profile = FaultProfile::new(library).with_platform("Linux/x86");
        profile.push_function(FunctionProfile {
            name: "close".into(),
            error_returns: vec![ErrorReturn { retval: -1, side_effects: vec![SideEffect::tls(library, 0x12fff4, -9)] }],
        });
        profile
    }

    fn key(library: &str, hash: u64) -> ProfileKey {
        ProfileKey::new(library, Some("Linux/x86".into()), hash)
    }

    #[test]
    fn store_round_trips_entries_and_counts() {
        let store = ProfileStore::new();
        assert!(store.is_empty());
        assert!(store.get(&key("libc.so.6", 1)).is_none());
        let handle = store.insert(key("libc.so.6", 1), profile("libc.so.6"));
        let found = store.get(&key("libc.so.6", 1)).unwrap();
        assert!(Arc::ptr_eq(&handle, &found));
        // A different code hash is a different binary: miss.
        assert!(store.get(&key("libc.so.6", 2)).is_none());
        assert_eq!((store.hits(), store.misses()), (1, 2));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn clear_drops_every_entry_and_the_counters() {
        let store = ProfileStore::new();
        store.insert(key("liba.so", 1), profile("liba.so"));
        store.insert(key("libb.so", 3), profile("libb.so"));
        assert!(store.get(&key("libb.so", 3)).is_some());
        store.clear();
        assert!(store.is_empty());
        assert_eq!((store.hits(), store.misses()), (0, 0));
    }

    #[test]
    fn xml_round_trip_preserves_the_store() {
        let store = ProfileStore::new();
        store.insert(key("libc.so.6", 0xDEAD_BEEF), profile("libc.so.6"));
        store.insert(ProfileKey::new("libx.so", None, 7), FaultProfile::new("libx.so"));
        let xml = store.to_xml();
        assert!(xml.contains("<profile-store>"));
        assert!(xml.contains("code-hash=\"00000000DEADBEEF\""));
        let parsed = ProfileStore::from_xml(&xml).unwrap();
        assert_eq!(parsed, store);
        // And the clone carries the same entries.
        assert_eq!(store.clone(), store);
    }

    #[test]
    fn schema_violations_are_reported() {
        assert!(matches!(ProfileStore::from_xml("<plan />"), Err(ProfileError::Schema { .. })));
        assert!(matches!(
            ProfileStore::from_xml("<profile-store><entry /></profile-store>"),
            Err(ProfileError::Schema { .. })
        ));
        assert!(matches!(
            ProfileStore::from_xml("<profile-store><entry library=\"l\" /></profile-store>"),
            Err(ProfileError::Schema { .. })
        ));
        assert!(matches!(
            ProfileStore::from_xml("<profile-store><entry library=\"l\" code-hash=\"zz\" /></profile-store>"),
            Err(ProfileError::InvalidNumber { .. })
        ));
        assert!(matches!(
            ProfileStore::from_xml("<profile-store><entry library=\"l\" code-hash=\"1\" /></profile-store>"),
            Err(ProfileError::Schema { .. })
        ));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let store = ProfileStore::new();
        std::thread::scope(|scope| {
            for i in 0..4u64 {
                let store = &store;
                scope.spawn(move || {
                    store.insert(key("libshared.so", i), profile("libshared.so"));
                    assert!(store.get(&key("libshared.so", i)).is_some());
                });
            }
        });
        assert_eq!(store.len(), 4);
    }
}
