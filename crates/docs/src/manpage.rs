//! A structured man-page model and renderer.
//!
//! The paper compares the profiler against *documentation* (§6.3, Table 2)
//! and points out that natural-language documentation is an unreliable
//! oracle: it can be vague ("returns 0 if successful, a positive error code
//! otherwise"), indirect ("the same errors that occur for link(2) can also
//! occur for linkat()"), or simply out of date.  This module models a library
//! reference manual as a set of [`ManPage`]s and renders them in the familiar
//! NAME / SYNOPSIS / RETURN VALUE / ERRORS layout, deliberately reproducing
//! those imperfections so the parser and the combined static+documentation
//! profile (see [`combine`](crate::combine)) are exercised against realistic
//! text rather than against a lossless serialization.

use std::collections::BTreeSet;

use lfi_scenario::errno::errno_name;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a page's RETURN VALUE section describes the function's error returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReturnValueStyle {
    /// Every error return value is listed explicitly:
    /// "On error, f() returns -1."
    Enumerated,
    /// The page only says that *some* error indication exists:
    /// "On failure, f() returns a negative error code."  The parser cannot
    /// recover concrete values from such a page.
    Vague,
    /// The page defers to another page: "The same errors that occur for g()
    /// can also occur for f()."
    CrossReference(String),
}

/// One reference-manual page for a single exported function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManPage {
    /// The documented function.
    pub function: String,
    /// The library the function belongs to (used in the NAME line).
    pub library: String,
    /// Free-text one-line description.
    pub description: String,
    /// Error return values the page intends to document.
    pub error_returns: BTreeSet<i64>,
    /// errno values listed in the ERRORS section (rendered by symbolic name).
    pub errnos: BTreeSet<i64>,
    /// Error return values the page documents although the function can
    /// never actually return them (stale or copy-pasted documentation).
    pub spurious_returns: BTreeSet<i64>,
    /// How the RETURN VALUE section is phrased.
    pub style: ReturnValueStyle,
}

impl ManPage {
    /// Creates an enumerated page with no errno entries and no spurious
    /// values.
    pub fn new(library: impl Into<String>, function: impl Into<String>) -> Self {
        let function = function.into();
        ManPage {
            description: format!("{function} - exported library function"),
            function,
            library: library.into(),
            error_returns: BTreeSet::new(),
            errnos: BTreeSet::new(),
            spurious_returns: BTreeSet::new(),
            style: ReturnValueStyle::Enumerated,
        }
    }

    /// Adds a documented error return value.
    #[must_use]
    pub fn with_error_return(mut self, value: i64) -> Self {
        self.error_returns.insert(value);
        self
    }

    /// Sets the RETURN VALUE phrasing style.
    #[must_use]
    pub fn with_style(mut self, style: ReturnValueStyle) -> Self {
        self.style = style;
        self
    }

    /// Renders the page as man-page-like text.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("NAME\n");
        out.push_str(&format!("       {} - {}\n\n", self.function, self.description));
        out.push_str("SYNOPSIS\n");
        out.push_str(&format!("       int {}(...);   /* from {} */\n\n", self.function, self.library));
        out.push_str("RETURN VALUE\n");
        out.push_str(&format!("       On success, {}() returns 0.\n", self.function));
        match &self.style {
            ReturnValueStyle::Enumerated => {
                for value in self.error_returns.iter().chain(self.spurious_returns.iter()) {
                    out.push_str(&format!("       On error, {}() returns {value}.\n", self.function));
                }
                if self.error_returns.is_empty() && self.spurious_returns.is_empty() {
                    out.push_str(&format!("       {}() always succeeds.\n", self.function));
                }
            }
            ReturnValueStyle::Vague => {
                out.push_str(&format!("       On failure, {}() returns a negative error code.\n", self.function));
            }
            ReturnValueStyle::CrossReference(target) => {
                out.push_str(&format!(
                    "       The same errors that occur for {target}() can also occur for {}().\n",
                    self.function
                ));
            }
        }
        out.push('\n');
        if !self.errnos.is_empty() {
            out.push_str("ERRORS\n");
            for errno in &self.errnos {
                let name = errno_name(*errno).map_or_else(|| format!("E{errno}"), str::to_owned);
                out.push_str(&format!("       {name:<16}error condition {errno}.\n"));
            }
            out.push('\n');
        }
        out
    }
}

/// Policy controlling how realistic (i.e. how imperfect) the rendered manual
/// is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StylePolicy {
    /// Fraction of pages phrased vaguely instead of enumerating values.
    pub vague_fraction: f64,
    /// Fraction of pages that defer to another page via a cross-reference.
    pub cross_reference_fraction: f64,
    /// Number of pages (at most) that additionally document a value the
    /// function can never return.
    pub spurious_pages: usize,
}

impl StylePolicy {
    /// A lossless manual: every page enumerates every value.
    pub fn perfect() -> Self {
        StylePolicy { vague_fraction: 0.0, cross_reference_fraction: 0.0, spurious_pages: 0 }
    }

    /// The default "realistic" manual: roughly a quarter of the pages are
    /// vague, a tenth defer to another page and a few document impossible
    /// values — the mix §3.1 and §7 complain about.
    pub fn realistic() -> Self {
        StylePolicy { vague_fraction: 0.25, cross_reference_fraction: 0.10, spurious_pages: 2 }
    }
}

impl Default for StylePolicy {
    fn default() -> Self {
        StylePolicy::realistic()
    }
}

/// The reference manual for one library: one page per documented function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DocumentationSet {
    /// The library the manual documents.
    pub library: String,
    /// The pages, in insertion order.
    pub pages: Vec<ManPage>,
}

impl DocumentationSet {
    /// Creates an empty manual.
    pub fn new(library: impl Into<String>) -> Self {
        DocumentationSet { library: library.into(), pages: Vec::new() }
    }

    /// Adds a page.
    pub fn push(&mut self, page: ManPage) {
        self.pages.push(page);
    }

    /// Looks up the page for a function.
    pub fn page(&self, function: &str) -> Option<&ManPage> {
        self.pages.iter().find(|p| p.function == function)
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the manual has no pages.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Builds a manual from a per-function error-code map (the corpus
    /// libraries' documentation model), applying `policy` to decide which
    /// pages are vague, which cross-reference another page, and which gain a
    /// spurious value.  Deterministic for a given `seed`.
    pub fn from_error_map<'a, I>(library: impl Into<String>, entries: I, policy: StylePolicy, seed: u64) -> Self
    where
        I: IntoIterator<Item = (&'a String, &'a BTreeSet<i64>)>,
    {
        let library = library.into();
        let mut rng = StdRng::seed_from_u64(seed);
        let entries: Vec<(&String, &BTreeSet<i64>)> = entries.into_iter().collect();
        let mut set = DocumentationSet::new(library.clone());
        let mut spurious_left = policy.spurious_pages;
        for (index, (function, values)) in entries.iter().enumerate() {
            let mut page = ManPage::new(library.clone(), (*function).clone());
            page.error_returns = (*values).clone();
            let roll: f64 = rng.gen();
            if roll < policy.vague_fraction && !values.is_empty() {
                page.style = ReturnValueStyle::Vague;
            } else if roll < policy.vague_fraction + policy.cross_reference_fraction && index > 0 {
                // Refer to the previous documented function, which is
                // guaranteed to have a page, keeping the manual resolvable.
                page.style = ReturnValueStyle::CrossReference(entries[index - 1].0.clone());
            } else if spurious_left > 0 && rng.gen_bool(0.2) {
                // A stale value well outside the range the generators use for
                // genuine error codes.
                let spurious = -(1000 + index as i64);
                page.spurious_returns.insert(spurious);
                spurious_left -= 1;
            }
            set.push(page);
        }
        set
    }

    /// Renders the whole manual: pages separated by a form-feed marker, the
    /// way `man` concatenates preformatted pages.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for page in &self.pages {
            out.push_str(&format!("MANPAGE {}\n", page.function));
            out.push_str(&page.render());
            out.push_str("\u{c}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerated_page_lists_every_value() {
        let mut page = ManPage::new("libc.so.6", "close").with_error_return(-1);
        page.errnos.extend([9, 5]);
        let text = page.render();
        assert!(text.contains("On error, close() returns -1."));
        assert!(text.contains("EBADF"));
        assert!(text.contains("EIO"));
        assert!(text.contains("RETURN VALUE"));
        assert!(text.contains("ERRORS"));
    }

    #[test]
    fn vague_page_does_not_leak_values() {
        let page = ManPage::new("libc.so.6", "frob")
            .with_error_return(-42)
            .with_style(ReturnValueStyle::Vague);
        let text = page.render();
        assert!(text.contains("negative error code"));
        assert!(!text.contains("-42"));
    }

    #[test]
    fn cross_reference_page_names_the_target() {
        let page = ManPage::new("libc.so.6", "linkat").with_style(ReturnValueStyle::CrossReference("link".into()));
        let text = page.render();
        assert!(text.contains("The same errors that occur for link()"));
    }

    #[test]
    fn unknown_errno_values_render_with_a_numeric_fallback() {
        let mut page = ManPage::new("libx.so", "f");
        page.errnos.insert(9999);
        assert!(page.render().contains("E9999"));
    }

    #[test]
    fn empty_page_says_always_succeeds() {
        let page = ManPage::new("libx.so", "noop");
        assert!(page.render().contains("always succeeds"));
    }

    #[test]
    fn spurious_values_are_rendered_like_genuine_ones() {
        let mut page = ManPage::new("libx.so", "f").with_error_return(-1);
        page.spurious_returns.insert(-77);
        let text = page.render();
        assert!(text.contains("returns -1"));
        assert!(text.contains("returns -77"));
    }

    #[test]
    fn documentation_set_lookup_and_render() {
        let mut set = DocumentationSet::new("libx.so");
        assert!(set.is_empty());
        set.push(ManPage::new("libx.so", "a").with_error_return(-1));
        set.push(ManPage::new("libx.so", "b").with_error_return(-2));
        assert_eq!(set.len(), 2);
        assert!(set.page("a").is_some());
        assert!(set.page("missing").is_none());
        let text = set.render();
        assert!(text.contains("MANPAGE a"));
        assert!(text.contains("MANPAGE b"));
    }

    #[test]
    fn perfect_policy_enumerates_everything() {
        let mut map = std::collections::BTreeMap::new();
        for i in 0..20i64 {
            map.insert(format!("fn_{i}"), BTreeSet::from([-1, -i - 2]));
        }
        let set = DocumentationSet::from_error_map("libx.so", &map, StylePolicy::perfect(), 1);
        assert_eq!(set.len(), 20);
        assert!(set.pages.iter().all(|p| p.style == ReturnValueStyle::Enumerated));
        assert!(set.pages.iter().all(|p| p.spurious_returns.is_empty()));
    }

    #[test]
    fn realistic_policy_mixes_styles_deterministically() {
        let mut map = std::collections::BTreeMap::new();
        for i in 0..200i64 {
            map.insert(format!("fn_{i:03}"), BTreeSet::from([-1, -i - 2]));
        }
        let a = DocumentationSet::from_error_map("libx.so", &map, StylePolicy::realistic(), 7);
        let b = DocumentationSet::from_error_map("libx.so", &map, StylePolicy::realistic(), 7);
        assert_eq!(a, b, "same seed must give the same manual");
        let vague = a.pages.iter().filter(|p| p.style == ReturnValueStyle::Vague).count();
        let refs = a.pages.iter().filter(|p| matches!(p.style, ReturnValueStyle::CrossReference(_))).count();
        assert!(vague > 0, "some pages should be vague");
        assert!(refs > 0, "some pages should cross-reference");
        assert!(vague + refs < a.len(), "most pages remain enumerated");
    }
}
