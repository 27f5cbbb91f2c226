//! A parser for the man-page-like documentation rendered by
//! [`manpage`](crate::manpage).
//!
//! §6.3 of the paper scales the accuracy evaluation by writing
//! "documentation parsers for each of the measured libraries"; §3.1 warns
//! that such parsing "cannot be accurate, because documentation often uses
//! natural language that is potentially confusing".  This parser recovers
//! what *can* be recovered mechanically — explicit "returns N" sentences,
//! ERRORS-section errno constants, and "same errors as g()" cross-references
//! — and flags the rest (vague phrasing) as imprecise instead of guessing.

use std::collections::{BTreeMap, BTreeSet};

use lfi_scenario::errno::errno_value;

use crate::error::DocError;

/// What the parser recovered from a single page.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedPage {
    /// The documented function.
    pub function: String,
    /// Error return values named explicitly by the RETURN VALUE section.
    pub error_returns: BTreeSet<i64>,
    /// errno values recovered from the ERRORS section.
    pub errnos: BTreeSet<i64>,
    /// Functions this page defers to ("the same errors that occur for …").
    pub cross_references: Vec<String>,
    /// True when the page uses vague phrasing the parser cannot turn into
    /// concrete values ("a negative error code", "a positive error code").
    pub imprecise: bool,
}

/// Everything the parser recovered from one library's manual.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedDocumentation {
    /// The documented library.
    pub library: String,
    /// Per-function parse results.
    pub pages: BTreeMap<String, ParsedPage>,
}

impl ParsedDocumentation {
    /// Looks up the parse result for one function.
    pub fn page(&self, function: &str) -> Option<&ParsedPage> {
        self.pages.get(function)
    }

    /// Number of parsed pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether nothing was parsed.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The fraction of pages whose error values could not be recovered
    /// because of vague phrasing — the parser's own estimate of how much the
    /// manual leaves on the table.
    pub fn imprecise_fraction(&self) -> f64 {
        if self.pages.is_empty() {
            return 0.0;
        }
        let imprecise = self.pages.values().filter(|p| p.imprecise).count();
        imprecise as f64 / self.pages.len() as f64
    }

    /// Resolves cross-references: each page that defers to another page
    /// inherits that page's (transitively resolved) error values.  Returns an
    /// error if a reference points at a missing page or the references form a
    /// cycle with no enumerated page on it.
    pub fn resolve_cross_references(&mut self) -> Result<(), DocError> {
        let functions: Vec<String> = self.pages.keys().cloned().collect();
        for function in functions {
            let mut resolved = BTreeSet::new();
            let mut resolved_errnos = BTreeSet::new();
            let mut visited = BTreeSet::new();
            self.collect(&function, &mut resolved, &mut resolved_errnos, &mut visited)?;
            let page = self.pages.get_mut(&function).expect("page exists");
            page.error_returns.extend(resolved);
            page.errnos.extend(resolved_errnos);
        }
        Ok(())
    }

    fn collect(
        &self,
        function: &str,
        returns: &mut BTreeSet<i64>,
        errnos: &mut BTreeSet<i64>,
        visited: &mut BTreeSet<String>,
    ) -> Result<(), DocError> {
        if !visited.insert(function.to_owned()) {
            return Err(DocError::CyclicCrossReference { function: function.to_owned() });
        }
        let Some(page) = self.pages.get(function) else {
            return Err(DocError::UnresolvedCrossReference {
                function: visited.iter().next().cloned().unwrap_or_default(),
                target: function.to_owned(),
            });
        };
        returns.extend(page.error_returns.iter().copied());
        errnos.extend(page.errnos.iter().copied());
        for target in &page.cross_references {
            self.collect(target, returns, errnos, visited)?;
        }
        Ok(())
    }

    /// The per-function error-return sets, in the shape the accuracy scorer
    /// and the combiner expect.  Call [`resolve_cross_references`] first if
    /// the manual uses them.
    ///
    /// [`resolve_cross_references`]: ParsedDocumentation::resolve_cross_references
    pub fn error_sets(&self) -> BTreeMap<String, BTreeSet<i64>> {
        self.pages
            .iter()
            .filter(|(_, page)| !page.error_returns.is_empty())
            .map(|(name, page)| (name.clone(), page.error_returns.clone()))
            .collect()
    }
}

/// Parses a rendered [`DocumentationSet`](crate::manpage::DocumentationSet) (or
/// any text in the same layout).
#[derive(Debug, Clone, Default)]
pub struct DocParser {
    /// When true, unknown errno names abort the parse; when false (default)
    /// they are skipped, mirroring how a human reader shrugs at a constant
    /// they do not recognize.
    pub strict_errno: bool,
}

impl DocParser {
    /// Creates a parser with default (lenient) settings.
    pub fn new() -> Self {
        DocParser::default()
    }

    /// Parses a whole manual that was rendered with
    /// [`DocumentationSet::render`](crate::manpage::DocumentationSet::render).
    pub fn parse_set(&self, library: &str, text: &str) -> Result<ParsedDocumentation, DocError> {
        let mut parsed = ParsedDocumentation { library: library.to_owned(), pages: BTreeMap::new() };
        for chunk in text.split('\u{c}') {
            let chunk = chunk.trim();
            if chunk.is_empty() {
                continue;
            }
            let page = self.parse_page(chunk)?;
            parsed.pages.insert(page.function.clone(), page);
        }
        Ok(parsed)
    }

    /// Parses the rendered text of a single page.
    pub fn parse_page(&self, text: &str) -> Result<ParsedPage, DocError> {
        let mut page = ParsedPage::default();
        let mut section = "";
        let mut saw_section = false;
        for line in text.lines() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if let Some(name) = trimmed.strip_prefix("MANPAGE ") {
                page.function = name.trim().to_owned();
                continue;
            }
            if is_section_header(line) {
                section = trimmed;
                saw_section = true;
                continue;
            }
            match section {
                "NAME" if page.function.is_empty() => {
                    if let Some((name, _)) = trimmed.split_once(" - ") {
                        page.function = name.trim().to_owned();
                    }
                }
                "RETURN VALUE" => self.parse_return_value_line(trimmed, &mut page),
                "ERRORS" => self.parse_errors_line(trimmed, &mut page)?,
                _ => {}
            }
        }
        if !saw_section {
            return Err(DocError::NoSections { function: page.function });
        }
        Ok(page)
    }

    fn parse_return_value_line(&self, line: &str, page: &mut ParsedPage) {
        let lower = line.to_lowercase();
        if lower.contains("a negative error code") || lower.contains("a positive error code") {
            page.imprecise = true;
            return;
        }
        if let Some(rest) = line.split("same errors that occur for ").nth(1) {
            if let Some(target) = rest.split("()").next() {
                let target = target.trim();
                if !target.is_empty() {
                    page.cross_references.push(target.to_owned());
                }
            }
            return;
        }
        // Only sentences that talk about errors contribute error values; the
        // "On success, f() returns 0." sentence must not.
        if !(lower.contains("on error") || lower.contains("on failure") || lower.contains("if an error")) {
            return;
        }
        // The value is the token immediately after "returns"; anything else
        // on the line (the function name, offsets quoted in prose) is noise.
        let mut words = line.split_whitespace().peekable();
        while let Some(word) = words.next() {
            if word != "returns" {
                continue;
            }
            if let Some(next) = words.peek() {
                let candidate = next.trim_end_matches(['.', ',', ';']);
                if let Ok(value) = candidate.parse::<i64>() {
                    page.error_returns.insert(value);
                }
            }
        }
    }

    fn parse_errors_line(&self, line: &str, page: &mut ParsedPage) -> Result<(), DocError> {
        let Some(first) = line.split_whitespace().next() else {
            return Ok(());
        };
        if !first.starts_with('E') || !first.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit()) {
            return Ok(());
        }
        match errno_value(first) {
            Some(value) => {
                page.errnos.insert(value);
            }
            None => {
                // "E" followed by digits is the renderer's numeric fallback.
                if let Ok(value) = first[1..].parse::<i64>() {
                    page.errnos.insert(value);
                } else if self.strict_errno {
                    return Err(DocError::UnknownErrno { function: page.function.clone(), name: first.to_owned() });
                }
            }
        }
        Ok(())
    }
}

fn is_section_header(line: &str) -> bool {
    !line.starts_with(' ') && !line.trim().is_empty() && line.trim().chars().all(|c| c.is_ascii_uppercase() || c == ' ')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manpage::{DocumentationSet, ManPage, ReturnValueStyle, StylePolicy};

    fn parse_one(page: &ManPage) -> ParsedPage {
        DocParser::new().parse_page(&page.render()).expect("page parses")
    }

    #[test]
    fn enumerated_values_round_trip() {
        let mut page = ManPage::new("libc.so.6", "close").with_error_return(-1);
        page.errnos.extend([9, 5]);
        let parsed = parse_one(&page);
        assert_eq!(parsed.function, "close");
        assert_eq!(parsed.error_returns, BTreeSet::from([-1]));
        assert_eq!(parsed.errnos, BTreeSet::from([5, 9]));
        assert!(!parsed.imprecise);
    }

    #[test]
    fn success_sentence_is_not_an_error_value() {
        let page = ManPage::new("libx.so", "f").with_error_return(-3);
        let parsed = parse_one(&page);
        assert!(!parsed.error_returns.contains(&0), "the success return must not be parsed as an error");
        assert_eq!(parsed.error_returns, BTreeSet::from([-3]));
    }

    #[test]
    fn vague_pages_are_flagged_not_guessed() {
        let page = ManPage::new("libx.so", "f").with_error_return(-9).with_style(ReturnValueStyle::Vague);
        let parsed = parse_one(&page);
        assert!(parsed.imprecise);
        assert!(parsed.error_returns.is_empty());
    }

    #[test]
    fn cross_references_are_recorded_and_resolved() {
        let mut set = DocumentationSet::new("libc.so.6");
        let mut link = ManPage::new("libc.so.6", "link").with_error_return(-1);
        link.errnos.insert(13);
        set.push(link);
        set.push(ManPage::new("libc.so.6", "linkat").with_style(ReturnValueStyle::CrossReference("link".into())));
        let mut parsed = DocParser::new().parse_set("libc.so.6", &set.render()).unwrap();
        assert_eq!(parsed.page("linkat").unwrap().cross_references, vec!["link".to_owned()]);
        parsed.resolve_cross_references().unwrap();
        assert_eq!(parsed.page("linkat").unwrap().error_returns, BTreeSet::from([-1]));
        assert_eq!(parsed.page("linkat").unwrap().errnos, BTreeSet::from([13]));
    }

    #[test]
    fn unresolved_cross_reference_is_an_error() {
        let mut set = DocumentationSet::new("libx.so");
        set.push(ManPage::new("libx.so", "orphan").with_style(ReturnValueStyle::CrossReference("ghost".into())));
        let mut parsed = DocParser::new().parse_set("libx.so", &set.render()).unwrap();
        let error = parsed.resolve_cross_references().unwrap_err();
        assert!(matches!(error, DocError::UnresolvedCrossReference { .. }));
    }

    #[test]
    fn cyclic_cross_references_are_detected() {
        let mut parsed = ParsedDocumentation { library: "libx.so".into(), pages: BTreeMap::new() };
        parsed.pages.insert(
            "a".into(),
            ParsedPage { function: "a".into(), cross_references: vec!["b".into()], ..ParsedPage::default() },
        );
        parsed.pages.insert(
            "b".into(),
            ParsedPage { function: "b".into(), cross_references: vec!["a".into()], ..ParsedPage::default() },
        );
        assert!(matches!(parsed.resolve_cross_references(), Err(DocError::CyclicCrossReference { .. })));
    }

    #[test]
    fn garbage_text_reports_missing_sections() {
        let error = DocParser::new().parse_page("this is not a man page").unwrap_err();
        assert!(matches!(error, DocError::NoSections { .. }));
    }

    #[test]
    fn strict_parser_rejects_unknown_errno_names() {
        let text = "MANPAGE f\nNAME\n       f - x\n\nRETURN VALUE\n       On error, f() returns -1.\n\nERRORS\n       EFROBNICATE    bogus.\n";
        assert!(DocParser::new().parse_page(text).is_ok());
        let error = DocParser { strict_errno: true }.parse_page(text).unwrap_err();
        assert!(matches!(error, DocError::UnknownErrno { .. }));
    }

    #[test]
    fn numeric_fallback_errno_names_parse_back() {
        let mut page = ManPage::new("libx.so", "f");
        page.errnos.insert(9999);
        let parsed = parse_one(&page);
        assert!(parsed.errnos.contains(&9999));
    }

    #[test]
    fn spurious_values_are_parsed_as_documented() {
        // The parser has no way to know a documented value is impossible;
        // that is exactly why combined profiles can contain false positives.
        let mut page = ManPage::new("libx.so", "f").with_error_return(-1);
        page.spurious_returns.insert(-1001);
        let parsed = parse_one(&page);
        assert_eq!(parsed.error_returns, BTreeSet::from([-1001, -1]));
    }

    #[test]
    fn error_sets_skip_functions_without_values() {
        let mut set = DocumentationSet::new("libx.so");
        set.push(ManPage::new("libx.so", "a").with_error_return(-1));
        set.push(ManPage::new("libx.so", "b")); // always succeeds
        let parsed = DocParser::new().parse_set("libx.so", &set.render()).unwrap();
        let sets = parsed.error_sets();
        assert!(sets.contains_key("a"));
        assert!(!sets.contains_key("b"));
    }

    #[test]
    fn perfect_manual_round_trips_exactly() {
        let mut map = std::collections::BTreeMap::new();
        for i in 0..50i64 {
            map.insert(format!("fn_{i:02}"), BTreeSet::from([-1, -i - 2]));
        }
        let set = DocumentationSet::from_error_map("libx.so", &map, StylePolicy::perfect(), 3);
        let parsed = DocParser::new().parse_set("libx.so", &set.render()).unwrap();
        assert_eq!(parsed.error_sets(), map);
        assert_eq!(parsed.imprecise_fraction(), 0.0);
    }

    #[test]
    fn realistic_manual_recovers_only_part_of_the_truth() {
        let mut map = std::collections::BTreeMap::new();
        for i in 0..200i64 {
            map.insert(format!("fn_{i:03}"), BTreeSet::from([-1, -i - 2]));
        }
        let set = DocumentationSet::from_error_map("libx.so", &map, StylePolicy::realistic(), 11);
        let mut parsed = DocParser::new().parse_set("libx.so", &set.render()).unwrap();
        parsed.resolve_cross_references().unwrap();
        assert!(parsed.imprecise_fraction() > 0.0);
        let recovered: usize = parsed.error_sets().values().map(BTreeSet::len).sum();
        let truth: usize = map.values().map(BTreeSet::len).sum();
        assert!(recovered < truth, "vague pages must lose information ({recovered} vs {truth})");
        assert!(recovered > truth / 2, "most of the manual is still enumerated");
    }
}
