//! The workspace's `key = value` text format: one lexer and one writer,
//! shared by [`SimConfig`](crate::SimConfig),
//! [`ScenarioSpec`](crate::ScenarioSpec) and
//! [`WorkloadSpec`](crate::WorkloadSpec). Each of them keeps its own key
//! table; this module only splits lines and renders them.
//!
//! One assignment per line; `#` starts a comment; blank lines are skipped;
//! keys and values are trimmed. Every error names the format, the 1-based
//! line and the key as written, so a `scenario.*` entry of a configuration
//! is reported at its own line under its full key.

use crate::engine::SimError;
use std::fmt::{self, Write};
use std::str::FromStr;

/// One `key = value` line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry<'a> {
    /// The format's name in errors: `config`, `scenario` or `workload`.
    format: &'a str,
    /// The 1-based line number.
    line: usize,
    /// The key as written.
    key: &'a str,
    /// The key a table matches: `key` without the prefix of a nested
    /// table (see [`nested`](Entry::nested)).
    pub(crate) name: &'a str,
    /// The trimmed value.
    pub(crate) value: &'a str,
}

/// The entries of `text` in line order; `format` names the format in
/// errors. A line without `=` is an error at its position.
pub(crate) fn lex<'a>(
    format: &'a str,
    text: &'a str,
) -> impl Iterator<Item = Result<Entry<'a>, SimError>> + 'a {
    text.lines().enumerate().filter_map(move |(index, raw)| {
        let line = raw.split_once('#').map_or(raw, |(before, _comment)| before);
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        Some(match line.split_once('=') {
            Some((key, value)) => Ok(Entry {
                format,
                line: index + 1,
                key: key.trim(),
                name: key.trim(),
                value: value.trim(),
            }),
            None => Err(SimError::InvalidConfig(format!(
                "{format} line {}: expected `key = value`, got {raw:?}",
                index + 1
            ))),
        })
    })
}

impl<'a> Entry<'a> {
    /// This entry for a nested table, when its key starts with `prefix`:
    /// the table matches the rest of the key, errors still name all of it.
    pub(crate) fn nested(&self, prefix: &str) -> Option<Entry<'a>> {
        let name = self.name.strip_prefix(prefix)?;
        Some(Entry { name, ..*self })
    }

    /// The error for a value that is not `what`.
    pub(crate) fn bad_value(&self, what: &str) -> SimError {
        SimError::InvalidConfig(format!(
            "{} line {}: `{}` needs {what}, got {:?}",
            self.format, self.line, self.key, self.value
        ))
    }

    /// The error for a key the table does not know.
    pub(crate) fn unknown_key(&self) -> SimError {
        SimError::InvalidConfig(format!(
            "{} line {}: unknown key {:?}",
            self.format, self.line, self.key
        ))
    }

    /// The value, parsed as `what`.
    pub(crate) fn parse<T: FromStr>(&self, what: &str) -> Result<T, SimError> {
        self.parse_part(self.value, what)
    }

    /// `part` of the value (a list item, one side of a pair), trimmed and
    /// parsed; an error names the whole value as `what`.
    pub(crate) fn parse_part<T: FromStr>(&self, part: &str, what: &str) -> Result<T, SimError> {
        part.trim().parse().map_err(|_| self.bad_value(what))
    }

    /// A comma-separated list in `part` of the value.
    pub(crate) fn list<T: FromStr>(&self, part: &str, what: &str) -> Result<Vec<T>, SimError> {
        part.split(',').map(|x| self.parse_part(x, what)).collect()
    }

    /// An `a:b` pair in `part` of the value.
    pub(crate) fn pair<A: FromStr, B: FromStr>(
        &self,
        part: &str,
        what: &str,
    ) -> Result<(A, B), SimError> {
        let (a, b) = part.split_once(':').ok_or_else(|| self.bad_value(what))?;
        Ok((self.parse_part(a, what)?, self.parse_part(b, what)?))
    }
}

/// Renders `key = value` lines, each key behind the current prefix.
#[derive(Debug, Default)]
pub(crate) struct LineWriter {
    text: String,
    prefix: &'static str,
}

impl LineWriter {
    /// Appends one `key = value` line.
    pub(crate) fn line(&mut self, key: &str, value: impl fmt::Display) {
        writeln!(self.text, "{}{key} = {value}", self.prefix).expect("writing to a String");
    }

    /// Runs `write` with every key it writes behind `prefix`.
    pub(crate) fn nested(&mut self, prefix: &'static str, write: impl FnOnce(&mut Self)) {
        let outer = std::mem::replace(&mut self.prefix, prefix);
        write(self);
        self.prefix = outer;
    }

    /// The rendered text.
    pub(crate) fn into_text(self) -> String {
        self.text
    }
}

/// `values` joined by commas, each in its `Display` form (shortest
/// round-trip form for floats).
pub(crate) fn join<T: fmt::Display>(values: &[T]) -> String {
    let items: Vec<String> = values.iter().map(T::to_string).collect();
    items.join(",")
}
