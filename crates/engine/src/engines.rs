//! The search-engine registry: the destination names (`"AV"`, `"Google"`)
//! a query may name, and their capabilities. The services themselves are
//! registered with the pump, the one map from engine name to service.

use std::collections::HashMap;
use std::sync::Arc;
use wsq_common::{Result, WsqError};

/// A registered search engine.
#[derive(Clone)]
pub struct EngineEntry {
    /// The name it was registered under, shared by every plan that
    /// targets it.
    pub name: Arc<str>,
    /// Does the engine support the `NEAR` operator? Decides the default
    /// `SearchExp` template (paper §3 footnote 1).
    pub supports_near: bool,
}

/// Registry of search engines available to WSQ queries.
///
/// Virtual table references resolve here: `WebCount`/`WebPages` use the
/// default engine; `WebCount_<E>`/`WebPages_<E>` use engine `E`.
#[derive(Clone, Default)]
pub struct EngineRegistry {
    engines: HashMap<String, EngineEntry>,
    default: Option<String>,
    /// Engines raced by `WebCount_ANY` / `WebPages_ANY` references
    /// (empty = racing unavailable).
    race_group: Vec<Arc<str>>,
}

impl EngineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register engine `name`. The first registered engine becomes the
    /// default for unsuffixed `WebCount`/`WebPages` references.
    pub fn register(&mut self, name: &str, supports_near: bool) {
        if self.default.is_none() {
            self.default = Some(name.to_string());
        }
        self.engines.insert(
            name.to_string(),
            EngineEntry {
                name: name.into(),
                supports_near,
            },
        );
    }

    /// Override which engine is the default.
    pub fn set_default(&mut self, name: &str) -> Result<()> {
        if !self.engines.contains_key(name) {
            return Err(WsqError::Plan(format!("unknown engine '{name}'")));
        }
        self.default = Some(name.to_string());
        Ok(())
    }

    /// Look up an engine, case-insensitively.
    pub fn get(&self, name: &str) -> Result<(&str, &EngineEntry)> {
        if let Some((k, e)) = self.engines.get_key_value(name) {
            return Ok((k.as_str(), e));
        }
        // Case-insensitive fallback.
        for (k, e) in &self.engines {
            if k.eq_ignore_ascii_case(name) {
                return Ok((k.as_str(), e));
            }
        }
        Err(WsqError::Plan(format!("unknown search engine '{name}'")))
    }

    /// The default engine's name.
    pub fn default_name(&self) -> Result<&str> {
        self.default
            .as_deref()
            .ok_or_else(|| WsqError::Plan("no search engine registered".to_string()))
    }

    /// Declare the engines an `ANY` virtual-table reference races
    /// (first result wins). Each name must already be registered; names
    /// are canonicalized to their registered casing. An empty slice
    /// clears the group, making `ANY` references fail to plan again.
    pub fn set_race_group(&mut self, names: &[&str]) -> Result<()> {
        let mut canonical = Vec::with_capacity(names.len());
        for name in names {
            let (_, entry) = self.get(name)?;
            if !canonical.contains(&entry.name) {
                canonical.push(entry.name.clone());
            }
        }
        self.race_group = canonical;
        Ok(())
    }

    /// The engines an `ANY` reference races (empty = none configured).
    pub fn race_group(&self) -> &[Arc<str>] {
        &self.race_group
    }

    /// All registered engine names.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.engines.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_registration_is_default() {
        let mut r = EngineRegistry::new();
        assert!(r.default_name().is_err());
        r.register("AV", true);
        r.register("Google", false);
        assert_eq!(r.default_name().unwrap(), "AV");
        r.set_default("Google").unwrap();
        assert_eq!(r.default_name().unwrap(), "Google");
        assert!(r.set_default("Bing").is_err());
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let mut r = EngineRegistry::new();
        r.register("Google", false);
        let (name, entry) = r.get("google").unwrap();
        assert_eq!(name, "Google");
        assert!(!entry.supports_near);
        assert!(r.get("altavista").is_err());
    }

    #[test]
    fn names_sorted() {
        let mut r = EngineRegistry::new();
        r.register("Google", false);
        r.register("AV", true);
        assert_eq!(r.names(), vec!["AV", "Google"]);
    }
}
