//! Per-tenant pattern namespaces with artifact-backed cold starts.
//!
//! Registering a tenant resolves its pattern list to a matcher through
//! three tiers, cheapest first:
//!
//! 1. **Artifact directory** — a durable `.sfa` file written by a
//!    previous run (or an offline build step) is memory-mapped and loaded
//!    zero-copy: cold start skips the whole NFA → DFA → D-SFA pipeline.
//! 2. **Compile cache** — an in-memory LRU of encoded artifacts shared by
//!    all tenants of the server; two tenants registering the same rule
//!    set compile once.
//! 3. **Fresh compile** — the full pipeline; the result is encoded back
//!    into the cache and (best effort) the artifact directory so the
//!    *next* cold start takes tier 1.
//!
//! Tiers 1 and 2 are keyed on the [namespace key](namespace_key): the
//! match mode plus the length-prefixed pattern list. A joined label would
//! not do — `["a|b", "c"]` and `["a", "b|c"]` share the label `a|b|c` but
//! not their per-pattern verdicts. The artifact directory stores the key
//! next to each artifact (`<hash>.key` beside `<hash>.sfa`), and a load
//! goes ahead only when that key equals the requested one byte for byte.
//!
//! A stale, corrupt, foreign or mode-mismatched artifact never panics and
//! never misreports: validation failures (the typed
//! [`ArtifactError`](sfa_serialize::ArtifactError) surface) simply drop
//! to the next tier.

use crate::config::ServerConfig;
use sfa_matcher::{Error, MatchMode, Regex, RegexBuilder, RegexSet};
use sfa_serialize::{fnv1a, CacheKey, CompileCache};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

/// Where a tenant's automaton came from at registration time (reported
/// on the wire so operators can see whether cold starts hit artifacts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegisterSource {
    /// Compiled from scratch this registration.
    CompiledFresh = 0,
    /// Loaded zero-copy from the artifact directory.
    Artifact = 1,
    /// Decoded from the in-memory compile cache.
    Cache = 2,
}

impl RegisterSource {
    /// Wire decoding (see [`STATUS_OK`](crate::protocol::STATUS_OK)).
    pub fn from_byte(b: u8) -> Option<RegisterSource> {
        Some(match b {
            0 => RegisterSource::CompiledFresh,
            1 => RegisterSource::Artifact,
            2 => RegisterSource::Cache,
            _ => return None,
        })
    }
}

/// A tenant's compiled matcher: either a freshly compiled set (which may
/// shard internally) or a single automaton loaded from an artifact.
pub(crate) enum TenantMatcher {
    /// Fresh compile — the full [`RegexSet`] machinery (auto-sharding,
    /// prefilter) applies.
    Compiled(RegexSet),
    /// Zero-copy artifact load — one union automaton with per-pattern
    /// tracking; its tables live in the mapped artifact. Boxed: `Regex`
    /// is much larger than the `RegexSet` handle.
    Artifact(Box<Regex>),
}

impl TenantMatcher {
    /// Per-haystack matched pattern ids, via one batched scan.
    pub fn matches_batch(&self, haystacks: &[&[u8]]) -> Result<Vec<Vec<u32>>, Error> {
        let matches = match self {
            TenantMatcher::Compiled(set) => set.try_matches_batch(haystacks)?,
            TenantMatcher::Artifact(re) => re.try_matches_batch(haystacks)?,
        };
        Ok(matches.iter().map(|m| m.iter().map(|id| id as u32).collect()).collect())
    }

    /// Number of patterns in the namespace.
    pub fn pattern_count(&self) -> usize {
        match self {
            TenantMatcher::Compiled(set) => set.len(),
            TenantMatcher::Artifact(re) => re.pattern_count(),
        }
    }
}

/// The tenant registry plus the shared compile cache.
pub(crate) struct Tenants {
    config: ServerConfig,
    map: RwLock<HashMap<String, Arc<TenantMatcher>>>,
    cache: CompileCache,
}

impl Tenants {
    pub fn new(config: ServerConfig) -> Tenants {
        let cache = CompileCache::new(config.cache_bytes);
        Tenants { config, map: RwLock::new(HashMap::new()), cache }
    }

    fn builder(&self) -> RegexBuilder {
        RegexBuilder::new().mode(self.config.mode)
    }

    /// The artifact path for a namespace key: content-addressed over the
    /// key, so differently-configured servers sharing a directory never
    /// pick each other's files. The key itself is stored beside it (see
    /// [`key_path`]), because a 64-bit name alone cannot rule out a
    /// collision.
    fn artifact_path(&self, key: &str) -> Option<PathBuf> {
        let dir = self.config.artifact_dir.as_ref()?;
        Some(dir.join(format!("{:016x}.sfa", fnv1a(key.as_bytes()))))
    }

    /// Registers (or replaces) `tenant`'s namespace. See the module docs
    /// for the three-tier resolution. Errors are pre-rendered: they go
    /// straight onto the wire as `STATUS_ERROR` text.
    pub fn register(
        &self,
        tenant: &str,
        patterns: &[String],
    ) -> Result<(usize, RegisterSource), String> {
        let key = namespace_key(self.config.mode, patterns);

        let (matcher, source) = if let Some(re) = self.try_artifact(&key, patterns.len()) {
            (TenantMatcher::Artifact(Box::new(re)), RegisterSource::Artifact)
        } else if let Some(re) = self.try_cache(&key, patterns.len()) {
            (TenantMatcher::Artifact(Box::new(re)), RegisterSource::Cache)
        } else {
            (self.compile(&key, patterns)?, RegisterSource::CompiledFresh)
        };

        let count = matcher.pattern_count();
        self.map.write().unwrap().insert(tenant.to_string(), Arc::new(matcher));
        Ok((count, source))
    }

    /// Whether a loaded artifact can serve a namespace of `pattern_count`
    /// patterns under this server's mode.
    fn fits(&self, re: &Regex, pattern_count: usize) -> bool {
        re.pattern_count() == pattern_count && re.mode() == self.config.mode
    }

    /// Tier 1: durable artifact, used only when the key stored beside it
    /// is exactly the requested namespace key.
    fn try_artifact(&self, key: &str, pattern_count: usize) -> Option<Regex> {
        let path = self.artifact_path(key)?;
        // The length check first, so a stray huge file is never read in.
        let stored = key_path(&path);
        if std::fs::metadata(&stored).ok()?.len() != key.len() as u64
            || std::fs::read(&stored).ok()? != key.as_bytes()
        {
            return None;
        }
        let re = Regex::load_artifact(&path).ok()?;
        self.fits(&re, pattern_count).then_some(re)
    }

    /// Tier 2: the in-memory encoded-artifact cache, keyed exactly on the
    /// namespace key.
    fn try_cache(&self, key: &str, pattern_count: usize) -> Option<Regex> {
        let bytes = self.cache.get(&CacheKey::new(key, &Default::default()))?;
        let re = Regex::from_artifact(bytes).ok()?;
        self.fits(&re, pattern_count).then_some(re)
    }

    /// Tier 3: fresh compile, then warm the cache and the artifact
    /// directory for the next registration / next cold start.
    fn compile(&self, key: &str, patterns: &[String]) -> Result<TenantMatcher, String> {
        let set = RegexSet::new(patterns.iter().map(|p| p.as_str()), &self.builder())
            .map_err(|e| format!("compile failed: {e}"))?;
        // Only unsharded eager automata serialize; sharded or lazy sets
        // simply skip the warm-up (to_artifact refuses them typed-ly).
        if !set.is_sharded() {
            if let Ok(bytes) = set.regex().to_artifact() {
                let bytes = Arc::new(bytes);
                self.cache.insert(CacheKey::new(key, &Default::default()), Arc::clone(&bytes));
                if let Some(path) = self.artifact_path(key) {
                    // Best effort: a read-only artifact dir just means the
                    // next cold start compiles again. The key goes last,
                    // so a half-written pair is never accepted.
                    let _ = std::fs::create_dir_all(path.parent().unwrap());
                    let _ = std::fs::remove_file(key_path(&path));
                    let _ = std::fs::write(&path, bytes.as_slice())
                        .and_then(|()| std::fs::write(key_path(&path), key));
                }
            }
        }
        Ok(TenantMatcher::Compiled(set))
    }

    /// The tenant's matcher, cloned out of the lock so matching never
    /// holds the registry.
    pub fn get(&self, tenant: &str) -> Result<Arc<TenantMatcher>, Error> {
        self.map
            .read()
            .unwrap()
            .get(tenant)
            .cloned()
            .ok_or_else(|| Error::TenantUnknown { tenant: tenant.to_string() })
    }

    /// Observability: cached artifact bytes currently held.
    pub fn cache_bytes(&self) -> usize {
        self.cache.bytes()
    }
}

/// The canonical key of a pattern namespace: the match mode, the pattern
/// count, then every pattern preceded by its byte length. Injective over
/// `(mode, patterns)` — no two distinct pattern lists share a key, however
/// their texts happen to concatenate.
fn namespace_key(mode: MatchMode, patterns: &[String]) -> String {
    let mode = match mode {
        MatchMode::Whole => "whole",
        MatchMode::Contains => "contains",
    };
    let mut key = format!("{mode};{}", patterns.len());
    for p in patterns {
        key.push_str(&format!(";{}:{p}", p.len()));
    }
    key
}

/// The file holding the namespace key of the artifact at `artifact`.
fn key_path(artifact: &Path) -> PathBuf {
    artifact.with_extension("key")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(patterns: &[&str]) -> Vec<String> {
        patterns.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn namespace_keys_separate_lists_with_equal_labels() {
        let a = namespace_key(MatchMode::Contains, &list(&["a|b", "c"]));
        let b = namespace_key(MatchMode::Contains, &list(&["a", "b|c"]));
        assert_ne!(a, b);
        assert_ne!(a, namespace_key(MatchMode::Whole, &list(&["a|b", "c"])));
        assert_ne!(
            namespace_key(MatchMode::Contains, &list(&["a;1:b"])),
            namespace_key(MatchMode::Contains, &list(&["a", "b"]))
        );
        assert_eq!(a, namespace_key(MatchMode::Contains, &list(&["a|b", "c"])));
    }

    /// Two tenants whose pattern lists join to the same label each get
    /// their own automaton, from the compile cache and from the artifact
    /// directory alike.
    #[test]
    fn lists_with_equal_labels_never_share_an_automaton() {
        let dir = std::env::temp_dir().join(format!("sfa-tenants-labels-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for artifact_dir in [None, Some(dir.clone())] {
            let tenants = Tenants::new(ServerConfig { artifact_dir, ..Default::default() });
            let (_, first) = tenants.register("t1", &list(&["a|b", "c"])).unwrap();
            assert_eq!(first, RegisterSource::CompiledFresh);
            let (_, second) = tenants.register("t2", &list(&["a", "b|c"])).unwrap();
            assert_eq!(second, RegisterSource::CompiledFresh, "no tier may serve t1's automaton");
            let verdict =
                |tenant: &str| tenants.get(tenant).unwrap().matches_batch(&[b"b"]).unwrap();
            assert_eq!(verdict("t1"), vec![vec![0]]);
            assert_eq!(verdict("t2"), vec![vec![1]]);
        }
        // A later server reloads each namespace from its own artifact.
        let tenants =
            Tenants::new(ServerConfig { artifact_dir: Some(dir.clone()), ..Default::default() });
        for (tenant, patterns, want) in [("t1", ["a|b", "c"], 0), ("t2", ["a", "b|c"], 1)] {
            let (_, source) = tenants.register(tenant, &list(&patterns)).unwrap();
            assert_eq!(source, RegisterSource::Artifact);
            let got = tenants.get(tenant).unwrap().matches_batch(&[b"b"]).unwrap();
            assert_eq!(got, vec![vec![want]]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
