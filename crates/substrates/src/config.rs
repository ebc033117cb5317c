//! A minimal `key=value` configuration-file front-end for substrate
//! selection, reusing the [`SubstrateSpec`] string parser.
//!
//! ```text
//! # deployment.conf — lines are `key = value`; `#` starts a comment
//! substrate = cached:512:disk:/data/oblidb
//! crossing_cost = 8000
//! ```
//!
//! Recognized keys:
//!
//! * `substrate` — a [`SubstrateSpec`] string (`host`, `disk:/path`,
//!   `cached:512:disk:/path`, `sharded:4:host`, ...).
//! * `crossing_cost` — simulated SGX transition cost in spin iterations,
//!   applied via `AnySubstrate::set_crossing_cost`.
//!
//! Everything else is a typed [`ConfigError`] — configuration typos fail
//! loudly at startup, never silently fall back to defaults. There is no
//! worker-count key: statements execute on one thread, and a file that
//! sets `threads` is rejected as an unknown key rather than having the
//! operator's setting silently ignored.

use std::path::Path;

use crate::{AnySubstrate, ParseSubstrateError, SubstrateSpec};

/// A parsed substrate configuration file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubstrateConfig {
    /// The substrate to run over.
    pub spec: SubstrateSpec,
    /// Simulated per-crossing cost (spin iterations), when configured.
    pub crossing_cost: Option<u32>,
}

impl SubstrateConfig {
    /// Builds the configured substrate and applies the configured
    /// crossing cost.
    pub fn build(&self) -> std::io::Result<AnySubstrate> {
        let mut m = self.spec.build()?;
        if let Some(spins) = self.crossing_cost {
            m.set_crossing_cost(spins);
        }
        Ok(m)
    }
}

/// Why a substrate configuration file was rejected.
#[derive(Debug)]
pub enum ConfigError {
    /// The file could not be read.
    Io(std::io::Error),
    /// A line is not `key = value` (and not blank or a comment).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A key this front-end does not recognize.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The offending key.
        key: String,
    },
    /// The same key appears twice.
    DuplicateKey {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The duplicated key.
        key: String,
    },
    /// `substrate = ...` failed the [`SubstrateSpec`] parser.
    BadSubstrate {
        /// 1-based line number.
        line: usize,
        /// The underlying parse error.
        err: ParseSubstrateError,
    },
    /// A numeric value failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The key whose value is bad.
        key: String,
        /// The offending text.
        got: String,
    },
    /// The file never named a substrate.
    MissingSubstrate,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Io(e) => write!(f, "cannot read config file: {e}"),
            ConfigError::Malformed { line, text } => {
                write!(f, "line {line}: expected `key = value`, got '{text}'")
            }
            ConfigError::UnknownKey { line, key } => {
                write!(f, "line {line}: unknown key '{key}' (expected substrate | crossing_cost)")
            }
            ConfigError::DuplicateKey { line, key } => {
                write!(f, "line {line}: key '{key}' given twice")
            }
            ConfigError::BadSubstrate { line, err } => write!(f, "line {line}: substrate: {err}"),
            ConfigError::BadNumber { line, key, got } => {
                write!(f, "line {line}: {key}: invalid number '{got}'")
            }
            ConfigError::MissingSubstrate => write!(f, "config file never sets `substrate`"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Io(e) => Some(e),
            ConfigError::BadSubstrate { err, .. } => Some(err),
            _ => None,
        }
    }
}

impl SubstrateSpec {
    /// Parses a `key = value` configuration file (see the [module
    /// docs](crate::config)) into a [`SubstrateConfig`].
    pub fn from_config_file(path: impl AsRef<Path>) -> Result<SubstrateConfig, ConfigError> {
        let text = std::fs::read_to_string(path).map_err(ConfigError::Io)?;
        Self::from_config_str(&text)
    }

    /// [`SubstrateSpec::from_config_file`] over in-memory text (testable
    /// without touching the filesystem).
    pub fn from_config_str(text: &str) -> Result<SubstrateConfig, ConfigError> {
        let mut spec: Option<SubstrateSpec> = None;
        let mut crossing_cost: Option<u32> = None;
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let Some((key, value)) = content.split_once('=') else {
                return Err(ConfigError::Malformed { line, text: content.to_string() });
            };
            let (key, value) = (key.trim(), value.trim());
            match key {
                "substrate" => {
                    if spec.is_some() {
                        return Err(ConfigError::DuplicateKey { line, key: key.into() });
                    }
                    spec =
                        Some(value.parse().map_err(|err| ConfigError::BadSubstrate { line, err })?);
                }
                "crossing_cost" => {
                    if crossing_cost.is_some() {
                        return Err(ConfigError::DuplicateKey { line, key: key.into() });
                    }
                    crossing_cost = Some(value.parse().map_err(|_| ConfigError::BadNumber {
                        line,
                        key: key.into(),
                        got: value.to_string(),
                    })?);
                }
                other => return Err(ConfigError::UnknownKey { line, key: other.into() }),
            }
        }
        Ok(SubstrateConfig { spec: spec.ok_or(ConfigError::MissingSubstrate)?, crossing_cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    #[test]
    fn parses_full_config() {
        let cfg = SubstrateSpec::from_config_str(
            "# deployment\nsubstrate = cached:512:disk:/data # hot blocks\ncrossing_cost = 8000\n",
        )
        .unwrap();
        assert_eq!(
            cfg.spec,
            SubstrateSpec::CachedDisk { dir: Some("/data".into()), capacity_blocks: 512 }
        );
        assert_eq!(cfg.crossing_cost, Some(8000));
    }

    #[test]
    fn crossing_cost_is_optional() {
        let cfg = SubstrateSpec::from_config_str("substrate = host\n").unwrap();
        assert_eq!(cfg.spec, SubstrateSpec::Host);
        assert_eq!(cfg.crossing_cost, None);
        cfg.build().unwrap();
    }

    #[test]
    fn retired_threads_key_is_rejected_with_its_line() {
        let err = SubstrateSpec::from_config_str("substrate = host\nthreads = 4\n").unwrap_err();
        assert!(matches!(&err, ConfigError::UnknownKey { line: 2, key } if key == "threads"));
        assert_eq!(
            err.to_string(),
            "line 2: unknown key 'threads' (expected substrate | crossing_cost)"
        );
    }

    #[test]
    fn errors_are_typed_and_carry_line_numbers() {
        assert!(matches!(
            SubstrateSpec::from_config_str("substrate host\n"),
            Err(ConfigError::Malformed { line: 1, .. })
        ));
        assert!(matches!(
            SubstrateSpec::from_config_str("substrate = host\nspindle = 4\n"),
            Err(ConfigError::UnknownKey { line: 2, .. })
        ));
        assert!(matches!(
            SubstrateSpec::from_config_str("substrate = floppy\n"),
            Err(ConfigError::BadSubstrate { line: 1, err: ParseSubstrateError::UnknownKind(_) })
        ));
        assert!(matches!(
            SubstrateSpec::from_config_str("substrate = host\ncrossing_cost = lots\n"),
            Err(ConfigError::BadNumber { line: 2, .. })
        ));
        assert!(matches!(
            SubstrateSpec::from_config_str("substrate = host\nsubstrate = disk\n"),
            Err(ConfigError::DuplicateKey { line: 2, .. })
        ));
        assert!(matches!(
            SubstrateSpec::from_config_str("# nothing\n"),
            Err(ConfigError::MissingSubstrate)
        ));
        // Errors render with their location.
        let msg = SubstrateSpec::from_config_str("substrate = floppy").unwrap_err().to_string();
        assert!(msg.contains("line 1"), "{msg}");
    }

    #[test]
    fn reads_from_file() {
        let dir = TempDir::new("oblidb-config").unwrap();
        let path = dir.path().join("deploy.conf");
        std::fs::write(&path, "substrate = disk\ncrossing_cost = 12\n").unwrap();
        let cfg = SubstrateSpec::from_config_file(&path).unwrap();
        assert_eq!(cfg.spec, SubstrateSpec::Disk { dir: None });
        assert_eq!(cfg.crossing_cost, Some(12));
        assert!(matches!(
            SubstrateSpec::from_config_file(dir.path().join("absent.conf")),
            Err(ConfigError::Io(_))
        ));
    }
}
