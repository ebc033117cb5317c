//! Runtime substrate selection: one type, any backend.

use std::path::PathBuf;

use oblidb_enclave::{EnclaveMemory, Host, HostError, HostStats, RegionId, Trace};

use crate::{CachedMemory, DiskMemory};

/// Declarative substrate choice, parsed from a spec string. Feed the
/// built [`AnySubstrate`] to `Database::with_memory` (or the facade's
/// `oblidb::database_on`) to open the same engine over any backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubstrateSpec {
    /// In-RAM [`Host`] (the default substrate).
    Host,
    /// [`DiskMemory`]: `None` uses a self-cleaning temp directory, `Some`
    /// a persistent directory.
    Disk {
        /// Region-file directory; `None` → self-cleaning temp dir.
        dir: Option<PathBuf>,
    },
    /// [`CachedMemory`] over [`DiskMemory`]: the larger-than-RAM
    /// configuration.
    CachedDisk {
        /// Region-file directory; `None` → self-cleaning temp dir.
        dir: Option<PathBuf>,
        /// Cache capacity in blocks.
        capacity_blocks: usize,
    },
}

/// Why a substrate spec string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseSubstrateError {
    /// Unknown leading keyword (expected `host`, `disk`, or `cached`).
    UnknownKind(String),
    /// `cached:` wraps something that is not `disk`.
    UnknownInner(String),
    /// The cache block count failed to parse or was zero.
    BadNumber {
        /// Which field.
        field: &'static str,
        /// The offending text.
        got: String,
    },
    /// The spec ended where more was required (e.g. `cached`).
    Incomplete(&'static str),
}

impl std::fmt::Display for ParseSubstrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseSubstrateError::UnknownKind(s) => {
                write!(f, "unknown substrate '{s}' (expected host | disk[:dir] | cached[:blocks]:disk[:dir])")
            }
            ParseSubstrateError::UnknownInner(s) => {
                write!(f, "unknown inner substrate '{s}' (expected disk[:dir])")
            }
            ParseSubstrateError::BadNumber { field, got } => {
                write!(f, "invalid {field} '{got}' (expected a positive integer)")
            }
            ParseSubstrateError::Incomplete(what) => write!(f, "spec is missing {what}"),
        }
    }
}

impl std::error::Error for ParseSubstrateError {}

/// Default hot-block cache capacity when a `cached:` spec names none.
pub const DEFAULT_CACHE_BLOCKS: usize = 4096;

impl std::str::FromStr for SubstrateSpec {
    type Err = ParseSubstrateError;

    /// Parses the spec string `OBLIDB_SUBSTRATE` and
    /// `oblidb-serve --substrate` take:
    ///
    /// * `host`
    /// * `disk` | `disk:/path/to/dir`
    /// * `cached:disk[:dir]` | `cached:<blocks>:disk[:dir]` — e.g.
    ///   `cached:disk:/data`, `cached:8192:disk`
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        fn inner_disk_dir(rest: Option<&str>) -> Option<PathBuf> {
            rest.filter(|p| !p.is_empty()).map(PathBuf::from)
        }
        let (kind, rest) = match s.split_once(':') {
            Some((k, r)) => (k, Some(r)),
            None => (s, None),
        };
        match kind.trim().to_ascii_lowercase().as_str() {
            "host" => Ok(SubstrateSpec::Host),
            "disk" => Ok(SubstrateSpec::Disk { dir: inner_disk_dir(rest) }),
            "cached" => {
                let rest = rest.ok_or(ParseSubstrateError::Incomplete("an inner substrate"))?;
                // Optional leading block count.
                let (capacity_blocks, inner) = match rest.split_once(':') {
                    Some((first, tail)) if first.chars().all(|c| c.is_ascii_digit()) => {
                        let n = first.parse::<usize>().ok().filter(|n| *n > 0).ok_or(
                            ParseSubstrateError::BadNumber {
                                field: "cache block count",
                                got: first.to_string(),
                            },
                        )?;
                        (n, tail)
                    }
                    _ => (DEFAULT_CACHE_BLOCKS, rest),
                };
                let (ik, irest) = match inner.split_once(':') {
                    Some((k, r)) => (k, Some(r)),
                    None => (inner, None),
                };
                match ik.trim().to_ascii_lowercase().as_str() {
                    "disk" => Ok(SubstrateSpec::CachedDisk {
                        dir: inner_disk_dir(irest),
                        capacity_blocks,
                    }),
                    other => Err(ParseSubstrateError::UnknownInner(other.to_string())),
                }
            }
            other => Err(ParseSubstrateError::UnknownKind(other.to_string())),
        }
    }
}

impl SubstrateSpec {
    /// Reads the spec from the `OBLIDB_SUBSTRATE` environment variable
    /// ([`SubstrateSpec::Host`] when unset or empty).
    pub fn from_env() -> Result<Self, ParseSubstrateError> {
        match std::env::var("OBLIDB_SUBSTRATE") {
            Ok(s) if !s.trim().is_empty() => s.trim().parse(),
            _ => Ok(SubstrateSpec::Host),
        }
    }

    /// The substrate label this spec builds — the same string
    /// [`AnySubstrate::label`] reports, and the conventional key for a
    /// per-substrate cost profile (`oblidb_core::CostProfile::named`).
    pub fn profile_name(&self) -> &'static str {
        match self {
            SubstrateSpec::Host => "host",
            SubstrateSpec::Disk { .. } => "disk",
            SubstrateSpec::CachedDisk { .. } => "cached-disk",
        }
    }

    /// The directory a database over this spec persists into (region
    /// files, region tables, and the sealed database manifest), when the
    /// spec names one. `None` for in-memory and self-cleaning-temp specs —
    /// those have nothing durable to reopen.
    pub fn persist_dir(&self) -> Option<&std::path::Path> {
        match self {
            SubstrateSpec::Disk { dir: Some(d) }
            | SubstrateSpec::CachedDisk { dir: Some(d), .. } => Some(d),
            _ => None,
        }
    }

    /// Re-attaches to the populated store this spec describes: the
    /// reopen-side counterpart of [`SubstrateSpec::build`], using
    /// [`DiskMemory::open`] underneath. Fails with
    /// [`std::io::ErrorKind::Unsupported`] for specs with no durable state
    /// (in-memory hosts, self-cleaning temp dirs).
    pub fn open(&self) -> std::io::Result<AnySubstrate> {
        let nothing_durable = |what: &str| {
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                format!("substrate spec '{what}' has no persisted state to reopen"),
            )
        };
        Ok(match self {
            SubstrateSpec::Disk { dir: Some(d) } => AnySubstrate::Disk(DiskMemory::open(d)?),
            SubstrateSpec::CachedDisk { dir: Some(d), capacity_blocks } => {
                AnySubstrate::CachedDisk(CachedMemory::new(DiskMemory::open(d)?, *capacity_blocks))
            }
            SubstrateSpec::Disk { dir: None } | SubstrateSpec::CachedDisk { dir: None, .. } => {
                return Err(nothing_durable("disk (temp dir)"));
            }
            SubstrateSpec::Host => return Err(nothing_durable("host")),
        })
    }

    /// Builds the substrate this spec describes.
    pub fn build(&self) -> std::io::Result<AnySubstrate> {
        Ok(match self {
            SubstrateSpec::Host => AnySubstrate::Host(Host::new()),
            SubstrateSpec::Disk { dir } => AnySubstrate::Disk(disk(dir)?),
            SubstrateSpec::CachedDisk { dir, capacity_blocks } => {
                AnySubstrate::CachedDisk(CachedMemory::new(disk(dir)?, *capacity_blocks))
            }
        })
    }
}

fn disk(dir: &Option<PathBuf>) -> std::io::Result<DiskMemory> {
    match dir {
        Some(d) => DiskMemory::create(d),
        None => DiskMemory::temp(),
    }
}

/// A runtime-selected [`EnclaveMemory`]: the closed set of substrate
/// stacks the engine ships, behind one concrete type so `Database` keeps
/// a single instantiation per binary while the backend comes from a spec
/// string. Built by [`SubstrateSpec::build`].
#[allow(clippy::large_enum_variant)]
pub enum AnySubstrate {
    /// In-RAM host.
    Host(Host),
    /// Disk-backed.
    Disk(DiskMemory),
    /// LRU cache over disk.
    CachedDisk(CachedMemory<DiskMemory>),
}

macro_rules! dispatch {
    ($self:expr, $m:ident => $body:expr) => {
        match $self {
            AnySubstrate::Host($m) => $body,
            AnySubstrate::Disk($m) => $body,
            AnySubstrate::CachedDisk($m) => $body,
        }
    };
}

impl AnySubstrate {
    /// A short label for reports ("host", "disk", "cached-disk", …).
    pub fn label(&self) -> &'static str {
        match self {
            AnySubstrate::Host(_) => "host",
            AnySubstrate::Disk(_) => "disk",
            AnySubstrate::CachedDisk(_) => "cached-disk",
        }
    }

    /// Cache counters when this substrate has a cache layer.
    pub fn cache_stats(&self) -> Option<crate::CacheStats> {
        match self {
            AnySubstrate::CachedDisk(c) => Some(c.cache_stats()),
            _ => None,
        }
    }

    /// The inner (backing) substrate's counters when this substrate has a
    /// cache layer: the traffic that survived cache absorption.
    pub fn backing_stats(&self) -> Option<HostStats> {
        match self {
            AnySubstrate::CachedDisk(c) => Some(c.inner().stats()),
            _ => None,
        }
    }
}

impl EnclaveMemory for AnySubstrate {
    fn alloc_region(&mut self, blocks: usize, block_size: usize) -> Result<RegionId, HostError> {
        dispatch!(self, m => m.alloc_region(blocks, block_size))
    }

    fn free_region(&mut self, region: RegionId) -> Result<(), HostError> {
        dispatch!(self, m => m.free_region(region))
    }

    fn grow_region(&mut self, region: RegionId, new_blocks: usize) -> Result<(), HostError> {
        dispatch!(self, m => m.grow_region(region, new_blocks))
    }

    fn region_len(&self, region: RegionId) -> Result<u64, HostError> {
        dispatch!(self, m => m.region_len(region))
    }

    fn region_block_size(&self, region: RegionId) -> Result<usize, HostError> {
        dispatch!(self, m => m.region_block_size(region))
    }

    fn read(&mut self, region: RegionId, index: u64) -> Result<&[u8], HostError> {
        dispatch!(self, m => m.read(region, index))
    }

    fn write(&mut self, region: RegionId, index: u64, data: &[u8]) -> Result<(), HostError> {
        dispatch!(self, m => m.write(region, index, data))
    }

    fn read_blocks(
        &mut self,
        region: RegionId,
        start: u64,
        count: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        dispatch!(self, m => m.read_blocks(region, start, count, out))
    }

    fn read_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        out: &mut Vec<u8>,
    ) -> Result<(), HostError> {
        dispatch!(self, m => m.read_blocks_at(region, indices, out))
    }

    fn write_blocks(&mut self, region: RegionId, start: u64, data: &[u8]) -> Result<(), HostError> {
        dispatch!(self, m => m.write_blocks(region, start, data))
    }

    fn write_blocks_at(
        &mut self,
        region: RegionId,
        indices: &[u64],
        data: &[u8],
    ) -> Result<(), HostError> {
        dispatch!(self, m => m.write_blocks_at(region, indices, data))
    }

    fn start_trace(&mut self) {
        dispatch!(self, m => m.start_trace())
    }

    fn take_trace(&mut self) -> Trace {
        dispatch!(self, m => m.take_trace())
    }

    fn tracing(&self) -> bool {
        dispatch!(self, m => m.tracing())
    }

    fn stats(&self) -> HostStats {
        dispatch!(self, m => m.stats())
    }

    fn reset_stats(&mut self) {
        dispatch!(self, m => m.reset_stats())
    }

    fn sync(&mut self) -> Result<(), HostError> {
        dispatch!(self, m => m.sync())
    }

    fn sync_region(&mut self, region: RegionId) -> Result<(), HostError> {
        dispatch!(self, m => m.sync_region(region))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(spec: &SubstrateSpec) {
        let mut m = spec.build().unwrap();
        let label = m.label();
        let r = m.alloc_region(4, 8).unwrap();
        m.write(r, 2, &[5u8; 8]).unwrap();
        assert_eq!(m.read(r, 2).unwrap(), &[5u8; 8], "{label}");
        assert_eq!(m.stats().writes, 1, "{label}");
        m.sync().unwrap();
    }

    #[test]
    fn every_spec_builds_and_roundtrips() {
        for spec in [
            SubstrateSpec::Host,
            SubstrateSpec::Disk { dir: None },
            SubstrateSpec::CachedDisk { dir: None, capacity_blocks: 2 },
        ] {
            roundtrip(&spec);
        }
    }

    #[test]
    fn spec_parses_from_strings() {
        let cases: Vec<(&str, SubstrateSpec)> = vec![
            ("host", SubstrateSpec::Host),
            ("disk", SubstrateSpec::Disk { dir: None }),
            ("disk:/tmp/obli", SubstrateSpec::Disk { dir: Some("/tmp/obli".into()) }),
            (
                "cached:disk:/data",
                SubstrateSpec::CachedDisk {
                    dir: Some("/data".into()),
                    capacity_blocks: DEFAULT_CACHE_BLOCKS,
                },
            ),
            ("cached:128:disk", SubstrateSpec::CachedDisk { dir: None, capacity_blocks: 128 }),
        ];
        for (text, expect) in cases {
            assert_eq!(text.parse::<SubstrateSpec>().unwrap(), expect, "{text}");
        }
    }

    #[test]
    fn spec_parse_errors_are_typed() {
        assert!(matches!(
            "floppy".parse::<SubstrateSpec>(),
            Err(ParseSubstrateError::UnknownKind(k)) if k == "floppy"
        ));
        assert!(matches!(
            "cached:tape".parse::<SubstrateSpec>(),
            Err(ParseSubstrateError::UnknownInner(k)) if k == "tape"
        ));
        assert!(matches!(
            "cached:0:disk".parse::<SubstrateSpec>(),
            Err(ParseSubstrateError::BadNumber { field: "cache block count", .. })
        ));
        // Retired spec forms fail loudly rather than fall back to another
        // substrate.
        assert!(matches!(
            "sharded:2:host".parse::<SubstrateSpec>(),
            Err(ParseSubstrateError::UnknownKind(k)) if k == "sharded"
        ));
        assert!(matches!(
            "cached:host".parse::<SubstrateSpec>(),
            Err(ParseSubstrateError::UnknownInner(k)) if k == "host"
        ));
        assert!(matches!(
            "cached".parse::<SubstrateSpec>(),
            Err(ParseSubstrateError::Incomplete(_))
        ));
        // Errors render a usable hint.
        let msg = "floppy".parse::<SubstrateSpec>().unwrap_err().to_string();
        assert!(msg.contains("expected host | disk"), "{msg}");
    }

    #[test]
    fn profile_names_match_labels() {
        for text in ["host", "disk", "cached:disk"] {
            let spec: SubstrateSpec = text.parse().unwrap();
            let built = spec.build().unwrap();
            assert_eq!(spec.profile_name(), built.label(), "{text}");
        }
    }

    #[test]
    fn labels_and_cache_accessors() {
        let m = SubstrateSpec::CachedDisk { dir: None, capacity_blocks: 4 }.build().unwrap();
        assert_eq!(m.label(), "cached-disk");
        assert_eq!(m.cache_stats(), Some(crate::CacheStats::default()));
        assert_eq!(m.backing_stats(), Some(HostStats::default()));
        let h = SubstrateSpec::Host.build().unwrap();
        assert!(h.cache_stats().is_none());
    }
}
