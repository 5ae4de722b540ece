//! Parsing the paper's enhanced `available_accelerators` configuration.
//!
//! §4.1/§4.2 extend Parsl's `HighThroughputExecutor` so that
//! `available_accelerators` may contain GPU indices (possibly repeated, to
//! multiplex one GPU across several workers), and a parallel
//! `gpu_percentage` list assigns each entry an MPS active-thread
//! percentage (Listing 2). Entries may instead be MIG instance UUIDs
//! (Listing 3). This module turns those user-facing strings into the
//! resolved [`AcceleratorSpec`]s the executor consumes.

use parfait_faas::AcceleratorSpec;
use std::fmt;

/// Errors from accelerator-list parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccelParseError {
    /// Entry was neither a GPU index nor a MIG UUID.
    BadEntry(String),
    /// `gpu_percentage` list length differs from the accelerator list.
    PercentageLengthMismatch {
        /// Accelerator entries.
        accelerators: usize,
        /// Percentage entries.
        percentages: usize,
    },
    /// Percentage outside `1..=100`.
    BadPercentage(u32),
    /// A percentage was attached to a MIG entry (MIG instances are sized
    /// by their profile, not by MPS percentages).
    PercentageOnMig(String),
    /// Percentages on one GPU exceed the paper's oversubscription guard.
    Oversubscribed {
        /// GPU index.
        gpu: u32,
        /// Sum of its percentages.
        total: u32,
    },
}

impl fmt::Display for AccelParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelParseError::BadEntry(e) => write!(f, "unrecognized accelerator entry {e:?}"),
            AccelParseError::PercentageLengthMismatch {
                accelerators,
                percentages,
            } => write!(
                f,
                "gpu_percentage has {percentages} entries for {accelerators} accelerators"
            ),
            AccelParseError::BadPercentage(p) => write!(f, "GPU percentage {p} outside 1..=100"),
            AccelParseError::PercentageOnMig(u) => {
                write!(f, "gpu_percentage cannot apply to MIG instance {u}")
            }
            AccelParseError::Oversubscribed { gpu, total } => {
                write!(f, "GPU {gpu} percentages sum to {total} (> 200% guard)")
            }
        }
    }
}

impl std::error::Error for AccelParseError {}

/// Parse one `available_accelerators` entry.
pub fn parse_entry(entry: &str) -> Result<AcceleratorSpec, AccelParseError> {
    let e = entry.trim();
    if e.starts_with("MIG-") {
        return Ok(AcceleratorSpec::Mig(e.to_string()));
    }
    e.parse::<u32>()
        .map(AcceleratorSpec::Gpu)
        .map_err(|_| AccelParseError::BadEntry(entry.to_string()))
}

/// Parse an accelerator list with an optional parallel `gpu_percentage`
/// list — the full Listing-2 surface. Duplicated GPU indices are the
/// multiplexing idiom and are preserved as distinct worker slots.
///
/// A >200 % per-GPU sum is rejected: MPS allows oversubscription, but the
/// executor treats heavy oversubscription as a configuration error (each
/// worker would thrash).
pub fn parse_accelerators(
    entries: &[&str],
    gpu_percentage: Option<&[u32]>,
) -> Result<Vec<AcceleratorSpec>, AccelParseError> {
    if let Some(p) = gpu_percentage {
        if p.len() != entries.len() {
            return Err(AccelParseError::PercentageLengthMismatch {
                accelerators: entries.len(),
                percentages: p.len(),
            });
        }
    }
    let mut out = Vec::with_capacity(entries.len());
    for (i, e) in entries.iter().enumerate() {
        let base = parse_entry(e)?;
        let spec = match (base, gpu_percentage.map(|p| p[i])) {
            (AcceleratorSpec::Gpu(g), Some(pct)) => {
                if !(1..=100).contains(&pct) {
                    return Err(AccelParseError::BadPercentage(pct));
                }
                AcceleratorSpec::GpuPercentage(g, pct)
            }
            (AcceleratorSpec::Mig(u), Some(_)) => {
                return Err(AccelParseError::PercentageOnMig(u));
            }
            (s, _) => s,
        };
        out.push(spec);
    }
    // Oversubscription guard per GPU.
    let mut sums: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
    for s in &out {
        if let AcceleratorSpec::GpuPercentage(g, p) = s {
            *sums.entry(*g).or_insert(0) += p;
        }
    }
    for (gpu, total) in sums {
        if total > 200 {
            return Err(AccelParseError::Oversubscribed { gpu, total });
        }
    }
    Ok(out)
}

/// Render specs back into the `available_accelerators` /
/// `gpu_percentage` string form (the inverse of [`parse_accelerators`],
/// which the round-trip tests check). MIG entries carry no
/// percentage; mixed lists render percentages only when any entry has
/// one, defaulting plain GPUs to 100.
pub fn format_accelerators(specs: &[AcceleratorSpec]) -> (Vec<String>, Option<Vec<u32>>) {
    let entries: Vec<String> = specs
        .iter()
        .map(|s| match s {
            AcceleratorSpec::Gpu(g) | AcceleratorSpec::GpuPercentage(g, _) => g.to_string(),
            AcceleratorSpec::Mig(u) => u.clone(),
            AcceleratorSpec::VgpuSlot(g, sl) => format!("vgpu{g}:{sl}"),
        })
        .collect();
    let any_pct = specs
        .iter()
        .any(|s| matches!(s, AcceleratorSpec::GpuPercentage(..)));
    let pcts = any_pct.then(|| {
        specs
            .iter()
            .map(|s| match s {
                AcceleratorSpec::GpuPercentage(_, p) => *p,
                _ => 100,
            })
            .collect()
    });
    (entries, pcts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_indices_parse() {
        assert_eq!(parse_entry("0").unwrap(), AcceleratorSpec::Gpu(0));
        assert_eq!(parse_entry(" 3 ").unwrap(), AcceleratorSpec::Gpu(3));
    }

    #[test]
    fn mig_uuids_parse() {
        let s = parse_entry("MIG-GPU0-2-3g.40gb").unwrap();
        assert_eq!(s, AcceleratorSpec::Mig("MIG-GPU0-2-3g.40gb".into()));
    }

    #[test]
    fn garbage_rejected() {
        assert!(matches!(
            parse_entry("gpu0"),
            Err(AccelParseError::BadEntry(_))
        ));
        assert!(matches!(
            parse_entry("-1"),
            Err(AccelParseError::BadEntry(_))
        ));
        assert!(matches!(parse_entry(""), Err(AccelParseError::BadEntry(_))));
    }

    #[test]
    fn listing2_shape() {
        // available_accelerators=['1','2','4'], gpu_percentage=[50,25,30].
        let specs = parse_accelerators(&["1", "2", "4"], Some(&[50, 25, 30])).unwrap();
        assert_eq!(
            specs,
            vec![
                AcceleratorSpec::GpuPercentage(1, 50),
                AcceleratorSpec::GpuPercentage(2, 25),
                AcceleratorSpec::GpuPercentage(4, 30),
            ]
        );
    }

    #[test]
    fn duplicated_gpu_multiplexes() {
        // Listing 2's "list the GPU twice" idiom.
        let specs = parse_accelerators(&["0", "0"], Some(&[50, 50])).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0], AcceleratorSpec::GpuPercentage(0, 50));
        assert_eq!(specs[1], AcceleratorSpec::GpuPercentage(0, 50));
    }

    #[test]
    fn length_mismatch_rejected() {
        let err = parse_accelerators(&["0", "1"], Some(&[50])).unwrap_err();
        assert!(matches!(
            err,
            AccelParseError::PercentageLengthMismatch {
                accelerators: 2,
                percentages: 1
            }
        ));
    }

    #[test]
    fn bad_percentage_rejected() {
        assert!(matches!(
            parse_accelerators(&["0"], Some(&[0])),
            Err(AccelParseError::BadPercentage(0))
        ));
        assert!(matches!(
            parse_accelerators(&["0"], Some(&[101])),
            Err(AccelParseError::BadPercentage(101))
        ));
    }

    #[test]
    fn percentage_on_mig_rejected() {
        let err = parse_accelerators(&["MIG-GPU0-0-1g.10gb"], Some(&[50])).unwrap_err();
        assert!(matches!(err, AccelParseError::PercentageOnMig(_)));
    }

    #[test]
    fn oversubscription_guard() {
        // 4 × 50 = 200 is allowed; 210 is not.
        assert!(parse_accelerators(&["0", "0", "0", "0"], Some(&[50, 50, 50, 50])).is_ok());
        let err = parse_accelerators(&["0", "0", "0"], Some(&[70, 70, 70])).unwrap_err();
        assert!(matches!(
            err,
            AccelParseError::Oversubscribed { gpu: 0, total: 210 }
        ));
    }

    #[test]
    fn format_roundtrips_percentage_lists() {
        let specs = parse_accelerators(&["1", "2", "4"], Some(&[50, 25, 30])).unwrap();
        let (entries, pcts) = format_accelerators(&specs);
        assert_eq!(entries, vec!["1", "2", "4"]);
        assert_eq!(pcts, Some(vec![50, 25, 30]));
        let refs: Vec<&str> = entries.iter().map(|s| s.as_str()).collect();
        let reparsed = parse_accelerators(&refs, pcts.as_deref()).unwrap();
        assert_eq!(reparsed, specs);
    }

    #[test]
    fn format_plain_list_omits_percentages() {
        let specs = parse_accelerators(&["0", "MIG-GPU1-0-2g.20gb"], None).unwrap();
        let (entries, pcts) = format_accelerators(&specs);
        assert_eq!(entries[1], "MIG-GPU1-0-2g.20gb");
        assert_eq!(pcts, None);
    }

    #[test]
    fn mixed_mig_and_plain_without_percentages() {
        let specs = parse_accelerators(&["0", "MIG-GPU1-0-2g.20gb"], None).unwrap();
        assert_eq!(specs[0], AcceleratorSpec::Gpu(0));
        assert!(matches!(specs[1], AcceleratorSpec::Mig(_)));
    }
}
