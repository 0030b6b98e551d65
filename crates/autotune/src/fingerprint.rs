//! Machine fingerprints for the persistent tuning cache.
//!
//! A tuned configuration is only valid for the machine it was tuned on:
//! the host's thread count bounds the search space, the dispatched SIMD
//! ISA changes the in-core rate the native probes measure, and the
//! modeled [`MachineSpec`] drives the cache-window pruning and the
//! model's scores, and the scoring model itself decides which
//! survivor wins. The fingerprint folds all four into one stable
//! string, so a cache file copied between hosts (or a host whose
//! `MWD_SIMD` override changes the active ISA, or a file written before
//! the model last changed) misses cleanly instead of serving stale
//! winners.

use perf_models::MachineSpec;

/// Revision of the scoring model. Bump it whenever `resolve` can pick a
/// different winner for an unchanged key and `MachineSpec` (revision 2:
/// tile concurrency and group efficiency joined the traffic term;
/// revision 3: the cache-simulator re-score of the top ranks is gone,
/// the model's rank 1 is the answer).
pub const MODEL_REVISION: u32 = 3;

/// A deterministic slug for a model machine: name plus the parameters
/// the tuner actually consumes (cores, usable L3, bandwidth, in-core
/// rate, the three efficiency constants in hundredths), so editing a
/// `MachineSpec` invalidates its cache entries.
pub fn machine_slug(m: &MachineSpec) -> String {
    let name: String = m
        .name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    // Collapse runs of `-` so punctuation-heavy names stay readable.
    let mut compact = String::with_capacity(name.len());
    for c in name.chars() {
        if c != '-' || !compact.ends_with('-') {
            compact.push(c);
        }
    }
    format!(
        "{}-{}c-l3.{}k-bw.{:.0}-lups.{:.0}-eff.{:.0}.{:.0}.{:.0}",
        compact.trim_matches('-'),
        m.cores,
        m.l3_bytes / 1024,
        m.mem_bw / 1e6,
        m.core_lups / 1e3,
        m.item_overhead_lups * 100.0,
        m.sync_overhead_lups * 100.0,
        m.share_cost * 100.0,
    )
}

/// The fingerprint of *this* host running under the model `machine`:
/// `"<host threads>t-<active ISA>-m<model revision>-<machine slug>"`.
pub fn host_fingerprint(machine: &MachineSpec) -> String {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{threads}t-{}-m{MODEL_REVISION}-{}",
        em_kernels::active_isa().name(),
        machine_slug(machine)
    )
}

/// Whether `fingerprint` was written under the current
/// [`MODEL_REVISION`]. Entries of any other revision can never hit
/// again, on this host or another.
pub fn is_current_revision(fingerprint: &str) -> bool {
    fingerprint.split('-').nth(2) == Some(&format!("m{MODEL_REVISION}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const HSW: MachineSpec = MachineSpec::HASWELL_E5_2699_V3;

    #[test]
    fn slug_is_stable_and_filesystem_safe() {
        let slug = machine_slug(&HSW);
        assert_eq!(
            slug,
            "intel-xeon-e5-2699-v3-haswell-ep-18c-18c-l3.46080k-bw.50000-lups.9600-eff.400.800.15"
        );
        assert!(slug
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.'));
    }

    #[test]
    fn slug_tracks_model_parameters() {
        let mut edited = HSW;
        edited.mem_bw = 60.0e9;
        assert_ne!(machine_slug(&HSW), machine_slug(&edited));
    }

    #[test]
    fn host_fingerprint_embeds_threads_isa_and_machine() {
        let fp = host_fingerprint(&HSW);
        assert!(fp.ends_with(&machine_slug(&HSW)), "{fp}");
        let isa = em_kernels::active_isa().name();
        assert!(fp.contains(&format!("t-{isa}-m{MODEL_REVISION}-")), "{fp}");
        assert!(is_current_revision(&fp), "{fp}");
        // The fingerprint format before the model carried a revision.
        let old = format!("2t-{isa}-{}", machine_slug(&HSW));
        assert!(!is_current_revision(&old), "{old}");
        let threads: usize = fp.split('t').next().unwrap().parse().unwrap();
        assert!(threads >= 1);
    }
}
