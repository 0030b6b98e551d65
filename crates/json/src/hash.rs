//! The workspace's canonical content hash.
//!
//! FNV-1a over 128 bits, hand-rolled (no crates.io here) — not
//! cryptographic, but 128 bits of a well-mixed hash make accidental
//! collisions between scenario specs a non-concern, and the inputs are
//! trusted (they come from this process's own canonical serializers).
//!
//! One implementation serves every consumer that needs stable
//! content-addressing — the job service's result-store keys, the batch
//! runner's artifact filenames, and the scenario generator's dedupe
//! checks — so a spec hashes to the same key no matter which layer
//! computed it.
//!
//! Parts are fed with a separator byte after each, so the hash of
//! `["ab", "c"]` differs from `["a", "bc"]` — the key must depend on
//! the *structure* (spec, engine, fingerprint), not just the
//! concatenated text.

const FNV_OFFSET_128: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME_128: u128 = 0x0000000001000000000000000000013b;

/// A part separator that cannot occur in UTF-8 text content (0x1e,
/// ASCII "record separator", is legal UTF-8 but never appears in the
/// TOML/compact-config/fingerprint strings we hash — they are printable).
const SEP: u8 = 0x1e;

/// Hash an ordered list of string parts into 32 lowercase hex digits.
pub fn content_hash(parts: &[&str]) -> String {
    let mut h = FNV_OFFSET_128;
    for part in parts {
        for &b in part.as_bytes() {
            h ^= b as u128;
            h = h.wrapping_mul(FNV_PRIME_128);
        }
        h ^= SEP as u128;
        h = h.wrapping_mul(FNV_PRIME_128);
    }
    format!("{h:032x}")
}

/// Hash raw bytes (no part structure, no separator) into 32 lowercase
/// hex digits. Used where the input is not guaranteed to be UTF-8 —
/// e.g. the result store's on-disk integrity footers, which must verify
/// whatever bytes actually landed on disk, corrupt or not.
pub fn content_hash_bytes(bytes: &[u8]) -> String {
    let mut h = FNV_OFFSET_128;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV_PRIME_128);
    }
    format!("{h:032x}")
}

/// Whether a string is a well-formed content key (32 hex digits).
pub fn is_key(s: &str) -> bool {
    s.len() == 32
        && s.bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a 128 of the empty input is the offset basis; one part
        // still mixes the separator in.
        assert_eq!(content_hash(&[]), format!("{FNV_OFFSET_128:032x}"));
        assert_ne!(content_hash(&[""]), content_hash(&[]));
    }

    #[test]
    fn deterministic_and_key_shaped() {
        let a = content_hash(&["spec", "engine", "fp"]);
        let b = content_hash(&["spec", "engine", "fp"]);
        assert_eq!(a, b);
        assert!(is_key(&a), "{a}");
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn small_input_changes_flip_the_key() {
        // The job service's key shape: (spec TOML, engine, fingerprint).
        let base = content_hash(&["name = \"a\"", "mwd(dw=4)", "1t-avx2"]);
        for other in [
            ["name = \"b\"", "mwd(dw=4)", "1t-avx2"],
            ["name = \"a\"", "mwd(dw=8)", "1t-avx2"],
            ["name = \"a\"", "mwd(dw=4)", "1t-scalar"],
        ] {
            assert_ne!(base, content_hash(&other));
        }
    }

    #[test]
    fn part_boundaries_matter() {
        assert_ne!(content_hash(&["ab", "c"]), content_hash(&["a", "bc"]));
        assert_ne!(content_hash(&["abc"]), content_hash(&["ab", "c"]));
        assert_ne!(content_hash(&["x"]), content_hash(&["x", ""]));
    }

    #[test]
    fn bytes_hash_matches_single_part_semantics_minus_separator() {
        // Same FNV core, no separator: hashing "abc" as bytes differs
        // from the one-part string hash (which mixes in SEP) but is
        // deterministic and key-shaped.
        let a = content_hash_bytes(b"abc");
        assert_eq!(a, content_hash_bytes(b"abc"));
        assert!(is_key(&a), "{a}");
        assert_ne!(a, content_hash(&["abc"]));
        assert_ne!(content_hash_bytes(b""), content_hash_bytes(b"\0"));
        assert_eq!(content_hash_bytes(b""), format!("{FNV_OFFSET_128:032x}"));
    }

    #[test]
    fn is_key_rejects_non_keys() {
        assert!(!is_key(""));
        assert!(!is_key("xyz"));
        assert!(!is_key(&"a".repeat(31)));
        assert!(!is_key(&"A".repeat(32)), "uppercase is not canonical");
        assert!(is_key(&"0123456789abcdef".repeat(2)));
    }
}
