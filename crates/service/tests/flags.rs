//! The command-line parser both front ends share: switches and values,
//! repeated flags, the allow-list refusal, the typed accessors, and
//! seeded random argument vectors that must never panic it.

use em_service::flags::{Flags, COUNT};
use proptest::prelude::*;
use proptest::TestRng;
use std::path::PathBuf;

const ACCEPTS: &[&str] = &[
    "--all",
    "--quiet",
    "--engine=",
    "--threads=",
    "--out=",
    "--family=",
];

fn args(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

fn parse(words: &[&str]) -> Result<Flags, String> {
    Flags::parse("mwd run", ACCEPTS, &args(words))
}

#[test]
fn switches_values_and_operands_are_told_apart() {
    let f = parse(&["a", "--all", "--engine", "mwd", "b", "--out", "dir"]).unwrap();
    assert!(f.switch("--all"));
    assert!(!f.switch("--quiet"));
    assert_eq!(f.string("--engine"), Some("mwd"));
    assert_eq!(f.path("--out"), Some(PathBuf::from("dir")));
    assert_eq!(f.string("--threads"), None);
    assert_eq!(f.operands(), ["a", "b"]);
    assert!(f.no_operands().unwrap_err().contains("`a`"));
}

#[test]
fn a_value_is_taken_verbatim_even_when_it_looks_like_a_flag() {
    let f = parse(&["--engine", "--all"]).unwrap();
    assert_eq!(f.string("--engine"), Some("--all"));
    assert!(!f.switch("--all"));
}

#[test]
fn a_value_flag_at_the_end_needs_its_value() {
    let e = parse(&["x", "--threads"]).unwrap_err();
    assert_eq!(e, "--threads needs a value");
}

#[test]
fn the_last_value_wins_and_all_reads_every_one() {
    let f = parse(&[
        "--threads",
        "2",
        "--family",
        "a,b",
        "--threads",
        "3",
        "--family",
        "c",
    ])
    .unwrap();
    assert_eq!(f.positive("--threads"), Ok(Some(3)));
    assert_eq!(f.all("--family").collect::<Vec<_>>(), ["a,b", "c"]);
}

#[test]
fn a_flag_outside_the_list_is_refused_by_name() {
    for flag in [
        "--workers",
        "--engine=",
        "--engine=mwd",
        "--all=",
        "--",
        "--ALL",
    ] {
        let e = parse(&["x", flag, "1"]).unwrap_err();
        assert_eq!(e, format!("`mwd run` does not take `{flag}`"));
    }
}

#[test]
fn typed_values_name_the_flag_and_what_it_needs() {
    let f = parse(&["--threads", "0", "--engine", "seven"]).unwrap();
    assert_eq!(f.value::<usize>("--threads", COUNT), Ok(Some(0)));
    assert_eq!(
        f.positive("--threads"),
        Err("--threads needs a positive integer".to_string())
    );
    assert_eq!(
        f.value::<u64>("--engine", COUNT),
        Err("--engine needs a non-negative integer".to_string())
    );
    let f = parse(&["--threads", "-1"]).unwrap();
    assert!(f.positive("--threads").is_err());
}

#[test]
#[should_panic(expected = "not in its flag list")]
fn reading_an_undeclared_flag_is_a_caller_bug() {
    parse(&[]).unwrap().switch("--tune");
}

const POOL: &[&str] = &[
    "--all",
    "--quiet",
    "--engine",
    "--threads",
    "--out",
    "--family",
    "--workers",
    "--engine=",
    "--",
    "-h",
    "0",
    "1",
    "18446744073709551616",
    "-3",
    "",
    "mwd",
    "a,b",
    "x.toml",
    "é",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any argument vector drawn from flags, values and junk parses or
    /// is refused with a message; no accessor panics on what parsed.
    #[test]
    fn random_argument_vectors_never_panic(seed in 0u64..u64::MAX, len in 0usize..12) {
        let mut rng = TestRng::seeded(seed);
        let words: Vec<&str> =
            (0..len).map(|_| POOL[rng.next_u64() as usize % POOL.len()]).collect();
        match parse(&words) {
            Ok(f) => {
                prop_assert!(f.operands().iter().all(|a| !a.starts_with("--")));
                for flag in ACCEPTS.iter().map(|f| f.trim_end_matches('=')) {
                    f.switch(flag);
                    f.path(flag);
                    f.all(flag).count();
                    let _ = f.value::<u64>(flag, COUNT);
                    prop_assert!(f.positive(flag) != Ok(Some(0)));
                }
            }
            Err(e) => prop_assert!(
                e.starts_with("`mwd run` does not take") || e.ends_with("needs a value"),
                "{words:?}: {e}"
            ),
        }
    }
}
