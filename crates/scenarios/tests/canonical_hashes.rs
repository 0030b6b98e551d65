//! The canonical spec bytes, pinned. A spec's content hash names its
//! artifacts and keys the job service's result store, so a codec or type
//! change that moves one byte of the canonical TOML silently renames
//! every artifact and orphans every stored result. These literals were
//! computed on the commit before the spec started holding the solver's
//! own types; a change that moves one is a format change, not a refactor.

use em_scenarios::gen::{generate, Family, GenParams};
use em_scenarios::library;

const PINNED: [(&str, &str); 14] = [
    ("solar-cell", "ab7d5250aa75e38287664af1807f661e"),
    ("silver-nanowire", "e205baa7afb2f2cc7f49cb3bbcf07206"),
    ("bragg-mirror", "48cfd184623bb262f9f5f009fb8516aa"),
    ("vacuum-slab", "c2ac28da8cd099a3d520e01bfb4bad6a"),
    ("photonic-grating", "ef9038b6c39becc9ee9996681eed03a8"),
    ("thin-absorber", "16707c977ef26d38f5884492eda20057"),
    ("gen-multilayer-s1", "4c5cee1f573154ecb8076a6a28e6e8f0"),
    ("gen-multilayer-s2", "567e120220968ea4c8c475f254134052"),
    ("gen-rough-interface-s1", "f1f5786ebef615cf259bb56429fedcd7"),
    ("gen-rough-interface-s2", "1486f60ae445076ec5a6850bb7d545be"),
    ("gen-nanoparticle-s1", "eb34a0eb786e83fbafe5c4ce6571b3a7"),
    ("gen-nanoparticle-s2", "74a101eb56ca9ef0c21d80c4c50f3edc"),
    ("gen-nanowire-s1", "116b508d0fa8565a195cd6c82b936c3a"),
    ("gen-nanowire-s2", "18f8787a94b3348bacceed53fa8a263d"),
];

#[test]
fn canonical_toml_hashes_are_pinned() {
    let mut specs = library::builtins();
    for family in Family::ALL {
        for seed in [1, 2] {
            specs.push(generate(family, seed, &GenParams::tiny()).expect("generates"));
        }
    }
    assert_eq!(specs.len(), PINNED.len());
    for (spec, (name, hash)) in specs.iter().zip(PINNED) {
        assert_eq!(spec.name, name);
        assert_eq!(
            spec.content_hash(),
            hash,
            "{name}: canonical TOML moved:\n{}",
            spec.to_toml_string()
        );
    }
}
