// Doc coverage: this module has no `//!` docs.

pub fn undocumented() -> u8 {
    0
}
