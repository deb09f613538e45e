//! The config fingerprint: a labeled FNV-1a digest of every configuration
//! input that the bitwise-resume contract depends on.
//!
//! The rule (DESIGN.md §12): a snapshot may only be restored into a
//! simulation whose fingerprint equals the one stored in the header.
//! Anything that could change a single bit of the continued trajectory —
//! the system (atom count, box, run parameters), the node decomposition,
//! the worker-thread count — goes into the digest. Fields are mixed with
//! their names and a separator, so reordering or merging two fields can
//! never collide into the same digest by construction accident.

use crate::fnv::Fnv64;

/// Builder for a labeled config digest.
///
/// ```
/// use anton_ckpt::Fingerprint;
/// let fp = Fingerprint::new()
///     .field("n_atoms", 1020)
///     .field("nodes", 8)
///     .finish();
/// assert_ne!(fp, Fingerprint::new().field("n_atoms", 1020).finish());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint {
    h: Fnv64,
}

impl Fingerprint {
    pub fn new() -> Fingerprint {
        Fingerprint { h: Fnv64::new() }
    }

    /// Mix one labeled u64 field (f64 inputs go through `to_bits()` at the
    /// caller, keeping this crate float-free).
    pub fn field(mut self, name: &str, value: u64) -> Fingerprint {
        self.h.update(name.as_bytes());
        self.h.update(&[0xff]);
        self.h.update(&value.to_le_bytes());
        self
    }

    pub fn finish(self) -> u64 {
        self.h.finish()
    }
}

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_order_and_names_matter() {
        let a = Fingerprint::new().field("x", 1).field("y", 2).finish();
        let b = Fingerprint::new().field("y", 2).field("x", 1).finish();
        let c = Fingerprint::new().field("x", 2).field("y", 1).finish();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn value_changes_change_the_digest() {
        let base = Fingerprint::new().field("threads", 1).finish();
        for t in 2u64..32 {
            assert_ne!(Fingerprint::new().field("threads", t).finish(), base);
        }
    }

    #[test]
    fn digest_is_stable() {
        let a = Fingerprint::new().field("n_atoms", 1020).finish();
        let b = Fingerprint::new().field("n_atoms", 1020).finish();
        assert_eq!(a, b);
    }
}
