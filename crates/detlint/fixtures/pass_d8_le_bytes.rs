// Fixture: linted as crates/ckpt/src/good.rs — the sanctioned payload
// shape: every integer crosses into bytes through an explicit little-
// endian encode, and UTF-8 text (`str::as_bytes`) needs no escape: it has
// no host-endian structure.

pub fn encode_step(step: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(&step.to_le_bytes());
}

pub fn decode_step(b: [u8; 8]) -> u64 {
    u64::from_le_bytes(b)
}

pub fn hash_name(h: &mut u64, name: &str) {
    for &b in name.as_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
}
