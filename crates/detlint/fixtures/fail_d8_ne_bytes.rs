// Fixture: linted as crates/ckpt/src/bad.rs — byte serialization that
// depends on the writer's architecture: a checkpoint written on a
// little-endian host would fail its checksum (or silently decode garbage)
// on a big-endian one.

pub fn encode_step(step: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(&step.to_ne_bytes());
}

pub fn decode_step(b: [u8; 8]) -> u64 {
    u64::from_ne_bytes(b)
}

#[expect(clippy::disallowed_types, reason = "wrong lint on purpose: this must not silence the transmute")]
pub fn reinterpret(words: &[u64]) -> &[u8] {
    unsafe { std::mem::transmute(words) }
}
