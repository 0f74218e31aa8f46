//! The Internet checksum (RFC 1071) and incremental update (RFC 1624).
//!
//! The in-band functions stratum is "a highly performance-critical area
//! in which machine instructions must be counted with care" (paper §3);
//! the incremental update lets the TTL-decrement component avoid
//! recomputing the full header checksum per packet.

/// Computes the one's-complement Internet checksum over `data`.
///
/// # Examples
///
/// ```
/// use netkit_packet::checksum::internet_checksum;
/// // A buffer whose checksum field is zero sums to the checksum value.
/// let sum = internet_checksum(&[0x45, 0x00, 0x00, 0x14]);
/// assert_ne!(sum, 0);
/// ```
#[inline]
pub fn internet_checksum(data: &[u8]) -> u16 {
    !fold(sum_words(data))
}

/// Sums 16-bit big-endian words without folding (for composing sums over
/// multiple regions, e.g. pseudo-headers).
#[inline]
pub fn sum_words(data: &[u8]) -> u32 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    sum
}

/// Folds a 32-bit running sum into 16 bits.
#[inline]
pub fn fold(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// Verifies a buffer that *includes* its checksum field; valid data sums
/// to `0xffff` before complementing.
#[inline]
pub fn verify(data: &[u8]) -> bool {
    fold(sum_words(data)) == 0xffff
}

/// RFC 1624 incremental update: given the old checksum (as stored in the
/// header), the old 16-bit field value, and the new value, returns the
/// new checksum. Used for TTL decrement and DSCP rewrite.
///
/// # Examples
///
/// ```
/// use netkit_packet::checksum::{incremental_update, internet_checksum};
/// let mut header = [0x45u8, 0x00, 0x00, 0x54, 0x00, 0x00, 0x40, 0x00,
///                   0x40, 0x01, 0x00, 0x00, 10, 0, 0, 1, 10, 0, 0, 2];
/// let full = internet_checksum(&header);
/// header[10..12].copy_from_slice(&full.to_be_bytes());
/// // Decrement TTL (byte 8): word at offset 8 changes 0x4001 -> 0x3f01.
/// let updated = incremental_update(full, 0x4001, 0x3f01);
/// header[8] = 0x3f;
/// header[10..12].copy_from_slice(&[0, 0]);
/// assert_eq!(internet_checksum(&header), updated);
/// ```
#[inline]
pub fn incremental_update(old_checksum: u16, old_word: u16, new_word: u16) -> u16 {
    // HC' = ~(~HC + ~m + m')   (RFC 1624 eqn. 3)
    let mut sum = (!old_checksum) as u32;
    sum += (!old_word) as u32;
    sum += new_word as u32;
    !fold(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The RFC 1071 worked example.
    #[test]
    fn rfc1071_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(fold(sum_words(&data)), 0xddf2);
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(sum_words(&[0xab]), 0xab00);
        assert_eq!(sum_words(&[0x12, 0x34, 0x56]), 0x1234 + 0x5600);
    }

    #[test]
    fn verify_accepts_valid_and_rejects_corrupt() {
        let mut data = vec![0x45u8, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11];
        data.extend_from_slice(&[0, 0]); // checksum placeholder
        data.extend_from_slice(&[192, 168, 0, 1, 192, 168, 0, 2]);
        let ck = internet_checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 0xff;
        assert!(!verify(&data));
    }

    #[test]
    fn incremental_matches_full_recompute_for_ttl_sweep() {
        // For every TTL value, check RFC1624 equals full recomputation.
        for ttl in 1..=255u8 {
            let mut hdr = [
                0x45u8, 0x00, 0x00, 0x54, 0xbe, 0xef, 0x40, 0x00, ttl, 0x06, 0x00, 0x00, 10, 1, 2,
                3, 10, 4, 5, 6,
            ];
            let full = internet_checksum(&hdr);
            hdr[10..12].copy_from_slice(&full.to_be_bytes());
            let old_word = u16::from_be_bytes([hdr[8], hdr[9]]);
            let new_ttl = ttl - 1;
            let new_word = u16::from_be_bytes([new_ttl, hdr[9]]);
            let inc = incremental_update(full, old_word, new_word);
            hdr[8] = new_ttl;
            hdr[10] = 0;
            hdr[11] = 0;
            let recomputed = internet_checksum(&hdr);
            assert_eq!(inc, recomputed, "ttl {ttl}");
        }
    }
}
