//! Byte-size and time helpers used throughout the workspace.
//!
//! The paper's experiment descriptions are written in MB/GB and seconds;
//! these helpers keep the benchmark harness close to the paper's wording
//! (`40 * GIB`, `mib(16)`, …) without sprinkling magic multipliers.

/// One kibibyte (2^10 bytes).
pub const KIB: u64 = 1024;
/// One mebibyte (2^20 bytes).
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte (2^30 bytes).
pub const GIB: u64 = 1024 * MIB;
/// One tebibyte (2^40 bytes).
pub const TIB: u64 = 1024 * GIB;

/// `n` kibibytes.
#[inline]
pub const fn kib(n: u64) -> u64 {
    n * KIB
}

/// `n` mebibytes.
#[inline]
pub const fn mib(n: u64) -> u64 {
    n * MIB
}

/// `n` gibibytes.
#[inline]
pub const fn gib(n: u64) -> u64 {
    n * GIB
}

/// Formats a byte count with a binary unit suffix, e.g. `1.50 GiB`.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [(&str, u64); 4] = [("TiB", TIB), ("GiB", GIB), ("MiB", MIB), ("KiB", KIB)];
    for (suffix, unit) in UNITS {
        if bytes >= unit {
            return format!("{:.2} {suffix}", bytes as f64 / unit as f64);
        }
    }
    format!("{bytes} B")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_powers_of_two() {
        assert_eq!(KIB, 1 << 10);
        assert_eq!(MIB, 1 << 20);
        assert_eq!(GIB, 1 << 30);
        assert_eq!(TIB, 1 << 40);
    }

    #[test]
    fn helpers_multiply() {
        assert_eq!(kib(3), 3 * 1024);
        assert_eq!(mib(2), 2 * 1024 * 1024);
        assert_eq!(gib(40), 40 * (1 << 30));
    }

    #[test]
    fn formats_pick_the_right_unit() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(1024), "1.00 KiB");
        assert_eq!(fmt_bytes(GIB + GIB / 2), "1.50 GiB");
    }
}
