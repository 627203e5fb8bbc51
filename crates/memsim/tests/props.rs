//! Property tests for the memory/cost models.

use proptest::prelude::*;

use hgpcn_memsim::{DeviceProfile, Latency, OnChipMemory, OpCounts};

fn arb_counts() -> impl Strategy<Value = OpCounts> {
    (
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..1_000_000,
    )
        .prop_map(|(r, w, d, c, m)| OpCounts {
            mem_reads: r,
            mem_writes: w,
            bytes_read: r * 12,
            bytes_written: w * 12,
            distance_computations: d,
            comparisons: c,
            macs: m,
            ..OpCounts::default()
        })
}

proptest! {
    /// OpCounts addition is commutative and associative, and scaling
    /// distributes.
    #[test]
    fn counts_algebra(a in arb_counts(), b in arb_counts(), n in 0u64..100) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b).scaled(n), a.scaled(n) + b.scaled(n));
        prop_assert_eq!(a.scaled(1), a);
        prop_assert_eq!(a.scaled(0), OpCounts::default());
    }

    /// Device latency is monotone: more work never takes less time.
    #[test]
    fn latency_is_monotone(a in arb_counts(), extra in arb_counts()) {
        for dev in [
            DeviceProfile::xeon_w2255(),
            DeviceProfile::rtx_4060ti(),
            DeviceProfile::hgpcn_downsampling_unit(),
        ] {
            let base = dev.latency(&a);
            let more = dev.latency(&(a + extra));
            prop_assert!(more >= base, "{}: {} < {}", dev.name, more, base);
        }
    }

    /// Latency arithmetic: sums and scaling behave like numbers.
    #[test]
    fn latency_arithmetic(a_ns in 0.0f64..1e12, b_ns in 0.0f64..1e12, k in 1.0f64..100.0) {
        let a = Latency::from_ns(a_ns);
        let b = Latency::from_ns(b_ns);
        prop_assert!(((a + b).ns() - (a_ns + b_ns)).abs() < 1.0);
        prop_assert!(((a * k).ns() - a_ns * k).abs() < a_ns.max(1.0) * 1e-9);
        prop_assert_eq!(a.max(b), b.max(a));
        if a_ns > 0.0 && b_ns > 0.0 {
            prop_assert!((a.speedup_over(b) * b.speedup_over(a) - 1.0).abs() < 1e-9);
        }
    }

    /// On-chip memory: allocations and frees never corrupt accounting,
    /// and the peak is an upper bound on usage.
    #[test]
    fn onchip_accounting(ops in prop::collection::vec((0u64..1000, prop::bool::ANY), 1..50)) {
        let mut mem = OnChipMemory::new(10_000);
        let mut shadow: u64 = 0;
        for (bits, is_alloc) in ops {
            if is_alloc {
                if mem.allocate(bits).is_ok() {
                    shadow += bits;
                }
            } else {
                mem.free(bits);
                shadow = shadow.saturating_sub(bits);
            }
            prop_assert_eq!(mem.used_bits(), shadow);
            prop_assert!(mem.used_bits() <= mem.capacity_bits());
            prop_assert!(mem.peak_bits() >= mem.used_bits());
        }
    }
}
