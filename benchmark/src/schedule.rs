//! The open-loop arrival schedule.
//!
//! Arrivals are independent of completions: frame `k` is due at
//! `(k + j_k) / rate` seconds, `j_k` uniform in `±jitter`, whatever the
//! server is doing. Latency is taken from the due time, so a stall is
//! charged to every frame it delays, not hidden by a late send.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Due times (seconds from the start of the schedule) of `n` frames at
/// `rate` frames/s: a pure function of `(seed, rate, jitter, n)`.
/// `jitter < 0.5` keeps the schedule strictly increasing.
pub fn due_times(seed: u64, rate: f64, jitter: f64, n: usize) -> Vec<f64> {
    assert!(rate > 0.0 && (0.0..0.5).contains(&jitter));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0DE0_5C4E_D01E);
    let gap = 1.0 / rate;
    (0..n)
        .map(|k| {
            let j: f64 = rng.gen_range(-1.0..1.0);
            // Frame 0 is never due before the schedule starts.
            ((k as f64 + j * jitter) * gap).max(0.0)
        })
        .collect()
}

/// Latency of a frame received at `received_s`: from when it was *due*,
/// never from when the generator actually got round to sending it.
pub fn latency_s(due_s: f64, received_s: f64) -> f64 {
    received_s - due_s
}

/// How late the generator itself ran for one frame: from the moment the
/// send could start — its due time, or the previous reply's arrival if
/// that came later (one HTTP/1.1 connection carries one request at a
/// time) — to the moment it did. Time spent waiting on the server is the
/// server's, and is already inside the latency taken from the due time.
pub fn lag_s(due_s: f64, prev_reply_s: f64, sent_s: f64) -> f64 {
    (sent_s - due_s.max(prev_reply_s)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_a_pure_function_of_their_arguments() {
        let a = due_times(11, 9.5, 0.2, 300);
        assert_eq!(a, due_times(11, 9.5, 0.2, 300));
        assert_ne!(a, due_times(12, 9.5, 0.2, 300));
        assert_ne!(a, due_times(11, 9.0, 0.2, 300));
        assert_ne!(a, due_times(11, 9.5, 0.1, 300));
        // A longer schedule extends, never reshuffles, a shorter one.
        assert_eq!(a[..100], due_times(11, 9.5, 0.2, 100)[..]);
    }

    #[test]
    fn schedule_is_increasing_and_holds_the_rate() {
        let rate = 9.5;
        let d = due_times(3, rate, 0.2, 400);
        let gap = 1.0 / rate;
        for w in d.windows(2) {
            let step = w[1] - w[0];
            assert!(step >= 0.6 * gap - 1e-12 && step <= 1.4 * gap + 1e-12);
        }
        for (k, t) in d.iter().enumerate() {
            assert!((t - k as f64 * gap).abs() <= 0.2 * gap + 1e-12);
        }
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_send() {
        // Due at 1.0 s, sent 30 ms late, answered at 1.25 s: the frame
        // waited 250 ms, and the generator is 30 ms to blame.
        let (due, sent, received) = (1.0, 1.03, 1.25);
        assert!((latency_s(due, received) - 0.25).abs() < 1e-12);
        assert!((lag_s(due, 0.0, sent) - 0.03).abs() < 1e-12);
        assert_eq!(lag_s(due, 0.0, 0.99), 0.0);
        // The previous reply only arrived at 1.02 s: 10 ms are the
        // generator's, the other 20 ms were the server's.
        assert!((lag_s(due, 1.02, sent) - 0.01).abs() < 1e-12);
    }
}
