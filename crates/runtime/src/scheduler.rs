//! Multi-stream admission order: interleaving frames from N streams.
//!
//! The scheduler is deliberately separated from the threaded runtime —
//! it is a plain sequential iterator over the stream set, so its order
//! is unit-testable without touching threads (the microkernel
//! separation: policy here, mechanism in the session core).

use crate::stream::{StreamSpec, TimedFrame};

struct Entry {
    spec: StreamSpec,
    next_index: usize,
    exhausted: bool,
}

/// Pulls frames from many streams round-robin: live streams are visited
/// in a fixed cycle, one frame per turn.
pub struct Scheduler {
    entries: Vec<Entry>,
    cursor: usize,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("streams", &self.entries.len())
            .finish()
    }
}

impl Scheduler {
    /// Builds a scheduler over `streams`.
    pub fn new(streams: Vec<StreamSpec>) -> Scheduler {
        let entries = streams
            .into_iter()
            .map(|spec| Entry {
                spec,
                next_index: 0,
                exhausted: false,
            })
            .collect();
        Scheduler { entries, cursor: 0 }
    }

    /// The next admitted frame, or `None` when every stream is done.
    pub fn next_frame(&mut self) -> Option<TimedFrame> {
        let n = self.entries.len();
        // One full cycle visits every stream exactly once; each visit
        // either yields a frame or marks the stream exhausted, so a
        // frameless cycle means every stream is done.
        for _ in 0..n {
            let id = self.cursor % n;
            self.cursor = (self.cursor + 1) % n;
            if self.entries[id].exhausted {
                continue;
            }
            if let Some(frame) = self.pull(id) {
                return Some(frame);
            }
        }
        None
    }

    fn pull(&mut self, id: usize) -> Option<TimedFrame> {
        let entry = &mut self.entries[id];
        match entry.spec.source.next_frame() {
            Some((sensor_ts_s, cloud)) => {
                let frame = TimedFrame {
                    stream_id: id,
                    frame_index: entry.next_index,
                    sensor_ts_s,
                    cloud,
                };
                entry.next_index += 1;
                Some(frame)
            }
            None => {
                entry.exhausted = true;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::SyntheticSource;

    fn streams(counts: &[usize]) -> Vec<StreamSpec> {
        counts
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                StreamSpec::new(format!("s{i}"), SyntheticSource::new(8, 10.0, n, i as u64))
            })
            .collect()
    }

    #[test]
    fn round_robin_interleaves_evenly() {
        let mut sched = Scheduler::new(streams(&[3, 3, 3]));
        let order: Vec<usize> = std::iter::from_fn(|| sched.next_frame())
            .map(|f| f.stream_id)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_drains_unequal_streams() {
        let mut sched = Scheduler::new(streams(&[1, 4]));
        let order: Vec<usize> = std::iter::from_fn(|| sched.next_frame())
            .map(|f| f.stream_id)
            .collect();
        assert_eq!(order.iter().filter(|&&s| s == 0).count(), 1);
        assert_eq!(order.iter().filter(|&&s| s == 1).count(), 4);
    }

    #[test]
    fn frame_indices_are_sequential_per_stream() {
        let mut sched = Scheduler::new(streams(&[5, 5]));
        let mut next = [0usize; 2];
        while let Some(frame) = sched.next_frame() {
            assert_eq!(frame.frame_index, next[frame.stream_id]);
            next[frame.stream_id] += 1;
        }
        assert_eq!(next, [5, 5]);
    }
}
