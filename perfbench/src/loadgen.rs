//! Load generation that does not flatter the daemon: open-loop requests are
//! timed from when they were *due*, not from when the generator got round
//! to sending them, so a stall is charged to every request queued behind
//! it; generator lateness is reported on its own; anything but a
//! prediction counts as a failure; and the cores are kept awake while the
//! daemon is timed, so the figures measure the daemon rather than the host.

use crate::stats::{charged_latency_ms, Status, Tally};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Keeps `cores` cores busy, while it lives, with threads that do nothing
/// but yield.
///
/// On a virtual machine an idle core halts, and waking it again goes
/// through the host's scheduler. When the host is busy that takes long
/// enough to dominate a few-millisecond request, which crosses several
/// thread wake-ups between generator and daemon: the latency then follows
/// the host's load (steal time and p50 rise together) instead of the
/// daemon's work. A thread that only yields keeps its core out of the halt
/// state and hands it at once to any thread that wakes there.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one yielding thread per core.
    pub fn new(cores: usize) -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Time the host ran something else while this machine's cores wanted to
/// run, in ticks of 10 ms summed over the cores, from the `steal` column of
/// `/proc/stat`; `None` where that is not available.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    cpu.split_whitespace().nth(7)?.parse().ok()
}

/// Time source of a phase, measured from the phase start. Tests inject a
/// fake one to make stalls deterministic.
pub trait Clock: Sync {
    /// Time since the phase started.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= at` (returns at once when already past).
    fn sleep_until(&self, at: Duration);
}

/// The real clock.
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A clock whose zero is now.
    pub fn start() -> WallClock {
        WallClock {
            start: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.start.elapsed()
    }

    fn sleep_until(&self, at: Duration) {
        if let Some(wait) = at.checked_sub(self.now()) {
            std::thread::sleep(wait);
        }
    }
}

/// SplitMix64: a tiny seeded generator, so every input is a pure function
/// of the workload seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Due times of `n` Poisson arrivals at `rate` per second.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, n: usize) -> Vec<Duration> {
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            at += -rng.unit().ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// What the client saw of one phase, per request in send order.
#[derive(Clone, Debug, Default)]
pub struct PhaseRecord {
    /// When each request was due.
    pub due: Vec<Duration>,
    /// When it was actually written.
    pub sent: Vec<Duration>,
    /// When its answer arrived, if it did.
    pub answered: Vec<Option<Duration>>,
    /// How it ended.
    pub status: Vec<Status>,
}

impl PhaseRecord {
    /// Latency of every request from its due time, in ms; failures are
    /// charged [`crate::stats::MISS_MS`].
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.answered)
            .zip(&self.status)
            .map(|((due, answered), status)| {
                let ms = answered.map(|at| at.saturating_sub(*due).as_secs_f64() * 1e3);
                charged_latency_ms(*status, ms)
            })
            .collect()
    }

    /// How late the generator sent each request, in ms.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.sent)
            .map(|(due, sent)| sent.saturating_sub(*due).as_secs_f64() * 1e3)
            .collect()
    }

    /// Requests sent, succeeded and failed.
    pub fn tally(&self) -> Tally {
        Tally::of(self.status.iter().copied())
    }
}

/// Answers collected by a receiver: arrival time and status per request.
pub struct Answers {
    slots: Mutex<Vec<Option<(Duration, Status)>>>,
}

impl Answers {
    /// Room for `n` answers.
    pub fn new(n: usize) -> Answers {
        Answers {
            slots: Mutex::new(vec![None; n]),
        }
    }

    /// Records the answer to request `index` at time `at`; returns `false`
    /// for an unknown or duplicate index.
    pub fn record(&self, index: usize, at: Duration, status: Status) -> bool {
        let mut slots = self.slots.lock().expect("answer slots poisoned");
        match slots.get_mut(index) {
            Some(slot @ None) => {
                *slot = Some((at, status));
                true
            }
            _ => false,
        }
    }
}

/// Open loop: sends request `i` through `send` at `schedule[i]` whatever
/// happened to earlier requests, and returns when each was actually sent.
pub fn pace<C: Clock>(
    clock: &C,
    schedule: &[Duration],
    mut send: impl FnMut(usize) -> std::io::Result<()>,
) -> std::io::Result<Vec<Duration>> {
    let mut sent = Vec::with_capacity(schedule.len());
    for (i, &due) in schedule.iter().enumerate() {
        clock.sleep_until(due);
        sent.push(clock.now());
        send(i)?;
    }
    Ok(sent)
}

/// Joins schedule, send times and the answers a receiver filled in into a
/// [`PhaseRecord`]; a request without an answer is [`Status::Unanswered`].
pub fn assemble(schedule: &[Duration], sent: Vec<Duration>, answers: Answers) -> PhaseRecord {
    let slots = answers.slots.into_inner().expect("answer slots poisoned");
    let (answered, status) = slots
        .into_iter()
        .map(|slot| match slot {
            Some((at, status)) => (Some(at), status),
            None => (None, Status::Unanswered),
        })
        .unzip();
    PhaseRecord {
        due: schedule.to_vec(),
        sent,
        answered,
        status,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MISS_MS;

    /// A clock that only moves when told to.
    struct FakeClock(Mutex<Duration>);

    impl FakeClock {
        fn advance(&self, by: Duration) {
            *self.0.lock().unwrap() += by;
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            *self.0.lock().unwrap()
        }
        fn sleep_until(&self, at: Duration) {
            let mut now = self.0.lock().unwrap();
            *now = (*now).max(at);
        }
    }

    #[test]
    fn latency_is_timed_from_the_due_time_not_the_send_time() {
        let ms = Duration::from_millis;
        let clock = FakeClock(Mutex::new(Duration::ZERO));
        let schedule = [ms(0), ms(10), ms(20), ms(30)];
        let answers = Answers::new(schedule.len());
        // Request 1's write stalls for 25 ms; every request is answered
        // 1 ms after it is written, except request 3, which is refused.
        let sent = pace(&clock, &schedule, |i| {
            if i == 1 {
                clock.advance(ms(25));
            }
            let status = if i == 3 {
                Status::Rejected
            } else {
                Status::Answered
            };
            assert!(answers.record(i, clock.now() + ms(1), status));
            Ok(())
        })
        .unwrap();
        let record = assemble(&schedule, sent, answers);

        assert_eq!(record.sent, vec![ms(0), ms(10), ms(35), ms(35)]);
        // Request 2 was due at 20 ms but waited behind the stall: its
        // latency is 16 ms from due, although it took 1 ms from send.
        assert_eq!(record.latencies_ms(), vec![1.0, 26.0, 16.0, MISS_MS]);
        assert_eq!(record.lateness_ms(), vec![0.0, 0.0, 15.0, 5.0]);
        assert_eq!(
            record.tally(),
            Tally {
                sent: 4,
                succeeded: 3,
                failed: 1
            }
        );
    }

    #[test]
    fn unanswered_requests_fail_and_duplicates_are_refused() {
        let answers = Answers::new(2);
        assert!(answers.record(0, Duration::from_millis(3), Status::Answered));
        assert!(!answers.record(0, Duration::from_millis(4), Status::Answered));
        assert!(!answers.record(5, Duration::from_millis(4), Status::Answered));
        let schedule = [Duration::ZERO, Duration::ZERO];
        let record = assemble(&schedule, schedule.to_vec(), answers);
        assert_eq!(record.status, vec![Status::Answered, Status::Unanswered]);
        assert_eq!(record.latencies_ms(), vec![3.0, MISS_MS]);
        assert_eq!(record.tally().failed, 1);
    }

    #[test]
    fn keep_awake_stops_its_threads_when_dropped() {
        let awake = KeepAwake::new(2);
        assert_eq!(awake.threads.len(), 2);
        let stop = Arc::clone(&awake.stop);
        drop(awake);
        assert!(stop.load(Ordering::Relaxed));
        assert_eq!(
            Arc::strong_count(&stop),
            1,
            "a yielding thread outlived the guard"
        );
    }

    #[test]
    fn schedules_are_a_function_of_the_seed() {
        let a = poisson_schedule(&mut Rng::new(7, 1), 100.0, 1000);
        let b = poisson_schedule(&mut Rng::new(7, 1), 100.0, 1000);
        let c = poisson_schedule(&mut Rng::new(8, 1), 100.0, 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 1000 arrivals at 100/s span about ten seconds.
        let span = a.last().unwrap().as_secs_f64();
        assert!((8.0..12.0).contains(&span), "span {span}");
    }
}
