//! The durable-LSN watermark: the synchronization point of group commit.
//!
//! Under `CommitDurability::Group` a committer appends its commit record
//! to the log tail, releases the engine lock, and parks here until the
//! watermark — advanced by whoever forces the tail next, usually the
//! per-shard log flusher — passes the commit record's end-LSN. One real
//! force then acks every commit that arrived while the previous force
//! was in flight, which is exactly the amortization the paper's
//! per-commit `C_io` charge is missing.
//!
//! The watermark is monotone: [`DurableWatermark::advance`] only ever
//! moves it forward, so a waiter that observes `durable >= lsn` can ack
//! unconditionally. A failed force publishes an error instead
//! ([`DurableWatermark::fail`]) so waiters surface the I/O failure
//! rather than hanging; durability is checked *before* the error slot,
//! so commits the device already covers still ack.
//!
//! The watermark is also what a replication shipper long-polls, and
//! once [`DurableWatermark::enable_lag_marks`] has run it stamps each
//! advance with its instant, so [`DurableWatermark::ack_lag`] can
//! attribute replication lag (force completion to the standby ack that
//! covers it) with the primary's clock alone.

use mmdb_sync::{ContentionSink, LockRank, RankedCondvar, RankedGuard, RankedMutex};
use mmdb_types::{Lsn, MmdbError, Result};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bound on the lag marks kept for replication-lag attribution.
const MAX_LAG_MARKS: usize = 4096;

#[derive(Debug, Default)]
struct WatermarkState {
    durable: Lsn,
    /// Set when a force fails after commits were appended; cleared by the
    /// next successful advance.
    error: Option<String>,
    /// `(end LSN, instant)` per advance, oldest first — `None` until
    /// replication is enabled on this log, so an engine without a
    /// standby records nothing.
    marks: Option<VecDeque<(Lsn, Instant)>>,
}

/// A monotone durable-LSN shared between the log manager (publisher) and
/// group committers (waiters). See the module docs.
#[derive(Debug)]
pub struct DurableWatermark {
    state: RankedMutex<WatermarkState>,
    cv: RankedCondvar,
}

impl Default for DurableWatermark {
    fn default() -> DurableWatermark {
        DurableWatermark::new(Lsn::ZERO)
    }
}

impl DurableWatermark {
    /// A watermark starting at `durable` (the log's durable LSN at open).
    pub fn new(durable: Lsn) -> DurableWatermark {
        DurableWatermark {
            state: RankedMutex::new(
                "log.watermark",
                LockRank::WATERMARK,
                WatermarkState {
                    durable,
                    error: None,
                    marks: None,
                },
            ),
            cv: RankedCondvar::new(),
        }
    }

    /// Attach a contention sink: contended acquisitions and hold times of
    /// the watermark lock surface as `sync.log.watermark.*` metrics.
    pub fn set_sink(&self, sink: Arc<dyn ContentionSink>) {
        self.state.set_sink(sink);
    }

    #[track_caller]
    fn lock(&self) -> RankedGuard<'_, WatermarkState> {
        self.state.lock()
    }

    /// The current durable LSN.
    pub fn get(&self) -> Lsn {
        self.lock().durable
    }

    /// Publishes durability through `to` and wakes every waiter. Monotone:
    /// a stale publisher can never move the watermark backwards. A
    /// successful force also clears any sticky error — the device is
    /// demonstrably writable again. With lag marks enabled, a move
    /// forward is stamped with its instant.
    pub fn advance(&self, to: Lsn) {
        let mut s = self.lock();
        if to > s.durable {
            s.durable = to;
            if let Some(marks) = &mut s.marks {
                marks.push_back((to, Instant::now()));
                if marks.len() > MAX_LAG_MARKS {
                    marks.pop_front();
                }
            }
        }
        s.error = None;
        drop(s);
        self.cv.notify_all();
    }

    /// Moves the watermark back to `to`: recovery cut a torn tail off the
    /// log, so the bytes past `to` were never a durable log. The one move
    /// backwards, made before the engine takes a commit.
    pub fn cut_back(&self, to: Lsn) {
        let mut s = self.lock();
        s.durable = s.durable.min(to);
    }

    /// Publishes a force failure and wakes every waiter so they can
    /// surface the error instead of waiting out their timeout.
    pub fn fail(&self, msg: String) {
        self.lock().error = Some(msg);
        self.cv.notify_all();
    }

    /// Blocks until the watermark reaches `lsn`, a force failure is
    /// published, or `timeout` elapses. Returns `Ok(true)` once durable,
    /// `Ok(false)` on timeout, and the published error otherwise.
    /// Durability is checked before the error slot: a commit the device
    /// already covers acks even if a later force failed.
    pub fn wait_for(&self, lsn: Lsn, timeout: Duration) -> Result<bool> {
        let deadline = Instant::now() + timeout;
        let mut s = self.lock();
        loop {
            if s.durable >= lsn {
                return Ok(true);
            }
            if let Some(msg) = &s.error {
                return Err(MmdbError::Io(std::io::Error::other(msg.clone())));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(false);
            }
            let (guard, _) = self.cv.wait_timeout(s, deadline - now);
            s = guard;
        }
    }

    /// Starts stamping advances for [`ack_lag`](Self::ack_lag)
    /// (idempotent). Called when replication is enabled on this log;
    /// advances before it record nothing.
    pub fn enable_lag_marks(&self) {
        self.lock().marks.get_or_insert_with(VecDeque::new);
    }

    /// Drains the marks a standby's acknowledged LSN covers, returning
    /// the time since the *oldest* advance the ack newly covers — the
    /// standby's replication lag as the primary sees it.
    pub fn ack_lag(&self, acked: Lsn) -> Option<Duration> {
        let mut s = self.lock();
        let marks = s.marks.as_mut()?;
        let mut oldest = None;
        while let Some(&(end, at)) = marks.front() {
            if end > acked {
                break;
            }
            oldest.get_or_insert(at);
            marks.pop_front();
        }
        oldest.map(|at| at.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn advance_is_monotone_and_wakes_waiters() {
        let w = DurableWatermark::new(Lsn(10));
        assert_eq!(w.get(), Lsn(10));
        w.advance(Lsn(5));
        assert_eq!(w.get(), Lsn(10), "advance never moves backwards");
        w.advance(Lsn(20));
        assert_eq!(w.get(), Lsn(20));
        // already durable: returns immediately regardless of timeout
        assert!(w.wait_for(Lsn(20), Duration::ZERO).unwrap());
        // only a recovery cut moves it back
        w.cut_back(Lsn(15));
        w.cut_back(Lsn(30));
        assert_eq!(w.get(), Lsn(15));
    }

    #[test]
    fn wait_times_out_below_the_watermark() {
        let w = DurableWatermark::new(Lsn::ZERO);
        assert!(!w.wait_for(Lsn(1), Duration::from_millis(10)).unwrap());
    }

    #[test]
    fn fail_wakes_waiters_with_the_error() {
        let w = Arc::new(DurableWatermark::new(Lsn::ZERO));
        let w2 = Arc::clone(&w);
        let waiter = std::thread::spawn(move || w2.wait_for(Lsn(100), Duration::from_secs(30)));
        // let the waiter park, then publish a failure
        std::thread::sleep(Duration::from_millis(20));
        w.fail("injected device failure".into());
        let err = waiter.join().expect("waiter panicked").unwrap_err();
        assert!(err.to_string().contains("injected device failure"));
        // a later successful force clears the error
        w.advance(Lsn(100));
        assert!(w.wait_for(Lsn(100), Duration::ZERO).unwrap());
    }

    #[test]
    fn durable_beats_error_for_covered_commits() {
        let w = DurableWatermark::new(Lsn(50));
        w.fail("later force failed".into());
        // a commit at or below the watermark still acks
        assert!(w.wait_for(Lsn(50), Duration::ZERO).unwrap());
        // one past it surfaces the failure
        assert!(w.wait_for(Lsn(51), Duration::from_millis(5)).is_err());
    }

    #[test]
    fn concurrent_waiters_release_on_advance() {
        let w = Arc::new(DurableWatermark::new(Lsn::ZERO));
        let waiters: Vec<_> = (1..=4u64)
            .map(|i| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || w.wait_for(Lsn(i * 10), Duration::from_secs(30)))
            })
            .collect();
        w.advance(Lsn(40));
        for h in waiters {
            assert!(h.join().expect("waiter panicked").unwrap());
        }
    }

    #[test]
    fn ack_lag_drains_covered_marks() {
        let w = DurableWatermark::new(Lsn::ZERO);
        w.advance(Lsn(1));
        w.enable_lag_marks();
        assert!(
            w.ack_lag(Lsn(1)).is_none(),
            "advances before enabling record nothing"
        );
        w.advance(Lsn(2));
        w.advance(Lsn(2));
        w.advance(Lsn(4));
        assert!(w.ack_lag(Lsn(1)).is_none(), "no mark fully covered yet");
        let lag = w.ack_lag(Lsn(4)).expect("both marks covered");
        assert!(lag < Duration::from_secs(5));
        assert!(w.ack_lag(Lsn(4)).is_none(), "marks drain once");
    }
}
