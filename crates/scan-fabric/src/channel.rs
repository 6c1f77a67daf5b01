//! In-process byte channels carrying the framed protocol.
//!
//! A [`Pipe`] is a mutex-guarded byte buffer with a condvar: the
//! writer appends *encoded frames* (see [`crate::protocol`]), the
//! reader drains bytes through a [`FrameDecoder`]. Messages cross the
//! channel as bytes even between threads, so the worker transport can
//! become a real OS pipe or socket without touching either endpoint's
//! logic.
//!
//! Dropping the writer closes the pipe — the reader then observes EOF
//! exactly like the far end of a pipe whose process was SIGKILL'd.
//! That is the fabric's worker-death signal, in tests and (in the
//! separate-process future) in production alike.
//!
//! Every worker→coordinator pipe can additionally share a [`WakeSet`]:
//! a single condvar the coordinator parks on, so it can wait for
//! "*any* worker said something" with a bounded timeout (its lease
//! poll tick) without spinning.
//!
//! **Heartbeats mark, results notify.** A worker heartbeats after every
//! journaled event, and nothing the coordinator does with a heartbeat
//! is urgent: it only has to know, when its poll tick ends, that the
//! tick was not quiet. So a [`Msg::Heartbeat`] advances the wake set's
//! stamp — the coordinator's next [`WakeSet::wait`] returns `true`, and
//! lease supervision counts exactly the quiet ticks it always did —
//! without waking the parked coordinator; the heartbeat is read at the
//! next result or poll tick. Every other message, and the writer's
//! drop, wakes it at once.

use crate::protocol::{encode_msg, FrameDecoder, FrameError, Msg};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Shared wake signal for a set of pipes ("any of them has data").
#[derive(Debug, Default)]
pub struct WakeSet {
    stamp: Mutex<u64>,
    cv: Condvar,
}

impl WakeSet {
    pub fn new() -> Arc<WakeSet> {
        Arc::new(WakeSet::default())
    }

    /// Advance the stamp, so the next [`wait`](Self::wait) reports
    /// activity; `wake` also ends a wait that is parked right now.
    fn signal(&self, wake: bool) {
        let mut stamp = self.stamp.lock().unwrap_or_else(PoisonError::into_inner);
        *stamp = stamp.wrapping_add(1);
        if wake {
            self.cv.notify_all();
        }
    }

    /// Wait until any associated pipe wakes the set, or `timeout`
    /// elapses. `last_seen` is the caller's cursor into the signal
    /// stream; returns `true` if anything — heartbeats included — was
    /// signalled since the last call (i.e. the caller should drain its
    /// pipes), `false` on a quiet timeout (a "silent poll" for lease
    /// accounting).
    pub fn wait(&self, last_seen: &mut u64, timeout: Duration) -> bool {
        let stamp = self.stamp.lock().unwrap_or_else(PoisonError::into_inner);
        self.wait_locked(stamp, last_seen, timeout)
    }

    /// [`wait`](Self::wait) from the stamp lock already held: the lock
    /// is released only by parking, which is what lets a test know the
    /// waiter is parked.
    fn wait_locked(
        &self,
        mut stamp: MutexGuard<'_, u64>,
        last_seen: &mut u64,
        timeout: Duration,
    ) -> bool {
        if *stamp != *last_seen {
            *last_seen = *stamp;
            return true;
        }
        let (guard, _timed_out) = self
            .cv
            .wait_timeout(stamp, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        stamp = guard;
        if *stamp != *last_seen {
            *last_seen = *stamp;
            true
        } else {
            false
        }
    }
}

#[derive(Debug, Default)]
struct PipeState {
    buf: Vec<u8>,
    closed: bool,
}

#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    cv: Condvar,
}

/// Sending half. Dropping it closes the pipe (reader sees EOF).
pub struct PipeWriter {
    pipe: Arc<Pipe>,
    wake: Option<Arc<WakeSet>>,
}

/// Receiving half (single consumer: owns the frame decoder).
pub struct PipeReader {
    pipe: Arc<Pipe>,
    decoder: FrameDecoder,
}

/// What a non-blocking receive found.
#[derive(Debug, PartialEq, Eq)]
pub enum Polled {
    /// A complete message.
    Msg(Msg),
    /// Nothing buffered; the writer is still alive.
    Empty,
    /// Writer dropped and everything buffered has been consumed: EOF.
    Closed,
}

/// Create a connected pipe. `wake` (optional) is additionally
/// signalled on every send (a heartbeat marks it, anything else wakes
/// it) — share one across all worker→coordinator pipes so the
/// coordinator parks on a single condvar.
pub fn pipe(wake: Option<Arc<WakeSet>>) -> (PipeWriter, PipeReader) {
    let p = Arc::new(Pipe::default());
    (
        PipeWriter {
            pipe: Arc::clone(&p),
            wake,
        },
        PipeReader {
            pipe: p,
            decoder: FrameDecoder::new(),
        },
    )
}

impl PipeWriter {
    /// Encode and enqueue one message. Sending into a pipe whose
    /// reader is gone is harmless (the bytes are simply never read).
    pub fn send(&self, msg: &Msg) {
        let frame = encode_msg(msg);
        {
            let mut state = self
                .pipe
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.buf.extend_from_slice(&frame);
        }
        self.pipe.cv.notify_all();
        if let Some(wake) = &self.wake {
            wake.signal(!matches!(msg, Msg::Heartbeat { .. }));
        }
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        let mut state = self
            .pipe
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.closed = true;
        drop(state);
        self.pipe.cv.notify_all();
        if let Some(wake) = &self.wake {
            wake.signal(true);
        }
    }
}

impl PipeReader {
    /// Drain buffered bytes into the decoder and return the next
    /// message, without blocking.
    pub fn try_recv(&mut self) -> Result<Polled, FrameError> {
        loop {
            if let Some(msg) = self.decoder.next()? {
                return Ok(Polled::Msg(msg));
            }
            let mut state = self
                .pipe
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if !state.buf.is_empty() {
                self.decoder.extend(&state.buf);
                state.buf.clear();
                continue;
            }
            return if state.closed {
                Ok(Polled::Closed)
            } else {
                Ok(Polled::Empty)
            };
        }
    }

    /// Block until a message arrives or the writer is gone.
    /// `Ok(None)` is EOF.
    pub fn recv_blocking(&mut self) -> Result<Option<Msg>, FrameError> {
        loop {
            if let Some(msg) = self.decoder.next()? {
                return Ok(Some(msg));
            }
            let mut state = self
                .pipe
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if !state.buf.is_empty() {
                    self.decoder.extend(&state.buf);
                    state.buf.clear();
                    break;
                }
                if state.closed {
                    return Ok(None);
                }
                state = self
                    .pipe
                    .cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FailReason;

    #[test]
    fn messages_cross_the_pipe_in_order() {
        let (tx, mut rx) = pipe(None);
        tx.send(&Msg::Hello {
            worker: 1,
            run_id: 2,
        });
        tx.send(&Msg::Shutdown);
        assert_eq!(
            rx.try_recv().unwrap(),
            Polled::Msg(Msg::Hello {
                worker: 1,
                run_id: 2
            })
        );
        assert_eq!(rx.try_recv().unwrap(), Polled::Msg(Msg::Shutdown));
        assert_eq!(rx.try_recv().unwrap(), Polled::Empty);
    }

    #[test]
    fn dropping_the_writer_is_eof_after_drain() {
        let (tx, mut rx) = pipe(None);
        tx.send(&Msg::ShardFailed {
            worker: 0,
            epoch: 0,
            shard: 1,
            lease: 2,
            reason: FailReason::JournalIo,
        });
        drop(tx);
        assert!(matches!(rx.try_recv().unwrap(), Polled::Msg(_)));
        assert_eq!(rx.try_recv().unwrap(), Polled::Closed);
        assert_eq!(rx.recv_blocking().unwrap(), None);
    }

    #[test]
    fn wakeset_reports_activity_and_quiet_polls() {
        let wake = WakeSet::new();
        let (tx, _rx) = pipe(Some(Arc::clone(&wake)));
        let mut cursor = 0u64;
        // Nothing yet: quiet poll.
        assert!(!wake.wait(&mut cursor, Duration::from_millis(1)));
        tx.send(&Msg::Shutdown);
        assert!(wake.wait(&mut cursor, Duration::from_millis(1)));
        // Cursor caught up: quiet again.
        assert!(!wake.wait(&mut cursor, Duration::from_millis(1)));
    }

    #[test]
    fn heartbeats_mark_the_tick_busy_without_waking_a_parked_waiter() {
        const HOUR: Duration = Duration::from_secs(3600);
        let heartbeat = Msg::Heartbeat {
            worker: 1,
            epoch: 0,
            shard: 2,
            lease: 3,
            events: 4,
        };
        let done = Msg::ShardDone {
            worker: 1,
            epoch: 0,
            shard: 2,
            lease: 3,
            zones: 4,
            queries: 5,
            duration: 6,
        };
        let wake = WakeSet::new();
        let (tx, mut rx) = pipe(Some(Arc::clone(&wake)));

        // A heartbeat advances the stamp: the next wait does not block.
        let mut cursor = 0u64;
        tx.send(&heartbeat);
        assert!(wake.wait(&mut cursor, HOUR));
        assert_eq!(rx.try_recv().unwrap(), Polled::Msg(heartbeat));
        assert_eq!(rx.try_recv().unwrap(), Polled::Empty);

        // A waiter that is parked stays parked through a heartbeat and
        // is woken by the result behind it. It takes the stamp lock
        // before saying so, and gives it up only by parking — so once
        // this thread gets the lock, the waiter is parked.
        let (entering, entered) = std::sync::mpsc::channel();
        let waiter = {
            let wake = Arc::clone(&wake);
            std::thread::spawn(move || {
                let stamp = wake.stamp.lock().unwrap();
                entering.send(()).unwrap();
                let woke = wake.wait_locked(stamp, &mut cursor, HOUR);
                let mut drained = Vec::new();
                while let Polled::Msg(msg) = rx.try_recv().unwrap() {
                    drained.push(msg);
                }
                (woke, drained)
            })
        };
        entered.recv().unwrap();
        drop(wake.stamp.lock().unwrap());
        tx.send(&heartbeat);
        tx.send(&done);
        let (woke, drained) = waiter.join().unwrap();
        assert!(woke);
        assert_eq!(
            drained,
            [heartbeat, done],
            "woken once, by the result, with the heartbeat already queued in front of it"
        );
    }

    #[test]
    fn recv_blocking_wakes_on_cross_thread_send() {
        let (tx, mut rx) = pipe(None);
        let t = std::thread::spawn(move || {
            tx.send(&Msg::Hello {
                worker: 9,
                run_id: 9,
            });
            // tx drops here → EOF after the message.
        });
        assert_eq!(
            rx.recv_blocking().unwrap(),
            Some(Msg::Hello {
                worker: 9,
                run_id: 9
            })
        );
        assert_eq!(rx.recv_blocking().unwrap(), None);
        t.join().unwrap();
    }
}
