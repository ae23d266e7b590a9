//! Group-commit write-ahead logging, leader/follower style.
//!
//! Wraps [`mcv_txn::ForcedWal`] behind a mutex and models the force as
//! a device operation with configurable latency. There is no log-writer
//! thread: a committer appends its commit record and calls
//! [`GroupWal::wait_durable`]. The first waiter that finds no force in
//! flight becomes the *leader* — it dwells for the group window,
//! serializes the whole pending tail in one device operation, advances
//! the durable cursor and wakes everyone waiting. Waiters that arrive
//! while a force is in flight are *followers*: they sleep until the
//! cursor covers their record, or until the device frees up with their
//! record still pending, when one of them leads the next batch. Under
//! concurrency `forces < commits`; a lone committer forces once per
//! commit.
//!
//! The durable cursor only advances *after* the device latency has
//! elapsed — a commit is never acked before its log record is durable.

use mcv_txn::{LogRecord, TxnId};
use std::collections::BTreeSet;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[derive(Debug)]
pub(crate) struct GroupWal {
    inner: Mutex<GwInner>,
    /// Wakes waiters when a force completes.
    forced: Condvar,
    force_latency: Duration,
    /// How long a leader dwells before serializing, so committers that
    /// are a few microseconds behind make this batch instead of the
    /// next (the classic group-commit timer). Zero when the force
    /// itself is free: a dwell would then only delay every commit.
    group_window: Duration,
    /// Causal trace sink captured at engine construction; `None` means
    /// every record call below is a no-op branch.
    trace: Option<Arc<mcv_trace::Recorder>>,
    /// This log's identity in trace events: traces with several
    /// concurrent logs (one per shard in `mcv-dist`) keep their
    /// overlapping lsn spaces apart.
    wal_id: u64,
    /// Mark name (`wal.force.<id>`) under which the latest force's
    /// cause is published, so commit acks cite *this* log's force.
    mark: String,
    /// Time origin of [`GwInner::last_force`].
    epoch: Instant,
}

#[derive(Debug, Default)]
struct GwInner {
    log: mcv_txn::ForcedWal,
    /// Records that are durable (serialized *and* past device latency).
    durable: usize,
    /// A leader is dwelling or forcing; later waiters follow.
    forcing: bool,
    /// Start and end of the latest completed device operation, in
    /// nanoseconds since `epoch`, so a waiter can split its wait into
    /// batching dwell vs device time.
    last_force: (u64, u64),
    /// Commit records appended.
    commits: u64,
    /// Device operations performed.
    forces: u64,
}

impl GroupWal {
    pub(crate) fn new(
        force_latency: Duration,
        group_window: Duration,
        trace: Option<Arc<mcv_trace::Recorder>>,
    ) -> Self {
        let wal_id = trace.as_ref().map(|t| t.next_wal_id()).unwrap_or(0);
        GroupWal {
            inner: Mutex::new(GwInner::default()),
            forced: Condvar::new(),
            force_latency,
            group_window: if force_latency.is_zero() { Duration::ZERO } else { group_window },
            trace,
            wal_id,
            mark: format!("wal.force.{wal_id}"),
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since this log's construction.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The mark name carrying this log's latest force cause.
    pub(crate) fn force_mark(&self) -> &str {
        &self.mark
    }

    /// Records a `WalAppend` trace event for `rec` at `lsn`.
    fn trace_append(&self, rec: &LogRecord, lsn: usize) {
        let Some(t) = &self.trace else { return };
        let (txn, what) = match rec {
            LogRecord::Update { txn, .. } => (*txn, "update"),
            LogRecord::Commit { txn } => (*txn, "commit"),
            LogRecord::Abort { txn } => (*txn, "abort"),
            LogRecord::CheckpointDone { .. } => (TxnId(0), "checkpoint"),
        };
        // Cite the thread's ambient cause (e.g. the delivered message a
        // dist node is processing) so cross-thread commit chains stay
        // decomposable; engine-only worker threads carry no context.
        t.record(
            t.lane(),
            0,
            mcv_trace::context(),
            mcv_trace::EventKind::WalAppend {
                txn: txn.0,
                lsn: lsn as u64,
                what: what.to_owned(),
                wal: self.wal_id,
            },
        );
    }

    /// Records a `WalForce` trace event covering `upto` and publishes
    /// it under this log's `wal.force.<id>` mark so commit acks can
    /// cite it (and only it — other shards' logs have their own marks).
    fn trace_force(&self, upto: usize) {
        let Some(t) = &self.trace else { return };
        let c = t.record(
            t.lane(),
            0,
            None,
            mcv_trace::EventKind::WalForce { upto: upto as u64, wal: self.wal_id },
        );
        t.set_mark(&self.mark, c);
    }

    /// Appends a record without forcing (updates, aborts); returns its
    /// log sequence number.
    pub(crate) fn append(&self, rec: LogRecord) -> usize {
        let mut g = self.inner.lock().expect("wal mutex");
        let lsn = g.log.append(rec.clone());
        drop(g);
        self.trace_append(&rec, lsn);
        lsn
    }

    /// Appends `txn`'s commit record *without* waiting for durability
    /// and returns its log sequence number; [`GroupWal::wait_durable`]
    /// on that LSN (or any higher one) completes the commit.
    pub(crate) fn append_commit(&self, txn: TxnId) -> usize {
        let mut g = self.inner.lock().expect("wal mutex");
        let lsn = g.log.append(LogRecord::Commit { txn });
        g.commits += 1;
        drop(g);
        self.trace_append(&LogRecord::Commit { txn }, lsn);
        lsn
    }

    /// Blocks until every record up to `upto` is durable, leading a
    /// group force whenever none is in flight. Returns how the wait
    /// split into `(dwell_ns, force_ns)`: `force_ns` overlapped the
    /// device operation that made `upto` durable, `dwell_ns` is the
    /// rest (leader dwell, queueing behind an earlier force).
    pub(crate) fn wait_durable(&self, upto: usize) -> (u64, u64) {
        let t0 = self.now_ns();
        let mut g = self.inner.lock().expect("wal mutex");
        while g.durable < upto {
            g = if g.forcing { self.forced.wait(g).expect("wal mutex") } else { self.lead(g) };
        }
        let (fs, fe) = g.last_force;
        drop(g);
        let t1 = self.now_ns();
        let total = t1.saturating_sub(t0);
        let force = fe.min(t1).saturating_sub(fs.max(t0)).min(total);
        (total - force, force)
    }

    /// One group force: dwell, serialize the whole pending tail, pay
    /// the device latency with the mutex free (so new records queue for
    /// the next batch), then publish the force and advance the durable
    /// cursor. Entered and left holding the mutex.
    fn lead<'a>(&'a self, mut g: MutexGuard<'a, GwInner>) -> MutexGuard<'a, GwInner> {
        g.forcing = true;
        if !self.group_window.is_zero() {
            drop(g);
            std::thread::sleep(self.group_window);
            g = self.inner.lock().expect("wal mutex");
        }
        g.log.force();
        g.forces += 1;
        let target = g.log.forced_records();
        drop(g);
        let start = self.now_ns();
        if !self.force_latency.is_zero() {
            std::thread::sleep(self.force_latency);
        }
        let end = self.now_ns();
        // Recorded before the durable cursor moves, so the force always
        // precedes the acks it enables.
        self.trace_force(target);
        let mut g = self.inner.lock().expect("wal mutex");
        g.durable = target;
        g.last_force = (start, end);
        g.forcing = false;
        self.forced.notify_all();
        g
    }

    /// The bytes a crash at this instant would leave on disk.
    pub(crate) fn durable_image(&self) -> Vec<u8> {
        self.inner.lock().expect("wal mutex").log.durable_image().to_vec()
    }

    /// Transactions with a commit record appended (volatile view, for
    /// oracle filtering; use [`GroupWal::durable_image`] for the
    /// crash-surviving set).
    pub(crate) fn committed(&self) -> BTreeSet<TxnId> {
        self.inner.lock().expect("wal mutex").log.wal().committed()
    }

    /// The members of `among` with a commit record appended: one walk
    /// of the volatile log that keeps only ids in `among`. Ids outside
    /// `among`'s range are rejected with two comparisons, before the
    /// set lookup.
    pub(crate) fn committed_among(&self, among: &BTreeSet<TxnId>) -> BTreeSet<TxnId> {
        let (Some(lo), Some(hi)) = (among.first(), among.last()) else {
            return BTreeSet::new();
        };
        let g = self.inner.lock().expect("wal mutex");
        g.log
            .wal()
            .records()
            .iter()
            .filter_map(|r| match r {
                LogRecord::Commit { txn } if (lo..=hi).contains(&txn) && among.contains(txn) => {
                    Some(*txn)
                }
                _ => None,
            })
            .collect()
    }

    /// `(commit records, device operations, total records)`.
    pub(crate) fn stats(&self) -> (u64, u64, u64) {
        let g = self.inner.lock().expect("wal mutex");
        (g.commits, g.forces, g.log.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn commit(wal: &GroupWal, t: u64) {
        wal.append(LogRecord::Update { txn: TxnId(t), item: "X".into(), old: 0, new: t as i64 });
        let lsn = wal.append_commit(TxnId(t));
        wal.wait_durable(lsn);
    }

    #[test]
    fn lone_committer_forces_once_per_commit() {
        // The 1 s window is ignored: with a free force, a dwell could
        // only delay each commit.
        let wal = GroupWal::new(Duration::ZERO, Duration::from_secs(1), None);
        let t0 = Instant::now();
        for t in 1..=5 {
            commit(&wal, t);
        }
        assert!(t0.elapsed() < Duration::from_secs(1), "leader dwelled on a free force");
        let (commits, forces, _) = wal.stats();
        assert_eq!(commits, 5);
        assert_eq!(forces, 5);
    }

    #[test]
    fn concurrent_committers_share_forces() {
        let wal = Arc::new(GroupWal::new(Duration::from_millis(2), Duration::ZERO, None));
        let committers: Vec<_> = (1..=8)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || commit(&wal, t))
            })
            .collect();
        for c in committers {
            c.join().expect("committer");
        }
        let (commits, forces, _) = wal.stats();
        assert_eq!(commits, 8);
        assert!(forces >= 1, "at least one device op");
        assert!(forces < commits, "group commit must batch: {forces} forces / {commits} commits");
        // Every committer returned only after its records became durable.
        let crash = mcv_txn::Wal::from_bytes_lossy(&wal.durable_image());
        assert_eq!(crash.len(), 16, "every update and commit record is durable");
        assert_eq!(crash.committed().len(), 8);
    }

    #[test]
    fn committed_among_keeps_only_committed_members() {
        let wal = GroupWal::new(Duration::ZERO, Duration::ZERO, None);
        for t in [1, 3, 5, 9] {
            commit(&wal, t);
        }
        wal.append(LogRecord::Abort { txn: TxnId(4) });
        let among: BTreeSet<TxnId> = [3, 4, 6, 9].into_iter().map(TxnId).collect();
        let expected: BTreeSet<TxnId> = [3, 9].into_iter().map(TxnId).collect();
        assert_eq!(wal.committed_among(&among), expected);
        assert!(wal.committed_among(&BTreeSet::new()).is_empty());
    }
}
