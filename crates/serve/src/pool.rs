//! Bounded worker threadpool.
//!
//! Connections are handed to a fixed set of worker threads through a
//! bounded channel (`std::sync::mpsc::sync_channel`, its receiver
//! shared behind a mutex); when the queue is full the caller gets the
//! job back and can shed load (the server answers 503) instead of
//! buffering unboundedly.

use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Work item: a closure executed once on a worker thread.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of named worker threads fed by a bounded queue.
pub struct ThreadPool {
    sender: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    queue_cap: usize,
}

impl ThreadPool {
    /// Spawn `workers` threads sharing a queue of capacity `queue_cap`.
    pub fn new(workers: usize, queue_cap: usize) -> ThreadPool {
        assert!(workers > 0, "need at least one worker");
        // At least one slot: a zero-capacity `sync_channel` would hand a
        // job over only to a worker already waiting for one.
        let (sender, receiver) = sync_channel::<Job>(queue_cap.max(1));
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("chemcost-serve-{i}"))
                    .spawn(move || loop {
                        // The lock is held only while waiting, never while
                        // a job runs. recv() errs only once the sender is
                        // dropped AND the queue is drained, so in-flight
                        // work always completes before shutdown.
                        let job = rx.lock().expect("only recv() runs under the lock").recv();
                        match job {
                            Ok(job) => job(),
                            Err(_) => break,
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        ThreadPool { sender: Some(sender), workers: handles, queue_cap }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Capacity of the bounded job queue.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// Queue a job without blocking. On a full or closed queue the job is
    /// handed back so the caller can reject the request instead.
    pub fn execute(&self, job: Job) -> Result<(), Job> {
        let Some(sender) = &self.sender else {
            return Err(job);
        };
        sender.try_send(job).map_err(|e| match e {
            TrySendError::Full(j) | TrySendError::Disconnected(j) => j,
        })
    }

    /// Stop accepting work, drain the queue, and join every worker.
    pub fn join(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        drop(self.sender.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_all_jobs_before_join_returns() {
        let pool = ThreadPool::new(4, 64);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            loop {
                let job: Job = {
                    let c = Arc::clone(&c);
                    Box::new(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    })
                };
                if pool.execute(job).is_ok() {
                    break;
                }
                std::thread::yield_now();
            }
        }
        pool.join();
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn full_queue_returns_job_to_caller() {
        // One worker blocked on a long job; capacity-1 queue fills after
        // a single extra submission.
        let pool = ThreadPool::new(1, 1);
        let (block_tx, block_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let (started_tx, started_rx) = std::sync::mpsc::sync_channel::<()>(1);
        pool.execute(Box::new(move || {
            let _ = started_tx.send(());
            let _ = block_rx.recv();
        }))
        .ok()
        .expect("first job queued");
        started_rx.recv().expect("worker started");
        // Fill the queue slot, then one more must bounce.
        pool.execute(Box::new(|| {})).ok().expect("queue slot");
        let bounced = pool.execute(Box::new(|| {}));
        assert!(bounced.is_err(), "expected Full to hand the job back");
        block_tx.send(()).unwrap();
        pool.join();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = ThreadPool::new(0, 1);
    }
}
