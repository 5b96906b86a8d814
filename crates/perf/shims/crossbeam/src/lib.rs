//! Offline stand-in for `crossbeam`: only `crossbeam::channel`, as a
//! mutex-and-condvar MPMC queue with crossbeam's disconnect semantics.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        /// Signalled when an item arrives or the last sender leaves.
        not_empty: Condvar,
        /// Signalled when an item leaves or the last receiver leaves.
        not_full: Condvar,
        capacity: Option<usize>,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
            self.queue.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    pub struct Sender<T>(Arc<Shared<T>>);
    pub struct Receiver<T>(Arc<Shared<T>>);

    fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// A zero capacity (rendezvous) is rounded up to one slot.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(capacity.max(1)))
    }

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("sending on a full channel"),
                TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
            }
        }
    }

    impl<T> std::error::Error for TrySendError<T> {}

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on receive operation"),
                RecvTimeoutError::Disconnected => f.write_str("channel is empty and disconnected"),
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    impl<T> Sender<T> {
        /// Blocks while a bounded channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let shared = &*self.0;
            let mut queue = shared.lock();
            loop {
                if shared.receivers.load(Ordering::Acquire) == 0 {
                    return Err(SendError(value));
                }
                if shared.capacity.map_or(true, |cap| queue.len() < cap) {
                    queue.push_back(value);
                    drop(queue);
                    shared.not_empty.notify_one();
                    return Ok(());
                }
                queue = shared
                    .not_full
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let shared = &*self.0;
            let mut queue = shared.lock();
            if shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if shared.capacity.map_or(false, |cap| queue.len() >= cap) {
                return Err(TrySendError::Full(value));
            }
            queue.push_back(value);
            drop(queue);
            shared.not_empty.notify_one();
            Ok(())
        }

        pub fn len(&self) -> usize {
            self.0.lock().len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        fn pop(&self, queue: &mut VecDeque<T>) -> Option<T> {
            let value = queue.pop_front()?;
            if self.0.capacity.is_some() {
                self.0.not_full.notify_one();
            }
            Some(value)
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            let shared = &*self.0;
            let mut queue = shared.lock();
            loop {
                if let Some(value) = self.pop(&mut queue) {
                    return Ok(value);
                }
                if shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                queue = shared
                    .not_empty
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let shared = &*self.0;
            let mut queue = shared.lock();
            match self.pop(&mut queue) {
                Some(value) => Ok(value),
                None if shared.senders.load(Ordering::Acquire) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            match Instant::now().checked_add(timeout) {
                Some(deadline) => self.recv_deadline(deadline),
                None => self.recv().map_err(|_| RecvTimeoutError::Disconnected),
            }
        }

        pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
            let shared = &*self.0;
            let mut queue = shared.lock();
            loop {
                if let Some(value) = self.pop(&mut queue) {
                    return Ok(value);
                }
                if shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                queue = shared
                    .not_empty
                    .wait_timeout(queue, remaining)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }

        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.try_recv().ok())
        }

        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.recv().ok())
        }

        pub fn len(&self) -> usize {
            self.0.lock().len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::AcqRel);
            Sender(self.0.clone())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Take the lock so a receiver between its check and its wait
                // cannot miss the wake-up.
                drop(self.0.lock());
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.0.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                drop(self.0.lock());
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> IntoIter<T> {
            IntoIter(self)
        }
    }

    pub struct IntoIter<T>(Receiver<T>);

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.recv().ok()
        }
    }
}
