//! A real mailbox-backed exchange layer for split-phase supersteps.
//!
//! The closed forms in [`collectives`](crate::collectives) size the
//! h-relations; this module *moves the bytes*. Each pair of nodes shares a
//! single-message mailbox, and every transfer is split-phase in the BSPlib
//! / paper-§VII sense: the sender **posts** its payload and immediately
//! returns to local work, the receiver **completes** the transfer only
//! when it actually needs the data. The window between the two is where a
//! sharded executor hides exchange time behind its local compute tail.
//!
//! Every envelope carries the [`Instant`] the sender posted it, so the
//! receiver can measure how much of the exchange was in flight while it
//! was still computing — the directly measured counterpart of the modeled
//! `g·h` term.

use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// A delivered message: the payload plus the instant the sender posted it.
///
/// Split-phase semantics mean receipt can be arbitrarily later than the
/// post; the stamp lets the receiver compute the in-flight window.
#[derive(Debug)]
pub struct Envelope<T> {
    /// The transferred elements.
    pub data: Vec<T>,
    /// When the sender posted the message.
    pub posted_at: Instant,
}

/// A mailbox's contents. The buffer outlives the messages: a post copies
/// into it and a borrowing completion leaves it in place, so steady-state
/// supersteps move bytes without allocating.
#[derive(Debug)]
struct Mail<T> {
    data: Vec<T>,
    /// `Some` while a message waits to be completed.
    posted_at: Option<Instant>,
}

/// One single-message mailbox: a slot plus the condvar its receiver parks on.
#[derive(Debug)]
struct Slot<T> {
    mail: Mutex<Mail<T>>,
    ready: Condvar,
}

/// `p × p` single-message mailboxes implementing point-to-point
/// h-relations, allgather, and allreduce with split-phase
/// [`post_send`](Exchange::post_send) / [`complete`](Exchange::complete)
/// halves. One instance backs one cluster; supersteps reuse it (each
/// complete drains its slot, so a mailbox is free again for step k+1).
#[derive(Debug)]
pub struct Exchange<T> {
    p: usize,
    slots: Vec<Slot<T>>,
}

impl<T: Send> Exchange<T> {
    /// An exchange fabric for `p` nodes.
    pub fn new(p: usize) -> Exchange<T> {
        assert!(p > 0, "a cluster needs at least one node");
        Exchange {
            p,
            slots: (0..p * p)
                .map(|_| Slot {
                    mail: Mutex::new(Mail {
                        data: Vec::new(),
                        posted_at: None,
                    }),
                    ready: Condvar::new(),
                })
                .collect(),
        }
    }

    /// Number of nodes wired into the fabric.
    pub fn nodes(&self) -> usize {
        self.p
    }

    /// Deposits a message in the `from → to` mailbox: `fill` gets the
    /// mailbox's (stale) buffer to overwrite. Panics if the previous
    /// message was never completed (a lost-synchronization bug).
    fn post(&self, from: usize, to: usize, fill: impl FnOnce(&mut Vec<T>)) {
        let slot = &self.slots[to * self.p + from];
        let mut mail = slot.mail.lock().expect("a node panicked mid-exchange");
        assert!(
            mail.posted_at.is_none(),
            "mailbox {from}->{to} still full: superstep k's exchange was never completed"
        );
        fill(&mut mail.data);
        mail.posted_at = Some(Instant::now());
        slot.ready.notify_all();
    }

    /// Blocks until `from`'s message for `to` arrives, hands the mailbox
    /// and the post stamp to `take`, and marks the mailbox drained.
    fn drain<R>(&self, to: usize, from: usize, take: impl FnOnce(&mut Vec<T>, Instant) -> R) -> R {
        let slot = &self.slots[to * self.p + from];
        let mut mail = slot.mail.lock().expect("a node panicked mid-exchange");
        loop {
            match mail.posted_at.take() {
                Some(posted_at) => return take(&mut mail.data, posted_at),
                None => mail = slot.ready.wait(mail).expect("a node panicked mid-exchange"),
            }
        }
    }

    /// The split-phase send: deposits `data` in the `from → to` mailbox
    /// with an arrival stamp and returns immediately, leaving the sender
    /// free to overlap local work. Panics if the previous message in this
    /// mailbox was never completed (a lost-synchronization bug).
    pub fn post_send(&self, from: usize, to: usize, data: Vec<T>) {
        self.post(from, to, |buf| *buf = data);
    }

    /// The matching completion: blocks until `from`'s message for `to`
    /// arrives, then drains the mailbox and returns the envelope.
    pub fn complete(&self, to: usize, from: usize) -> Envelope<T> {
        self.drain(to, from, |buf, posted_at| Envelope {
            data: std::mem::take(buf),
            posted_at,
        })
    }

    /// Posts `node`'s contribution to every peer — the post half of an
    /// allgather (`h = (p−1)·|chunk|` elements out), copied into each
    /// mailbox's standing buffer. Self-delivery is skipped: a node's own
    /// chunk never leaves it.
    pub fn post_allgather(&self, node: usize, chunk: &[T])
    where
        T: Clone,
    {
        self.post_allgather_pieces(node, || std::iter::once(chunk));
    }

    /// [`post_allgather`](Exchange::post_allgather) of a chunk that lies
    /// in pieces: every peer's mailbox receives the concatenation of
    /// `pieces()`, copied straight from where the pieces live — a node
    /// whose shard is a set of ranges of a larger array posts it without
    /// staging a contiguous copy first.
    pub fn post_allgather_pieces<'a, I>(&self, node: usize, pieces: impl Fn() -> I)
    where
        T: Clone + 'a,
        I: Iterator<Item = &'a [T]>,
    {
        for to in (0..self.p).filter(|&to| to != node) {
            self.post(node, to, |buf| {
                buf.clear();
                pieces().for_each(|piece| buf.extend_from_slice(piece));
            });
        }
    }

    /// Completes an allgather at `node`: receives every peer's chunk, in
    /// ascending peer order, as `(peer, envelope)` pairs. Empty at `p = 1`.
    pub fn complete_allgather(&self, node: usize) -> Vec<(usize, Envelope<T>)> {
        (0..self.p)
            .filter(|&from| from != node)
            .map(|from| (from, self.complete(node, from)))
            .collect()
    }

    /// [`complete_allgather`](Exchange::complete_allgather) in place:
    /// `read(peer, chunk)` sees every peer's chunk in ascending peer
    /// order, and the mailboxes keep their capacity for the next
    /// superstep's post; returns the latest post stamp (`None` at `p = 1`).
    pub fn complete_allgather_with(
        &self,
        node: usize,
        mut read: impl FnMut(usize, &[T]),
    ) -> Option<Instant> {
        let mut latest: Option<Instant> = None;
        for from in (0..self.p).filter(|&from| from != node) {
            self.drain(node, from, |chunk, posted_at| {
                read(from, chunk);
                latest = Some(latest.map_or(posted_at, |t| t.max(posted_at)));
            });
        }
        latest
    }

    /// Posts `node`'s scalar partial to every peer — the post half of a
    /// direct-exchange allreduce (`h = (p−1)` words each way).
    pub fn post_allreduce(&self, node: usize, partial: T)
    where
        T: Clone,
    {
        self.post_allgather(node, std::slice::from_ref(&partial));
    }

    /// Completes an allreduce at `node`: every peer's partial in ascending
    /// peer order, plus the latest post stamp (`None` at `p = 1`). The
    /// combine itself is the caller's: deterministic reductions need an
    /// owner-order fold, which only the caller can sequence.
    pub fn complete_allreduce(&self, node: usize) -> (Vec<(usize, T)>, Option<Instant>) {
        let mut partials = Vec::with_capacity(self.p - 1);
        let mut latest: Option<Instant> = None;
        for from in (0..self.p).filter(|&from| from != node) {
            self.drain(node, from, |buf, posted_at| {
                partials.push((from, buf.pop().expect("allreduce payload")));
                latest = Some(latest.map_or(posted_at, |t| t.max(posted_at)));
            });
        }
        (partials, latest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_roundtrip() {
        let ex = Exchange::<u64>::new(2);
        ex.post_send(0, 1, vec![7, 8, 9]);
        let env = ex.complete(1, 0);
        assert_eq!(env.data, vec![7, 8, 9]);
        // The mailbox drained: the next superstep may post again.
        ex.post_send(0, 1, vec![1]);
        assert_eq!(ex.complete(1, 0).data, vec![1]);
    }

    #[test]
    fn complete_blocks_until_posted() {
        let ex = Exchange::<f64>::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                ex.post_send(1, 0, vec![2.5]);
            });
            let env = ex.complete(0, 1);
            assert_eq!(env.data, vec![2.5]);
            assert!(env.posted_at.elapsed().as_secs_f64() >= 0.0);
        });
    }

    #[test]
    fn allgather_reassembles_the_vector() {
        let p = 4;
        let ex = Exchange::<usize>::new(p);
        let mut assembled: Vec<Vec<usize>> = vec![Vec::new(); p];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..p)
                .map(|node| {
                    let ex = &ex;
                    s.spawn(move || {
                        let chunk = vec![node * 10, node * 10 + 1];
                        ex.post_allgather(node, &chunk);
                        let mut got = vec![(node, chunk)];
                        got.extend(
                            ex.complete_allgather(node)
                                .into_iter()
                                .map(|(peer, env)| (peer, env.data)),
                        );
                        got.sort_by_key(|&(peer, _)| peer);
                        got.into_iter().flat_map(|(_, c)| c).collect::<Vec<_>>()
                    })
                })
                .collect();
            for (node, h) in handles.into_iter().enumerate() {
                assembled[node] = h.join().unwrap();
            }
        });
        for got in &assembled {
            assert_eq!(*got, vec![0, 1, 10, 11, 20, 21, 30, 31]);
        }
    }

    #[test]
    fn allreduce_delivers_every_partial_in_peer_order() {
        let p = 3;
        let ex = Exchange::<f64>::new(p);
        std::thread::scope(|s| {
            for node in 0..p {
                let ex = &ex;
                s.spawn(move || {
                    ex.post_allreduce(node, node as f64 + 1.0);
                    let (partials, latest) = ex.complete_allreduce(node);
                    let peers: Vec<_> = partials.iter().map(|&(peer, _)| peer).collect();
                    let expect: Vec<_> = (0..p).filter(|&q| q != node).collect();
                    assert_eq!(peers, expect);
                    let sum: f64 =
                        partials.iter().map(|&(_, v)| v).sum::<f64>() + node as f64 + 1.0;
                    assert_eq!(sum, 6.0);
                    assert!(latest.is_some());
                });
            }
        });
    }

    #[test]
    fn in_place_allgather_reads_every_peer_and_frees_the_mailboxes() {
        let p = 3;
        let ex = Exchange::<u32>::new(p);
        for step in 0..2u32 {
            for node in 0..p {
                ex.post_allgather(node, &[step, node as u32]);
            }
            for node in 0..p {
                let mut got = Vec::new();
                let latest = ex.complete_allgather_with(node, |peer, chunk| {
                    got.push((peer, chunk.to_vec()));
                });
                let expect: Vec<_> = (0..p)
                    .filter(|&q| q != node)
                    .map(|q| (q, vec![step, q as u32]))
                    .collect();
                assert_eq!(got, expect);
                assert!(latest.is_some());
            }
        }
    }

    #[test]
    fn pieces_arrive_concatenated() {
        let ex = Exchange::<u32>::new(2);
        let whole: Vec<u32> = (0..10).collect();
        ex.post_allgather_pieces(0, || [&whole[2..4], &whole[7..10]].into_iter());
        ex.post_allgather_pieces(1, std::iter::empty);
        ex.complete_allgather_with(1, |peer, chunk| {
            assert_eq!((peer, chunk), (0, &[2, 3, 7, 8, 9][..]));
        });
        ex.complete_allgather_with(0, |peer, chunk| {
            assert_eq!((peer, chunk), (1, &[][..]));
        });
    }

    #[test]
    fn single_node_exchanges_nothing() {
        let ex = Exchange::<f64>::new(1);
        ex.post_allgather(0, &[1.0, 2.0]);
        assert!(ex.complete_allgather(0).is_empty());
        ex.post_allreduce(0, 1.0);
        let (partials, latest) = ex.complete_allreduce(0);
        assert!(partials.is_empty());
        assert!(latest.is_none());
    }

    #[test]
    #[should_panic(expected = "still full")]
    fn double_post_without_complete_is_a_bug() {
        let ex = Exchange::<u64>::new(2);
        ex.post_send(0, 1, vec![1]);
        ex.post_send(0, 1, vec![2]);
    }
}
