//! The event loop: virtual clock plus a priority heap of pending events.
//!
//! # Event representation
//!
//! The engine is generic over the *event type* `E`, which must implement
//! [`Event`]: the simulation defines its own event enum and schedules
//! values of it with [`Engine::schedule_event_at`] /
//! [`Engine::schedule_event_in`]. Event payloads are stored inline in a
//! slab whose slots are recycled, so the steady-state event loop performs
//! *no* per-event allocation. There is no closure form: one event path,
//! the one every simulator and the benchmark measure.
//!
//! # Storage and cancellation
//!
//! Pending events live in a slab (a `Vec` of generation-stamped slots with
//! a free list); the binary heap orders small `Copy` entries — `(time,
//! sequence, slot, generation)` — only. Two events scheduled for the same
//! instant fire in schedule order (the monotonically increasing sequence
//! number breaks ties), which makes every simulation run fully
//! deterministic given a fixed RNG seed.
//!
//! An [`EventId`] names its slab slot *and* the slot's generation at
//! scheduling time. Each slot's generation is bumped when its event fires
//! or is cancelled, so a stale id (already fired, already cancelled, or a
//! duplicate cancel) simply no longer matches and the cancel is an O(1)
//! no-op — there is no side table of cancelled ids that could grow or
//! drift out of sync with the heap. Heap entries left behind by a cancel
//! are discarded lazily when they surface at the top of the heap.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A schedulable event over a world type `W`.
///
/// Implement this for a simulation-specific enum: the engine stores the
/// value inline and calls [`Event::fire`] exactly once when its time
/// arrives.
pub trait Event<W>: Sized + 'static {
    /// Executes the event. The engine's clock has already advanced to the
    /// event's scheduled time.
    fn fire(self, engine: &mut Engine<W, Self>);
}

/// Identifier of a scheduled event, used for cancellation.
///
/// An id is a slab slot index plus the slot's *generation* at scheduling
/// time. Firing or cancelling an event bumps its slot's generation, so an
/// id can never act on anything but the exact scheduling it came from:
/// cancelling an already-fired, already-cancelled, or otherwise stale id
/// is a no-op, even if the slot has since been reused by a newer event.
/// (Generations are 32-bit and wrap; an id would have to be retained
/// across 2³² reuses of one slot to alias, which does not happen in
/// practice.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// One slab slot: the event payload (if scheduled) plus the generation
/// stamp that validates heap entries and [`EventId`]s pointing at it.
struct Slot<E> {
    gen: u32,
    event: Option<E>,
}

/// What the binary heap actually orders: small and `Copy`, no payload.
#[derive(Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap but we want earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Discrete-event simulation engine over a world type `W` and an event
/// type `E`.
///
/// The world holds all domain state (replicas, clients, resources); events
/// receive `&mut Engine<W, E>` and may inspect/mutate the world and
/// schedule further events.
pub struct Engine<W, E> {
    clock: SimTime,
    heap: BinaryHeap<HeapEntry>,
    slots: Vec<Slot<E>>,
    /// Vacant slab slots, reused newest-first.
    free: Vec<u32>,
    next_seq: u64,
    executed: u64,
    world: W,
}

impl<W, E: Event<W>> Engine<W, E> {
    /// Creates an engine at time zero wrapping `world`.
    pub fn new(world: W) -> Self {
        Engine {
            clock: SimTime::ZERO,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            executed: 0,
            world,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the engine, returning the world (for end-of-run reporting).
    pub fn into_world(self) -> W {
        self.world
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending (excluding cancelled ones):
    /// exactly the occupied slab slots, so cancellation bookkeeping can
    /// never drift.
    pub fn events_pending(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — scheduling into the past is always a
    /// logic error in a DES.
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.clock,
            "cannot schedule into the past: now={}, at={}",
            self.clock,
            at
        );
        self.schedule_validated(at, event)
    }

    /// Scheduling core, after `at` has been validated as `>= clock`.
    #[inline]
    fn schedule_validated(&mut self, at: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (slot, gen) = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.event = Some(event);
                (slot, s.gen)
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event slab exceeds u32 slots");
                self.slots.push(Slot {
                    gen: 0,
                    event: Some(event),
                });
                (slot, 0)
            }
        };
        self.heap.push(HeapEntry { at, seq, slot, gen });
        EventId { slot, gen }
    }

    /// Schedules `event` to fire `delay` seconds from now.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or NaN.
    #[inline]
    pub fn schedule_event_in(&mut self, delay: f64, event: E) -> EventId {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "delay must be finite and non-negative, got {delay}"
        );
        // A validated delay cannot land before `now`, so skip the
        // schedule_event_at assert.
        self.schedule_validated(self.clock.offset_unchecked(delay), event)
    }

    /// Cancels a pending event in O(1). Cancelling an already-fired,
    /// already-cancelled, or otherwise stale id is a no-op: the id's
    /// generation no longer matches its slot, so nothing happens (in
    /// particular, [`Engine::events_pending`] stays exact).
    pub fn cancel(&mut self, id: EventId) {
        if let Some(slot) = self.slots.get_mut(id.slot as usize) {
            if slot.gen == id.gen && slot.event.is_some() {
                slot.event = None;
                slot.gen = slot.gen.wrapping_add(1);
                self.free.push(id.slot);
            }
        }
    }

    /// Discards stale entries (from cancellations) until the earliest
    /// pending event is live, and returns its time.
    fn peek_live(&mut self) -> Option<SimTime> {
        loop {
            let entry = self.heap.peek()?;
            if self.slots[entry.slot as usize].gen == entry.gen {
                return Some(entry.at);
            }
            self.heap.pop();
        }
    }

    /// Pops the next live event, advancing the clock to its time.
    #[inline]
    fn pop_live(&mut self) -> Option<E> {
        loop {
            let entry = self.heap.pop()?;
            let slot = &mut self.slots[entry.slot as usize];
            if slot.gen != entry.gen {
                continue;
            }
            let event = slot.event.take().expect("live slot holds an event");
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(entry.slot);
            debug_assert!(entry.at >= self.clock, "event heap yielded past event");
            self.clock = entry.at;
            self.executed += 1;
            return Some(event);
        }
    }

    /// Executes the next pending event, advancing the clock.
    ///
    /// Returns `false` when no events remain.
    pub fn step(&mut self) -> bool {
        match self.pop_live() {
            Some(event) => {
                event.fire(self);
                true
            }
            None => false,
        }
    }

    /// Runs until the event heap is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until virtual time reaches `deadline` (events at exactly
    /// `deadline` still fire) or the heap empties, whichever is first.
    ///
    /// After returning, the clock is `max(clock, deadline)` so that
    /// measurement windows line up even if the heap ran dry early.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(at) = self.peek_live() {
            if at > deadline {
                break;
            }
            let event = self.pop_live().expect("peek_live found a live event");
            event.fire(self);
        }
        if self.clock < deadline {
            self.clock = deadline;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test world: a running sum plus the order tags fired in.
    #[derive(Default)]
    struct Acc {
        sum: u32,
        order: Vec<u32>,
    }

    enum Tick {
        Add(u32),
        Tag(u32),
        /// Adds one and reschedules itself until the sum reaches 10.
        Chain,
    }

    impl Event<Acc> for Tick {
        fn fire(self, engine: &mut Engine<Acc, Tick>) {
            match self {
                Tick::Add(x) => engine.world_mut().sum += x,
                Tick::Tag(tag) => engine.world_mut().order.push(tag),
                Tick::Chain => {
                    engine.world_mut().sum += 1;
                    if engine.world().sum < 10 {
                        engine.schedule_event_in(0.5, Tick::Chain);
                    }
                }
            }
        }
    }

    fn engine() -> Engine<Acc, Tick> {
        Engine::new(Acc::default())
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut engine = engine();
        for (t, tag) in [(3.0, 3u32), (1.0, 1), (2.0, 2)] {
            engine.schedule_event_in(t, Tick::Tag(tag));
        }
        engine.run();
        assert_eq!(engine.world().order, vec![1, 2, 3]);
        assert_eq!(engine.events_executed(), 3);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut engine = engine();
        for tag in 0..5u32 {
            engine.schedule_event_in(1.0, Tick::Tag(tag));
        }
        engine.run();
        assert_eq!(engine.world().order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn events_can_schedule_events() {
        // The chain also exercises slot reuse: one event in flight, the
        // slab never grows past one slot.
        let mut engine = engine();
        engine.schedule_event_in(0.5, Tick::Chain);
        engine.run();
        assert_eq!(engine.world().sum, 10);
        assert!((engine.now().as_secs() - 5.0).abs() < 1e-12);
        assert_eq!(engine.slots.len(), 1);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut engine = engine();
        let id = engine.schedule_event_in(1.0, Tick::Add(1));
        engine.schedule_event_in(2.0, Tick::Add(10));
        engine.cancel(id);
        engine.run();
        assert_eq!(engine.world().sum, 10);
        assert_eq!(engine.events_executed(), 1);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut engine = engine();
        let id = engine.schedule_event_in(1.0, Tick::Add(1));
        engine.run();
        engine.cancel(id);
        engine.schedule_event_in(1.0, Tick::Add(1));
        engine.run();
        assert_eq!(engine.world().sum, 2);
    }

    #[test]
    fn stale_cancel_does_not_kill_slot_reuser() {
        // Regression: a cancel of an already-fired id must not cancel the
        // *new* event that has since reused the same slab slot, and must
        // not corrupt the pending count (the old side-table design leaked
        // fired/duplicate ids into `cancelled`, making `events_pending` =
        // `heap.len() - cancelled.len()` wrong and underflow-prone).
        let mut engine = engine();
        let a = engine.schedule_event_in(1.0, Tick::Add(1));
        engine.run();
        // The next event reuses slot 0 (freed when `a` fired) at a new
        // generation.
        engine.schedule_event_in(1.0, Tick::Add(10));
        engine.cancel(a); // stale: must be a no-op
        assert_eq!(engine.events_pending(), 1);
        engine.run();
        assert_eq!(engine.world().sum, 11);
    }

    #[test]
    fn duplicate_cancels_keep_pending_count_exact() {
        // Regression: repeated cancels of the same id (and cancels of
        // already-fired ids) must leave `events_pending` exact — the old
        // design could make it underflow-panic.
        let mut engine = engine();
        let a = engine.schedule_event_in(1.0, Tick::Add(0));
        let b = engine.schedule_event_in(2.0, Tick::Add(0));
        assert_eq!(engine.events_pending(), 2);
        engine.cancel(a);
        engine.cancel(a); // duplicate
        engine.cancel(a); // and again
        assert_eq!(engine.events_pending(), 1);
        engine.run();
        assert_eq!(engine.events_pending(), 0);
        engine.cancel(b); // already fired
        engine.cancel(a); // long gone
        assert_eq!(engine.events_pending(), 0);
        assert_eq!(engine.events_executed(), 1);
    }

    #[test]
    fn cancelled_then_rescheduled_fires_once() {
        // A cancelled slot is reused immediately; the heap's stale entry
        // for the old generation must be skipped without touching the new
        // occupant even though both share the slot index.
        let mut engine = engine();
        let a = engine.schedule_event_in(5.0, Tick::Add(100));
        engine.cancel(a);
        engine.schedule_event_in(1.0, Tick::Add(1)); // reuses slot 0
        engine.run();
        assert_eq!(engine.world().sum, 1);
        assert_eq!(engine.events_executed(), 1);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut engine = engine();
        for i in 1..=10 {
            engine.schedule_event_in(i as f64, Tick::Add(1));
        }
        engine.run_until(SimTime::from_secs(5.0));
        assert_eq!(engine.world().sum, 5);
        assert_eq!(engine.now().as_secs(), 5.0);
        engine.run();
        assert_eq!(engine.world().sum, 10);
    }

    #[test]
    fn run_until_advances_clock_past_empty_heap() {
        let mut engine = engine();
        engine.run_until(SimTime::from_secs(42.0));
        assert_eq!(engine.now().as_secs(), 42.0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut engine = engine();
        engine.schedule_event_in(5.0, Tick::Add(0));
        engine.run();
        engine.schedule_event_at(SimTime::from_secs(1.0), Tick::Add(0));
    }

    #[test]
    #[should_panic(expected = "delay must be finite")]
    fn negative_delay_panics() {
        engine().schedule_event_in(-1.0, Tick::Add(0));
    }
}
