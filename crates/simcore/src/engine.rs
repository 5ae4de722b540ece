//! The discrete-event engine.
//!
//! [`Engine<W>`] owns a time-ordered heap of events. An event is an
//! `FnOnce(&mut W, &mut Engine<W>)` closure, where `W` is whatever "world"
//! state the caller wants to simulate. The engine guarantees:
//!
//! * events fire in non-decreasing time order;
//! * events scheduled for the same instant fire in FIFO (schedule) order —
//!   a *stable* tie-break, which is what makes runs reproducible;
//! * a cancelled event never fires.
//!
//! The world is passed into [`Engine::step`]/[`Engine::run`] by the caller,
//! so the engine never borrows it across events and handlers are free to
//! schedule or cancel further events.
//!
//! # Storage
//!
//! Events live in a slab of reusable slots; a flat 4-ary min-heap
//! orders bare `(time, seq, slot)` entries — time and sequence packed
//! into one `u128` key — and never moves a closure after it is boxed. An [`EventId`] is a `(slot, generation)` pair: the generation
//! is bumped every time a slot is vacated, so a stale handle — one
//! whose event already fired or was cancelled — can never touch the
//! slot's next occupant, even though slots are recycled aggressively.
//! [`Engine::cancel`] just flips the slot to a tombstone in O(1); the
//! heap entry is discarded lazily when it surfaces. Steady-state
//! schedule/fire traffic therefore allocates nothing beyond the closure
//! box itself once the slab and heap have grown to the high-water mark.

use crate::time::{SimDuration, SimTime};

/// Handle to a scheduled event; can be used to [`Engine::cancel`] it.
///
/// Handles are generation-tagged: once the event fires or is cancelled,
/// the handle goes stale and all further operations through it are
/// no-ops, even after the underlying slot is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;

/// Free-list terminator for `free_head` / `next_free`.
const NIL: u32 = u32::MAX;

enum SlotState<W> {
    /// Unused; links to the next free slot.
    Vacant { next_free: u32 },
    /// Scheduled and live; exactly one heap entry points here.
    Pending { action: EventFn<W> },
    /// Cancelled, but its heap entry has not surfaced yet.
    Tombstone,
}

struct Slot<W> {
    /// Bumped on every vacate; must match [`EventId::gen`] for a handle
    /// to be considered live.
    gen: u32,
    state: SlotState<W>,
}

/// What the heap orders: the closure stays in the slab.
#[derive(Clone, Copy)]
struct HeapEntry {
    /// `(time.as_nanos() << 64) | seq` — one branchless `u128` compare
    /// orders by time with a stable FIFO tie-break on the sequence.
    key: u128,
    slot: u32,
}

impl HeapEntry {
    #[inline]
    fn new(time: SimTime, seq: u64, slot: u32) -> Self {
        HeapEntry {
            key: ((time.as_nanos() as u128) << 64) | seq as u128,
            slot,
        }
    }

    #[inline]
    fn time(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

/// Heap fan-out. Quaternary halves the depth of a binary heap, and with
/// 16-byte keys the four children of a node span exactly one cache line,
/// which measurably cuts sift time on the 100k-timer substrate benchmark.
const ARITY: usize = 4;

/// Implicit d-ary min-heap of [`HeapEntry`]s, ordered on the packed key.
///
/// Stored struct-of-arrays: sift loops compare only `keys`, so the hot
/// comparisons scan a densely packed `u128` array; the payload slot
/// indices move in lock-step in a parallel array.
struct EventHeap {
    keys: Vec<u128>,
    slots: Vec<u32>,
    /// Deterministic cost counters: cumulative push/pop totals. Pure
    /// functions of the event schedule, so they double as a drift-free
    /// proxy for hot-path work (see the cost ratchet in `repro`).
    pushes: u64,
    pops: u64,
}

impl EventHeap {
    const fn new() -> Self {
        EventHeap {
            keys: Vec::new(),
            slots: Vec::new(),
            pushes: 0,
            pops: 0,
        }
    }

    #[inline]
    fn peek(&self) -> Option<HeapEntry> {
        Some(HeapEntry {
            key: *self.keys.first()?,
            slot: self.slots[0],
        })
    }

    #[inline]
    fn push(&mut self, e: HeapEntry) {
        self.pushes += 1;
        self.keys.push(e.key);
        self.slots.push(e.slot);
        self.sift_up(self.keys.len() - 1, e);
    }

    #[inline]
    fn pop(&mut self) -> Option<HeapEntry> {
        let n = self.keys.len();
        if n == 0 {
            return None;
        }
        self.pops += 1;
        let top = HeapEntry {
            key: self.keys[0],
            slot: self.slots[0],
        };
        let last = HeapEntry {
            key: self.keys.pop().expect("non-empty"),
            slot: self.slots.pop().expect("non-empty"),
        };
        if n > 1 {
            self.sift_down(0, last);
        }
        Some(top)
    }

    /// Place `e` (already appended conceptually at `i`) by walking up.
    fn sift_up(&mut self, mut i: usize, e: HeapEntry) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.keys[parent] <= e.key {
                break;
            }
            self.keys[i] = self.keys[parent];
            self.slots[i] = self.slots[parent];
            i = parent;
        }
        self.keys[i] = e.key;
        self.slots[i] = e.slot;
    }

    /// Place `e` by walking down from `i`, promoting the smallest child.
    fn sift_down(&mut self, mut i: usize, e: HeapEntry) {
        let n = self.keys.len();
        loop {
            let first = i * ARITY + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            let mut min_key = self.keys[first];
            for c in first + 1..(first + ARITY).min(n) {
                let k = self.keys[c];
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if e.key <= min_key {
                break;
            }
            self.keys[i] = min_key;
            self.slots[i] = self.slots[min];
            i = min;
        }
        self.keys[i] = e.key;
        self.slots[i] = e.slot;
    }
}

/// A discrete-event scheduler over a world type `W`.
///
/// ```
/// use parfait_simcore::{Engine, SimDuration, SimTime};
///
/// let mut eng: Engine<Vec<&str>> = Engine::new();
/// let mut log = Vec::new();
/// eng.schedule_at(SimTime::from_secs(2), |w: &mut Vec<&str>, _| w.push("later"));
/// eng.schedule_at(SimTime::from_secs(1), |w: &mut Vec<&str>, e| {
///     w.push("first");
///     e.schedule_in(SimDuration::from_secs(5), |w: &mut Vec<&str>, _| w.push("child"));
/// });
/// eng.run(&mut log);
/// assert_eq!(log, vec!["first", "later", "child"]);
/// assert_eq!(eng.now(), SimTime::from_secs(6));
/// ```
pub struct Engine<W> {
    now: SimTime,
    next_seq: u64,
    heap: EventHeap,
    slots: Vec<Slot<W>>,
    /// Head of the vacant-slot free list (`NIL` when empty).
    free_head: u32,
    /// Live (scheduled, not cancelled) events.
    pending: usize,
    fired: u64,
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Engine<W> {
    /// Create an engine at t = 0 with no pending events.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            next_seq: 0,
            heap: EventHeap::new(),
            slots: Vec::new(),
            free_head: NIL,
            pending: 0,
            fired: 0,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of live (non-cancelled) pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Cumulative heap pushes (one per [`Engine::schedule_at`]).
    ///
    /// Together with [`Engine::heap_pops`] and [`Engine::events_fired`]
    /// this forms a deterministic cost proxy: the counts are pure
    /// functions of configuration and seed, so CI can ratchet them
    /// without the ±30% noise of wall-clock timing.
    #[inline]
    pub fn heap_pushes(&self) -> u64 {
        self.heap.pushes
    }

    /// Cumulative heap pops (fired events plus drained tombstones).
    #[inline]
    pub fn heap_pops(&self) -> u64 {
        self.heap.pops
    }

    /// True when no live events remain.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.pending == 0
    }

    /// Return a slot to the free list and invalidate outstanding handles.
    #[inline]
    fn vacate(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.state = SlotState::Vacant {
            next_free: self.free_head,
        };
        self.free_head = slot;
    }

    /// Schedule `action` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling backwards in time is
    /// always a logic error in a DES.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: now={} at={}",
            self.now,
            at
        );
        let action: EventFn<W> = Box::new(action);
        let slot = if self.free_head != NIL {
            let slot = self.free_head;
            let s = &mut self.slots[slot as usize];
            match s.state {
                SlotState::Vacant { next_free } => self.free_head = next_free,
                _ => unreachable!("free list points at an occupied slot"),
            }
            s.state = SlotState::Pending { action };
            slot
        } else {
            assert!(self.slots.len() < NIL as usize, "event slab exhausted");
            self.slots.push(Slot {
                gen: 0,
                state: SlotState::Pending { action },
            });
            (self.slots.len() - 1) as u32
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending += 1;
        self.heap.push(HeapEntry::new(at, seq, slot));
        EventId {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// Schedule `action` to fire `after` from now.
    pub fn schedule_in(
        &mut self,
        after: SimDuration,
        action: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
    ) -> EventId {
        let at = self.now.saturating_add(after);
        self.schedule_at(at, action)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (and is now guaranteed not to fire), `false` if it had
    /// already fired or been cancelled — including through a stale handle
    /// whose slot now hosts a different event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let s = &mut self.slots[id.slot as usize];
        if s.gen != id.gen || !matches!(s.state, SlotState::Pending { .. }) {
            return false;
        }
        // O(1): the heap entry stays behind as garbage and is discarded
        // when it reaches the top.
        s.state = SlotState::Tombstone;
        self.pending -= 1;
        true
    }

    /// Time of the next live event, if any, without firing it.
    ///
    /// Discards any cancelled entries that have reached the top of the
    /// heap, so the returned time is always that of an event which will
    /// actually fire.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(top) = self.heap.peek() {
            match self.slots[top.slot as usize].state {
                SlotState::Tombstone => {
                    let e = self.heap.pop().expect("peeked");
                    self.vacate(e.slot);
                }
                _ => return Some(top.time()),
            }
        }
        None
    }

    /// Fire the next event, if any. Returns `false` when idle.
    pub fn step(&mut self, world: &mut W) -> bool {
        while let Some(ev) = self.heap.pop() {
            // Each occupation of a slot has exactly one heap entry, so
            // this entry refers to the slot's current occupant.
            let state = std::mem::replace(
                &mut self.slots[ev.slot as usize].state,
                SlotState::Tombstone,
            );
            match state {
                SlotState::Tombstone => {
                    self.vacate(ev.slot);
                }
                SlotState::Pending { action } => {
                    self.vacate(ev.slot);
                    debug_assert!(ev.time() >= self.now, "event heap returned past event");
                    self.now = ev.time();
                    self.fired += 1;
                    self.pending -= 1;
                    action(world, self);
                    return true;
                }
                SlotState::Vacant { .. } => {
                    unreachable!("heap entry for a vacant slot")
                }
            }
        }
        false
    }

    /// Run until no events remain.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Run until the next event would fire after `deadline` (or idle).
    /// Leaves `now` at the time of the last fired event (≤ `deadline`); the
    /// caller may then inspect the world "as of" the deadline.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
        while let Some(t) = self.peek_time() {
            if t > deadline {
                break;
            }
            self.step(world);
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    fn sec(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn fires_in_time_order() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(sec(3), |w: &mut World, e| {
            w.log.push((e.now().as_nanos(), "c"))
        });
        eng.schedule_at(sec(1), |w: &mut World, e| {
            w.log.push((e.now().as_nanos(), "a"))
        });
        eng.schedule_at(sec(2), |w: &mut World, e| {
            w.log.push((e.now().as_nanos(), "b"))
        });
        eng.run(&mut w);
        let labels: Vec<_> = w.log.iter().map(|(_, l)| *l).collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
        assert_eq!(eng.events_fired(), 3);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        for (i, label) in ["first", "second", "third", "fourth"].iter().enumerate() {
            let label = *label;
            let _ = i;
            eng.schedule_at(sec(5), move |w: &mut World, _| w.log.push((0, label)));
        }
        eng.run(&mut w);
        let labels: Vec<_> = w.log.iter().map(|(_, l)| *l).collect();
        assert_eq!(labels, vec!["first", "second", "third", "fourth"]);
    }

    #[test]
    fn handlers_can_schedule_more() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(sec(1), |_w: &mut World, e| {
            e.schedule_in(SimDuration::from_secs(1), |w: &mut World, e| {
                w.log.push((e.now().as_nanos(), "child"));
            });
        });
        eng.run(&mut w);
        assert_eq!(w.log, vec![(2 * crate::time::NANOS_PER_SEC, "child")]);
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        let id = eng.schedule_at(sec(1), |w: &mut World, _| w.log.push((0, "nope")));
        eng.schedule_at(sec(2), |w: &mut World, _| w.log.push((0, "yes")));
        assert!(eng.cancel(id));
        assert!(!eng.cancel(id), "double cancel reports false");
        eng.run(&mut w);
        assert_eq!(w.log, vec![(0, "yes")]);
    }

    #[test]
    fn cancel_after_fire_is_false() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        let id = eng.schedule_at(sec(1), |_: &mut World, _| {});
        eng.run(&mut w);
        assert!(!eng.cancel(id));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_past_panics() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(sec(5), |_: &mut World, _| {});
        eng.run(&mut w);
        eng.schedule_at(sec(1), |_: &mut World, _| {});
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        eng.schedule_at(sec(1), |w: &mut World, _| w.log.push((0, "in")));
        eng.schedule_at(sec(10), |w: &mut World, _| w.log.push((0, "out")));
        eng.run_until(&mut w, sec(5));
        assert_eq!(w.log, vec![(0, "in")]);
        assert_eq!(eng.now(), sec(5));
        assert_eq!(eng.pending(), 1);
        eng.run(&mut w);
        assert_eq!(w.log.len(), 2);
    }

    #[test]
    fn pending_accounts_for_cancellations() {
        let mut eng: Engine<World> = Engine::new();
        let a = eng.schedule_at(sec(1), |_: &mut World, _| {});
        let _b = eng.schedule_at(sec(2), |_: &mut World, _| {});
        assert_eq!(eng.pending(), 2);
        eng.cancel(a);
        assert_eq!(eng.pending(), 1);
        assert!(!eng.is_idle());
    }

    #[test]
    fn periodic_self_rescheduling_pattern() {
        // The idiom used by pollers (monitoring, heartbeats).
        struct Tick {
            count: Rc<std::cell::Cell<u32>>,
        }
        fn tick(w: &mut Tick, e: &mut Engine<Tick>) {
            w.count.set(w.count.get() + 1);
            if w.count.get() < 5 {
                e.schedule_in(SimDuration::from_millis(100), tick);
            }
        }
        let count = Rc::new(std::cell::Cell::new(0));
        let mut w = Tick {
            count: count.clone(),
        };
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::ZERO, tick);
        eng.run(&mut w);
        assert_eq!(count.get(), 5);
        assert_eq!(
            eng.now(),
            SimTime::from_nanos(400 * crate::time::NANOS_PER_MILLI)
        );
    }

    #[test]
    fn stale_handle_cannot_cancel_slot_reuse() {
        // After a cancel, the slot is recycled by the next schedule once
        // its heap entry drains; the old handle's generation no longer
        // matches and must be inert.
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        let stale = eng.schedule_at(sec(1), |w: &mut World, _| w.log.push((0, "old")));
        eng.cancel(stale);
        // Drain the tombstone so the slot returns to the free list...
        assert_eq!(eng.peek_time(), None);
        // ...then reoccupy it with a new event.
        let fresh = eng.schedule_at(sec(2), |w: &mut World, _| w.log.push((0, "new")));
        assert_eq!(eng.pending(), 1);
        assert!(
            !eng.cancel(stale),
            "stale handle must not cancel the new occupant"
        );
        eng.run(&mut w);
        assert_eq!(w.log, vec![(0, "new")]);
        assert!(!eng.cancel(fresh), "fired handle is stale too");
    }

    #[test]
    fn peek_time_skips_tombstones_and_reports_next_live() {
        let mut eng: Engine<World> = Engine::new();
        let a = eng.schedule_at(sec(1), |_: &mut World, _| {});
        eng.schedule_at(sec(3), |_: &mut World, _| {});
        assert_eq!(eng.peek_time(), Some(sec(1)));
        eng.cancel(a);
        assert_eq!(eng.peek_time(), Some(sec(3)));
        let mut w = World::default();
        eng.run(&mut w);
        assert_eq!(eng.peek_time(), None);
    }

    #[test]
    fn slots_are_recycled() {
        // Heavy schedule/fire churn must not grow the slab beyond the
        // high-water mark of simultaneously pending events.
        let mut eng: Engine<World> = Engine::new();
        let mut w = World::default();
        for round in 0..1_000u64 {
            for i in 0..4u64 {
                eng.schedule_at(SimTime::from_nanos(round * 10 + i), |_: &mut World, _| {});
            }
            while eng.step(&mut w) {}
        }
        assert_eq!(eng.events_fired(), 4_000);
        assert!(
            eng.slots.len() <= 4,
            "slab grew to {} slots for 4 concurrent events",
            eng.slots.len()
        );
    }
}
