//! Per-shard health state: mark-down on failure, mark-up after a
//! cooldown plus a successful `ping` probe.
//!
//! The state is shared between the router's forwarding workers (which
//! mark a shard down the moment a forward fails) and the background
//! prober (which is the only thing allowed to mark a shard back up, so a
//! flapping shard cannot oscillate faster than the cooldown).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One shard's mutable state.
#[derive(Debug, Clone)]
struct ShardState {
    addr: String,
    up: bool,
    down_since: Option<Instant>,
}

/// Live view of the whole fleet: addresses, up/down flags and counters.
#[derive(Debug)]
pub struct FleetState {
    shards: Vec<Mutex<ShardState>>,
    /// Requests routed to each shard (including retries that landed there).
    routed: Vec<AtomicU64>,
    /// Times each shard was marked down.
    mark_downs: Vec<AtomicU64>,
    /// Times each shard was marked back up.
    mark_ups: Vec<AtomicU64>,
    /// Minimum time a shard stays down before the prober may revive it.
    cooldown: Duration,
}

impl FleetState {
    /// A fleet where every shard starts up at the given address.
    pub fn new(addrs: Vec<String>, cooldown: Duration) -> FleetState {
        let n = addrs.len();
        FleetState {
            shards: addrs
                .into_iter()
                .map(|addr| Mutex::new(ShardState { addr, up: true, down_since: None }))
                .collect(),
            routed: (0..n).map(|_| AtomicU64::new(0)).collect(),
            mark_downs: (0..n).map(|_| AtomicU64::new(0)).collect(),
            mark_ups: (0..n).map(|_| AtomicU64::new(0)).collect(),
            cooldown,
        }
    }

    /// One shard's state, poison-tolerant: every critical section below
    /// leaves the state consistent, so a thread that panicked holding the
    /// lock must not take the health table down with it.
    fn shard(&self, shard: usize) -> MutexGuard<'_, ShardState> {
        self.shards[shard].lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Number of shards (fixed for the fleet's lifetime).
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the fleet has no shards (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Current address of a shard (changes when a shard is respawned).
    pub fn addr(&self, shard: usize) -> String {
        self.shard(shard).addr.clone()
    }

    /// Point a shard identity at a new address (respawn on a fresh
    /// ephemeral port). The shard keeps its ring position; it stays in
    /// whatever up/down state it was in until the prober revives it.
    pub fn set_addr(&self, shard: usize, addr: String) {
        self.shard(shard).addr = addr;
    }

    /// The up/down bitmap the ring routes over.
    pub fn up_map(&self) -> Vec<bool> {
        (0..self.len()).map(|i| self.shard(i).up).collect()
    }

    /// Is this shard currently up?
    pub fn is_up(&self, shard: usize) -> bool {
        self.shard(shard).up
    }

    /// Number of shards currently up.
    pub fn up_count(&self) -> usize {
        (0..self.len()).filter(|&i| self.shard(i).up).count()
    }

    /// Mark a shard down (connect failure or mid-request I/O error).
    /// Idempotent: only the first call per outage counts.
    pub fn mark_down(&self, shard: usize) {
        let mut s = self.shard(shard);
        if s.up {
            s.up = false;
            s.down_since = Some(Instant::now());
            self.mark_downs[shard].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// May the prober attempt to revive this shard yet? True when it is
    /// down and its cooldown has elapsed.
    pub fn revivable(&self, shard: usize) -> bool {
        let s = self.shard(shard);
        !s.up && s.down_since.map(|t| t.elapsed() >= self.cooldown).unwrap_or(true)
    }

    /// Mark a shard up again (prober-only, after a successful ping).
    pub fn mark_up(&self, shard: usize) {
        let mut s = self.shard(shard);
        if !s.up {
            s.up = true;
            s.down_since = None;
            self.mark_ups[shard].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one request routed to `shard`.
    pub fn count_routed(&self, shard: usize) {
        self.routed[shard].fetch_add(1, Ordering::Relaxed);
    }

    /// Requests routed to `shard` so far.
    pub fn routed(&self, shard: usize) -> u64 {
        self.routed[shard].load(Ordering::Relaxed)
    }

    /// Mark-down count for `shard`.
    pub fn mark_downs(&self, shard: usize) -> u64 {
        self.mark_downs[shard].load(Ordering::Relaxed)
    }

    /// Mark-up count for `shard`.
    pub fn mark_ups(&self, shard: usize) -> u64 {
        self.mark_ups[shard].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_down_is_idempotent_and_cooldown_gates_revival() {
        let state = FleetState::new(vec!["a:1".into(), "b:2".into()], Duration::from_millis(50));
        assert_eq!(state.up_count(), 2);
        state.mark_down(1);
        state.mark_down(1); // second call must not double-count
        assert_eq!(state.mark_downs(1), 1);
        assert_eq!(state.up_map(), vec![true, false]);
        assert!(!state.revivable(1), "cooldown has not elapsed");
        std::thread::sleep(Duration::from_millis(60));
        assert!(state.revivable(1));
        state.mark_up(1);
        assert_eq!(state.mark_ups(1), 1);
        assert_eq!(state.up_count(), 2);
    }

    #[test]
    fn respawn_changes_address_but_not_identity() {
        let state = FleetState::new(vec!["a:1".into()], Duration::ZERO);
        state.mark_down(0);
        state.set_addr(0, "a:99".into());
        assert_eq!(state.addr(0), "a:99");
        assert!(!state.is_up(0), "a respawned shard stays down until probed");
    }

    #[test]
    fn a_panic_under_the_lock_does_not_take_the_table_down() {
        let state = FleetState::new(vec!["a:1".into(), "b:2".into()], Duration::ZERO);
        let poisoned = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = state.shard(1);
                panic!("a forwarding worker died holding the lock");
            })
            .join()
        });
        assert!(poisoned.is_err() && state.shards[1].is_poisoned());
        state.mark_down(1);
        assert_eq!(state.up_map(), vec![true, false]);
        assert!(state.revivable(1));
        state.mark_up(1);
        assert_eq!((state.up_count(), state.addr(1).as_str()), (2, "b:2"));
    }
}
