//! Router-level single-flight coalescing: duplicate one-shot misses from
//! different client sessions reach a shard exactly once.
//!
//! The engine already coalesces duplicates *within* one shard process (see
//! `qld-engine`'s flight layer), and the router's hash-affinity policy sends
//! identical keys to the same shard — but every forwarded duplicate still
//! costs a shard round trip, an upstream write, and a shard-session slot.
//! This registry closes that gap at the router: the first one-shot query for
//! a key (across **all** client sessions of the daemon) is forwarded as the
//! flight's *leader*; concurrent duplicates enroll as *followers* and are
//! answered from the leader's terminal frame, with only the `id` /
//! `client_id` envelope rewritten per follower.
//!
//! Streamed queries never coalesce at the router (replaying a partially
//! relayed stream per follower would need the full chunk history; the
//! engine's on-shard fan-out already dedups them), and neither do control
//! lines (`stats`, `cancel`) or unparseable lines.
//!
//! Leader loss does not kill a flight: when the leader's terminal says
//! `halted:"cancelled"` (its client cancelled it) or its shard connection
//! dies with retries exhausted, one live follower is **promoted** — its own
//! session forwards its original line as the flight's new leader, and the
//! remaining followers keep waiting on the same flight.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::lock_ignoring_poison as lock;

/// The follower half of the router↔session interface: how a flight delivers
/// a terminal line to (or re-dispatches a promoted leader on) a client
/// session other than the one that forwarded the leader.
pub(crate) trait CoalesceSession: Send + Sync {
    /// Whether the session's client is gone (deliveries would be dropped).
    fn is_aborted(&self) -> bool;
    /// Writes one fully rendered response line to the session's client,
    /// counts it in the session summary, and releases the pending slot the
    /// follower held.
    fn deliver(&self, line: &str, error: bool);
    /// Releases a follower's pending slot without delivering anything (the
    /// follower was promoted away or its session already aborted).
    fn release(&self);
    /// Promotion: forward `raw` on this session as the new leader of the
    /// flight keyed `key`, then release the pending slot.  The forwarded
    /// route keeps the flight key, so its terminal settles the remaining
    /// followers.
    fn redispatch(self: Arc<Self>, seq: u64, raw: String, key: String, client_id: Option<String>);
}

/// One enrolled duplicate, waiting on another request's terminal frame.
pub(crate) struct FrontFollower {
    pub(crate) session: Arc<dyn CoalesceSession>,
    /// The owning session's router-wide token (identity for cancel lookup).
    pub(crate) token: u64,
    /// The request's sequence number within its own client session.
    pub(crate) seq: u64,
    /// The follower's own correlation token (spliced into its terminal).
    pub(crate) client_id: Option<String>,
    /// The original wire line, verbatim, in case this follower is promoted.
    pub(crate) raw: String,
}

/// The daemon-wide registry of router-coalesced flights, keyed by the same
/// canonical cache key the engine's flight table uses.  Shared by every
/// client session of a `qld front` daemon — coalescing works *across*
/// sessions, which is exactly what a per-shard layer cannot do.
#[derive(Default)]
pub(crate) struct FrontFlights {
    inner: Mutex<HashMap<String, Vec<FrontFollower>>>,
    /// Flights led (coalescible forwards) since startup.
    led: AtomicU64,
    /// Followers enrolled (shard round trips avoided) since startup.
    coalesced: AtomicU64,
}

impl FrontFlights {
    /// Flights led since startup (the front `stats` `flights` field).
    pub(crate) fn led(&self) -> u64 {
        self.led.load(Ordering::Relaxed)
    }

    /// Followers enrolled since startup (the front `coalesced` field).
    pub(crate) fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Registers interest in `key`: `true` means the caller leads a fresh
    /// flight and must forward the line; `false` means the request enrolled
    /// as a follower of an in-flight leader (`make` is called only then).
    pub(crate) fn lead_or_enroll(&self, key: &str, make: impl FnOnce() -> FrontFollower) -> bool {
        let mut map = lock(&self.inner);
        match map.entry(key.to_string()) {
            Entry::Occupied(mut entry) => {
                entry.get_mut().push(make());
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                false
            }
            Entry::Vacant(slot) => {
                slot.insert(Vec::new());
                self.led.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
    }

    /// Ends the flight, returning every enrolled follower for settlement.
    pub(crate) fn take(&self, key: &str) -> Vec<FrontFollower> {
        lock(&self.inner).remove(key).unwrap_or_default()
    }

    /// Pops the oldest live follower to become the flight's new leader,
    /// releasing (and dropping) aborted ones along the way.  `None` means no
    /// follower could take over — the flight is dissolved.  On success the
    /// flight entry stays registered: the remaining followers (and any new
    /// duplicates) keep waiting on the promoted leader's terminal.
    pub(crate) fn promote(&self, key: &str) -> Option<FrontFollower> {
        let (promoted, released) = {
            let mut map = lock(&self.inner);
            let followers = map.get_mut(key)?;
            let mut released = Vec::new();
            let mut promoted = None;
            while !followers.is_empty() {
                let follower = followers.remove(0);
                if follower.session.is_aborted() {
                    released.push(follower);
                } else {
                    promoted = Some(follower);
                    break;
                }
            }
            if promoted.is_none() {
                map.remove(key);
            }
            (promoted, released)
        };
        for follower in released {
            follower.session.release();
        }
        promoted
    }

    /// Removes the follower enrolled by session `token` under sequence
    /// number `seq`, whatever flight it waits on — the lookup behind
    /// `cancel id=N` for a request that was never forwarded.
    pub(crate) fn remove_follower(&self, token: u64, seq: u64) -> Option<FrontFollower> {
        let mut map = lock(&self.inner);
        for followers in map.values_mut() {
            if let Some(at) = followers
                .iter()
                .position(|f| f.token == token && f.seq == seq)
            {
                return Some(followers.remove(at));
            }
        }
        None
    }
}

/// Strips the leader's `,"client_id":...` field off a terminal frame's
/// post-`id` remainder, so a follower's own correlation token can take its
/// place.  The leader's token is known exactly (it was parsed at dispatch),
/// so the prefix to strip is rendered — not scanned — with the engine's own
/// escaper.
pub(crate) fn strip_leader_client_id<'a>(rest: &'a str, leader_id: Option<&str>) -> &'a str {
    match leader_id {
        None => rest,
        Some(id) => {
            let prefix = format!(",\"client_id\":{}", qld_engine::json::string(id));
            rest.strip_prefix(prefix.as_str()).unwrap_or(rest)
        }
    }
}

/// Assembles a follower's terminal line from its own envelope and the
/// leader's (client-id-stripped) terminal remainder: byte-identical to the
/// leader's frame modulo `id`/`client_id`.
pub(crate) fn follower_line(seq: u64, client_id: Option<&str>, stripped_rest: &str) -> String {
    match client_id {
        None => format!("{{\"id\":{seq}{stripped_rest}"),
        Some(id) => format!(
            "{{\"id\":{seq},\"client_id\":{}{stripped_rest}",
            qld_engine::json::string(id)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_client_id_is_stripped_exactly() {
        let rest = r#","client_id":"a b","ok":true,"kind":"duality"}"#;
        assert_eq!(
            strip_leader_client_id(rest, Some("a b")),
            r#","ok":true,"kind":"duality"}"#
        );
        // No leader token: nothing to strip.
        let bare = r#","ok":true}"#;
        assert_eq!(strip_leader_client_id(bare, None), bare);
        // A mismatched token (never happens in practice) leaves the frame
        // intact rather than corrupting it.
        assert_eq!(strip_leader_client_id(rest, Some("other")), rest);
    }

    #[test]
    fn follower_lines_splice_their_own_envelope() {
        let stripped = r#","ok":true,"kind":"duality"}"#;
        assert_eq!(
            follower_line(7, None, stripped),
            r#"{"id":7,"ok":true,"kind":"duality"}"#
        );
        assert_eq!(
            follower_line(9, Some("x\"y"), stripped),
            r#"{"id":9,"client_id":"x\"y","ok":true,"kind":"duality"}"#
        );
    }
}
